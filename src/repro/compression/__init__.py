"""Lossless codecs used by the trajectory row serializer.

The paper stores each trajectory as three compressed arrays (timestamps,
longitudes, latitudes) inside the primary-table row value and lists a menu of
codecs (Elf, VGB, simple8b, PFOR, ...).  Rows here use one of them: the
trajectory codec delta-transforms and zigzags each array and packs it with
simple8b, encoding and decoding whole numpy arrays.  The rest of the menu
(LEB128 varint streams, PFOR, and the float codecs XOR and Elf) is
benchmarked from ``benchmarks/``.
"""

from repro.compression.simple8b import simple8b_encode
from repro.compression.traj_codec import TrajectoryCodec
from repro.compression.varint import decode_varint, encode_varint

__all__ = [
    "encode_varint",
    "decode_varint",
    "simple8b_encode",
    "TrajectoryCodec",
]
