"""Lossless codecs used by the trajectory row serializer.

The paper stores each trajectory as three compressed arrays inside the
primary-table row value and lists a menu of codecs (Elf, VGB, simple8b,
PFOR, ...).  Every integer stream of a row here is packed by one patched
bit packer (:mod:`.bitpack`); the trajectory codec delta-transforms and
zigzags each point array for it, on whole numpy arrays.  The rest of the
menu (LEB128 varint streams, simple8b, PFOR, the float codecs XOR and Elf)
is benchmarked from ``benchmarks/``.
"""

from repro.compression.traj_codec import TrajectoryCodec
from repro.compression.varint import decode_varint, encode_varint

__all__ = [
    "encode_varint",
    "decode_varint",
    "TrajectoryCodec",
]
