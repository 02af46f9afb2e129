"""Lossless codecs used by the trajectory row serializer.

The paper stores each trajectory as three compressed arrays (timestamps,
longitudes, latitudes) inside the primary-table row value and lists a menu of
codecs (Elf, VGB, simple8b, PFOR, ...).  This package implements a compatible
menu of order-preserving, lossless integer codecs plus the trajectory codec
that glues them together (the float codecs XOR and Elf are benchmarked from
``benchmarks/``).  Every integer packer encodes and decodes whole numpy
arrays; the trajectory codec decodes any blob through one vectorized path.
"""

from repro.compression.pfor import pfor_encode
from repro.compression.simple8b import simple8b_encode
from repro.compression.traj_codec import TrajectoryCodec, CodecName
from repro.compression.varint import decode_varint, encode_varint

__all__ = [
    "encode_varint",
    "decode_varint",
    "simple8b_encode",
    "pfor_encode",
    "TrajectoryCodec",
    "CodecName",
]
