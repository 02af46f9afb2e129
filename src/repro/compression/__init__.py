"""Lossless integer/float codecs used by the trajectory row serializer.

The paper stores each trajectory as three compressed arrays (timestamps,
longitudes, latitudes) inside the primary-table row value and lists a menu of
codecs (Elf, VGB, simple8b, PFOR, ...).  This package implements a compatible
menu of order-preserving, lossless codecs plus the trajectory codec that
glues them together.  Every integer packer encodes and decodes whole numpy
arrays; the trajectory codec decodes any blob through one vectorized path.
"""

from repro.compression.elf import elf_decode, elf_encode
from repro.compression.pfor import pfor_encode
from repro.compression.simple8b import simple8b_encode
from repro.compression.traj_codec import TrajectoryCodec, CodecName
from repro.compression.varint import decode_varint, encode_varint
from repro.compression.xor_float import xor_float_decode, xor_float_encode

__all__ = [
    "encode_varint",
    "decode_varint",
    "simple8b_encode",
    "pfor_encode",
    "xor_float_encode",
    "xor_float_decode",
    "elf_encode",
    "elf_decode",
    "TrajectoryCodec",
    "CodecName",
]
