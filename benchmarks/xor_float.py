"""Gorilla-style XOR compression for float64 streams.

Stands in for the Elf/Elf+ codecs cited by the paper: successive trajectory
coordinates are close in value, so XORing consecutive IEEE-754 bit patterns
yields long zero prefixes/suffixes which are stored compactly.  The encoding
here is a simplified, byte-aligned variant that remains fully lossless.
No row stores floats this way; the codec menu benchmark
(``benchmarks/test_ext_compression.py``) measures it beside Elf.
"""

from __future__ import annotations

import struct
from typing import Sequence

from repro.compression.varint import decode_varint, encode_varint


def _float_to_bits(value: float) -> int:
    return struct.unpack(">Q", struct.pack(">d", value))[0]


def _bits_to_float(bits: int) -> float:
    return struct.unpack(">d", struct.pack(">Q", bits))[0]


def xor_float_encode(values: Sequence[float]) -> bytes:
    """Compress a float64 sequence losslessly."""
    out = bytearray()
    encode_varint(len(values), out)
    prev = 0
    for v in values:
        bits = _float_to_bits(v)
        xored = bits ^ prev
        prev = bits
        if xored == 0:
            out.append(0)
            continue
        # Strip trailing zero bytes; store (n_meaningful_bytes, bytes).
        n_trailing = 0
        while xored & 0xFF == 0:
            xored >>= 8
            n_trailing += 1
        meaningful = xored.to_bytes((xored.bit_length() + 7) // 8, "big")
        out.append(len(meaningful))
        out.append(n_trailing)
        out += meaningful
    return bytes(out)


def xor_float_decode(buf: bytes) -> list[float]:
    """Inverse of :func:`xor_float_encode`."""
    n, pos = decode_varint(buf, 0)
    values: list[float] = []
    prev = 0
    for _ in range(n):
        if pos >= len(buf):
            raise ValueError("truncated XOR float stream")
        n_meaningful = buf[pos]
        pos += 1
        if n_meaningful == 0:
            values.append(_bits_to_float(prev))
            continue
        if pos >= len(buf):
            raise ValueError("truncated XOR float stream")
        n_trailing = buf[pos]
        pos += 1
        chunk = buf[pos : pos + n_meaningful]
        if len(chunk) != n_meaningful:
            raise ValueError("truncated XOR float stream")
        pos += n_meaningful
        xored = int.from_bytes(chunk, "big") << (8 * n_trailing)
        prev ^= xored
        values.append(_bits_to_float(prev))
    return values
