"""Elf-style erasing float compression (Li et al., VLDB'23 — cited by the paper).

Elf's observation: floats that originate from decimal data (GPS coordinates
with ~7 significant decimal digits) carry long random mantissa tails that
ruin XOR compression.  Erasing the tail bits that do not affect the decimal
value — while recording how many decimal digits must be restored — makes
consecutive XORs collapse, and decoding rounds back to the exact decimal.

This implementation ("Elf-lite") keeps the erase-then-XOR pipeline:

- per value, find the fewest decimal places ``d`` (0..17) that round-trips
  the double exactly;
- erase the largest number of low mantissa bits such that rounding the
  erased double to ``d`` places still recovers the original;
- stream = 5-bit ``d`` values + XOR-compressed erased doubles.

Lossless for any finite double: values needing all 17 digits simply get
zero erased bits.  No row stores floats this way; the codec menu benchmark
(``benchmarks/test_ext_compression.py``) measures it beside XOR.
"""

from __future__ import annotations

import struct
from typing import Sequence

from benchmarks.xor_float import xor_float_decode, xor_float_encode
from repro.compression.varint import decode_varint, encode_varint

_MAX_DECIMALS = 17
_NO_ROUND = 31  # sentinel d: value does not round-trip through decimals


def _decimals_needed(value: float) -> int:
    """Fewest decimal places that reproduce ``value`` exactly, or _NO_ROUND."""
    for d in range(_MAX_DECIMALS + 1):
        if round(value, d) == value:
            return d
    return _NO_ROUND


def _erase(value: float, decimals: int) -> float:
    """Zero as many low mantissa bits as possible while preserving
    ``round(erased, decimals) == value``."""
    (bits,) = struct.unpack(">Q", struct.pack(">d", value))
    best = value
    # Binary search the largest erase count in [0, 52].
    lo, hi = 0, 52
    while lo < hi:
        mid = (lo + hi + 1) // 2
        mask = ~((1 << mid) - 1) & 0xFFFFFFFFFFFFFFFF
        (candidate,) = struct.unpack(">d", struct.pack(">Q", bits & mask))
        if round(candidate, decimals) == value:
            lo = mid
            best = candidate
        else:
            hi = mid - 1
    return best


def elf_encode(values: Sequence[float]) -> bytes:
    """Compress a float64 sequence losslessly via erase-then-XOR."""
    decimals: list[int] = []
    erased: list[float] = []
    for v in values:
        if v != v or v in (float("inf"), float("-inf")):
            decimals.append(_NO_ROUND)
            erased.append(v)
            continue
        d = _decimals_needed(v)
        if d == _NO_ROUND:
            decimals.append(_NO_ROUND)
            erased.append(v)
        else:
            decimals.append(d)
            erased.append(_erase(v, d))

    out = bytearray()
    encode_varint(len(values), out)
    # Pack 5-bit decimal counts.
    acc = 0
    acc_bits = 0
    for d in decimals:
        acc |= d << acc_bits
        acc_bits += 5
        while acc_bits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            acc_bits -= 8
    if acc_bits:
        out.append(acc & 0xFF)
    out += xor_float_encode(erased)
    return bytes(out)


def elf_decode(blob: bytes) -> list[float]:
    """Inverse of :func:`elf_encode`."""
    n, pos = decode_varint(blob, 0)
    n_decimal_bytes = (n * 5 + 7) // 8
    packed = blob[pos : pos + n_decimal_bytes]
    if len(packed) != n_decimal_bytes:
        raise ValueError("truncated Elf stream")
    pos += n_decimal_bytes
    decimals: list[int] = []
    acc = 0
    acc_bits = 0
    it = iter(packed)
    for _ in range(n):
        while acc_bits < 5:
            acc |= next(it) << acc_bits
            acc_bits += 8
        decimals.append(acc & 0x1F)
        acc >>= 5
        acc_bits -= 5
    erased = xor_float_decode(blob[pos:])
    if len(erased) != n:
        raise ValueError("corrupt Elf stream: length mismatch")
    out: list[float] = []
    for d, v in zip(decimals, erased):
        out.append(v if d == _NO_ROUND else round(v, d))
    return out
