"""Scalar reference decoders for the trajectory codec.

These are the python-list implementations the codec decoded with before
every codec had one numpy unpacker: zigzag, delta and delta-of-delta
transforms, count-prefixed varint lists, simple8b words and PFOR blocks,
walked one value at a time, and :func:`decode_arrays`, the blob decoder
built from them.  They live here, not under ``src/``, as the oracle the
vectorized decoders are checked against.
"""

from __future__ import annotations

import struct
from typing import Sequence

from repro.compression.traj_codec import COORD_SCALE, TIME_SCALE
from repro.compression.varint import decode_varint, encode_varint

# (selector, values-per-word, bits-per-value): the simple8b word layouts.
SELECTORS = [
    (0, 240, 0), (1, 120, 0), (2, 60, 1), (3, 30, 2), (4, 20, 3), (5, 15, 4),
    (6, 12, 5), (7, 10, 6), (8, 8, 7), (9, 7, 8), (10, 6, 10), (11, 5, 12),
    (12, 4, 15), (13, 3, 20), (14, 2, 30), (15, 1, 60),
]
_BY_SELECTOR = {sel: (count, bits) for sel, count, bits in SELECTORS}


# -- zigzag ----------------------------------------------------------------


def zigzag_encode(value: int) -> int:
    """Signed -> unsigned zigzag value (arbitrary precision):
    0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ..."""
    return value * 2 if value >= 0 else -value * 2 - 1


def zigzag_decode(value: int) -> int:
    """Unsigned zigzag value -> signed integer."""
    if value < 0:
        raise ValueError(f"zigzag values are unsigned, got {value}")
    return (value >> 1) ^ -(value & 1)


# -- delta transforms ------------------------------------------------------


def delta_encode(values: Sequence[int]) -> list[int]:
    """Return [v0, v1-v0, v2-v1, ...]; empty input stays empty."""
    if not values:
        return []
    out = [values[0]]
    out.extend(values[i] - values[i - 1] for i in range(1, len(values)))
    return out


def delta_decode(deltas: Sequence[int]) -> list[int]:
    """Inverse of :func:`delta_encode`."""
    if not deltas:
        return []
    out = [deltas[0]]
    acc = deltas[0]
    for d in deltas[1:]:
        acc += d
        out.append(acc)
    return out


def delta_of_delta_encode(values: Sequence[int]) -> list[int]:
    """Second-difference transform: [v0, v1-v0, dd2, dd3, ...]."""
    if len(values) <= 2:
        return delta_encode(values)
    out = [values[0], values[1] - values[0]]
    prev_delta = values[1] - values[0]
    for i in range(2, len(values)):
        delta = values[i] - values[i - 1]
        out.append(delta - prev_delta)
        prev_delta = delta
    return out


def delta_of_delta_decode(encoded: Sequence[int]) -> list[int]:
    """Inverse of :func:`delta_of_delta_encode`."""
    if len(encoded) <= 2:
        return delta_decode(encoded)
    out = [encoded[0], encoded[0] + encoded[1]]
    delta = encoded[1]
    for dd in encoded[2:]:
        delta += dd
        out.append(out[-1] + delta)
    return out


# -- packers -----------------------------------------------------------------


def encode_varint_list(values: Sequence[int]) -> bytes:
    """Encode a length-prefixed list of non-negative integers."""
    out = bytearray()
    encode_varint(len(values), out)
    for v in values:
        encode_varint(v, out)
    return bytes(out)


def decode_varint_list(buf: bytes, offset: int = 0) -> tuple[list[int], int]:
    """Decode a length-prefixed varint list; return (values, next offset)."""
    count, pos = decode_varint(buf, offset)
    values = []
    for _ in range(count):
        v, pos = decode_varint(buf, pos)
        values.append(v)
    return values, pos


def simple8b_decode(buf: bytes) -> list[int]:
    """The values of one simple8b stream, one word at a time."""
    if len(buf) < 4:
        raise ValueError("truncated simple8b stream")
    (n,) = struct.unpack_from(">I", buf, 0)
    values: list[int] = []
    pos = 4
    while len(values) < n:
        if pos + 8 > len(buf):
            raise ValueError("truncated simple8b stream")
        (word,) = struct.unpack_from(">Q", buf, pos)
        pos += 8
        count, bits = _BY_SELECTOR[word >> 60]
        take = min(count, n - len(values))
        if bits == 0:
            values.extend([0] * take)
        else:
            mask = (1 << bits) - 1
            for j in range(take):
                values.append((word >> (j * bits)) & mask)
    return values


def _unpack_bits(buf: bytes, count: int, bits: int) -> list[int]:
    values = []
    acc = 0
    acc_bits = 0
    pos = 0
    mask = (1 << bits) - 1 if bits else 0
    for _ in range(count):
        if bits == 0:
            values.append(0)
            continue
        while acc_bits < bits:
            if pos >= len(buf):
                raise ValueError("truncated PFOR bit stream")
            acc |= buf[pos] << acc_bits
            acc_bits += 8
            pos += 1
        values.append(acc & mask)
        acc >>= bits
        acc_bits -= bits
    return values


def pfor_decode(buf: bytes) -> list[int]:
    """The values of one PFOR stream, one block and one value at a time."""
    if len(buf) < 4:
        raise ValueError("truncated PFOR stream")
    (n,) = struct.unpack_from(">I", buf, 0)
    pos = 4
    values: list[int] = []
    while len(values) < n:
        count, pos = decode_varint(buf, pos)
        base, pos = decode_varint(buf, pos)
        bits = buf[pos]
        pos += 1
        blen, pos = decode_varint(buf, pos)
        block = _unpack_bits(buf[pos : pos + blen], count, bits)
        pos += blen
        n_exc, pos = decode_varint(buf, pos)
        for _ in range(n_exc):
            idx, pos = decode_varint(buf, pos)
            val, pos = decode_varint(buf, pos)
            block[idx] = val
        values.extend(v + base for v in block)
    return values


UNPACKERS = {
    0: lambda buf: decode_varint_list(buf, 0)[0],
    1: simple8b_decode,
    2: pfor_decode,
}


def decode_arrays(blob: bytes) -> tuple[list[float], list[float], list[float]]:
    """A trajectory blob's (t, lng, lat) arrays, decoded with the scalar
    helpers above: the stream layout is codec id, point count, then three
    u32-length-prefixed streams (delta-of-delta t, delta lng, delta lat)."""
    if len(blob) < 5:
        raise ValueError("truncated trajectory blob")
    if blob[0] not in UNPACKERS:
        raise ValueError(f"unknown codec id {blob[0]}")
    unpack = UNPACKERS[blob[0]]
    (n,) = struct.unpack_from(">I", blob, 1)
    pos = 5
    streams = []
    for _ in range(3):
        (slen,) = struct.unpack_from(">I", blob, pos)
        pos += 4
        streams.append(blob[pos : pos + slen])
        pos += slen
    t_ints = delta_of_delta_decode([zigzag_decode(v) for v in unpack(streams[0])])
    x_ints = delta_decode([zigzag_decode(v) for v in unpack(streams[1])])
    y_ints = delta_decode([zigzag_decode(v) for v in unpack(streams[2])])
    if not (len(t_ints) == len(x_ints) == len(y_ints) == n):
        raise ValueError("corrupt trajectory blob: array length mismatch")
    return (
        [t / TIME_SCALE for t in t_ints],
        [x / COORD_SCALE for x in x_ints],
        [y / COORD_SCALE for y in y_ints],
    )
