"""Scalar reference decoders for the trajectory codec.

These are the python-list implementations the codec decoded with before
every codec had one numpy unpacker: zigzag, delta and delta-of-delta
transforms, count-prefixed varint lists, and varint, simple8b and PFOR
streams of a known count, walked one value at a time, and
:func:`decode_arrays`, the blob decoder built from them.  They live here,
not under ``src/``, as the oracle the vectorized decoders are checked
against.
"""

from __future__ import annotations

import struct
from typing import Optional, Sequence

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


def encode_varints(values: Sequence[int]) -> bytes:
    """Encode non-negative integers as LEB128 values, with no count."""
    out = bytearray()
    for v in values:
        encode_varint(v, out)
    return bytes(out)


def encode_varint_list(values: Sequence[int]) -> bytes:
    """Encode a length-prefixed list of non-negative integers."""
    return encode_varints([len(values)]) + encode_varints(values)


def decode_varint_list(buf: bytes, offset: int = 0) -> tuple[list[int], int]:
    """Decode a length-prefixed varint list; return (values, next offset)."""
    count, pos = decode_varint(buf, offset)
    values = []
    for _ in range(count):
        v, pos = decode_varint(buf, pos)
        values.append(v)
    return values, pos


def varint_decode(buf: bytes, n: int) -> list[int]:
    """The ``n`` values of one LEB128 stream, which they must fill exactly."""
    values, pos = [], 0
    for _ in range(n):
        v, pos = decode_varint(buf, pos)
        values.append(v)
    if pos != len(buf):
        raise ValueError("corrupt varint stream: bytes past its last value")
    return values


def simple8b_decode(buf: bytes, n: int) -> list[int]:
    """The ``n`` values of one simple8b stream, one word at a time; the
    words must hold exactly ``n`` values."""
    values: list[int] = []
    pos = 0
    while len(values) < n:
        if pos + 8 > len(buf):
            raise ValueError("truncated simple8b stream")
        (word,) = struct.unpack_from(">Q", buf, pos)
        pos += 8
        count, bits = _BY_SELECTOR[word >> 60]
        if count > n - len(values):
            raise ValueError("corrupt simple8b stream: a word past its count")
        if bits == 0:
            values.extend([0] * count)
        else:
            mask = (1 << bits) - 1
            for j in range(count):
                values.append((word >> (j * bits)) & mask)
    if pos != len(buf):
        raise ValueError("corrupt simple8b stream: words past its count")
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


def pfor_decode(buf: bytes, n: int) -> list[int]:
    """The ``n`` values of one PFOR stream, one block and one value at a
    time; the blocks must hold exactly ``n`` values and end with the stream."""
    pos = 0
    values: list[int] = []
    while len(values) < n:
        count, pos = decode_varint(buf, pos)
        if not 0 < count <= n - len(values):
            raise ValueError("corrupt PFOR block header")
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
    if pos != len(buf):
        raise ValueError("corrupt PFOR stream: bytes past its last block")
    return values


# codec id -> the scalar unpacker of one stream of known count
UNPACKERS = {0: varint_decode, 1: simple8b_decode, 2: pfor_decode}


def decode_frame(blob: bytes) -> tuple[int, int, list[bytes]]:
    """A trajectory blob's codec id, point count and three streams: the frame
    is codec id (1 byte), then the point count and the t and x stream
    lengths as varints; the y stream runs to the end of the blob."""
    if not blob:
        raise ValueError("truncated trajectory blob")
    n, pos = decode_varint(blob, 1)
    t_len, pos = decode_varint(blob, pos)
    x_len, pos = decode_varint(blob, pos)
    if pos + t_len + x_len > len(blob):
        raise ValueError("truncated trajectory blob")
    x_at = pos + t_len
    return blob[0], n, [blob[pos:x_at], blob[x_at : x_at + x_len], blob[x_at + x_len :]]


def decode_arrays(
    blob: bytes, origin: Optional[tuple[int, int, int]] = None
) -> tuple[list[float], list[float], list[float]]:
    """A trajectory blob's (t, lng, lat) arrays, decoded with the scalar
    helpers above: delta-of-delta t, delta x and delta y, each stream's
    first value counted from ``origin`` (default 0)."""
    cid, n, streams = decode_frame(blob)
    if cid not in UNPACKERS:
        raise ValueError(f"unknown codec id {cid}")
    signed = []
    for stream, first in zip(streams, origin if origin is not None else (0, 0, 0)):
        values = [zigzag_decode(v) for v in UNPACKERS[cid](stream, n)]
        if values:
            values[0] += first
        signed.append(values)
    return (
        [t / TIME_SCALE for t in delta_of_delta_decode(signed[0])],
        [x / COORD_SCALE for x in delta_decode(signed[1])],
        [y / COORD_SCALE for y in delta_decode(signed[2])],
    )
