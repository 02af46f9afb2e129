"""Vectorized delta+zigzag+varint codecs over numpy integer arrays.

The scalar codecs in :mod:`repro.compression.varint` / ``zigzag`` /
``delta`` walk python ints one at a time; these functions produce and
consume byte-identical streams with a fixed number of numpy passes, so
encoding or decoding a 10k-point trajectory costs a handful of array
operations instead of tens of thousands of interpreter iterations.

Wire compatibility is load-bearing: ``varint_encode_array`` emits exactly
what :func:`repro.compression.varint.encode_varint_list` would (count
prefix, then LEB128 values), which keeps v2 point blobs readable by the
scalar path and vice versa.
"""

from __future__ import annotations

import numpy as np

from repro.compression.varint import decode_varint

_U7 = np.uint64(7)
_U1 = np.uint64(1)
_LOW7 = np.uint64(0x7F)

# -- zigzag ----------------------------------------------------------------


def zigzag_encode_array(values: np.ndarray) -> np.ndarray:
    """Map signed int64 to unsigned so small magnitudes stay small."""
    v = np.ascontiguousarray(values, dtype=np.int64)
    u = v.view(np.uint64)
    return (u << _U1) ^ (v >> np.int64(63)).view(np.uint64)


def zigzag_decode_array(encoded: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode_array`."""
    u = np.ascontiguousarray(encoded, dtype=np.uint64)
    return ((u >> _U1) ^ (np.uint64(0) - (u & _U1))).view(np.int64)


def int_array(values) -> np.ndarray:
    """An integer array of ``values`` (object dtype past 64 bits, for range checks)."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return arr
    return np.asarray(values, dtype=object) if len(arr) else np.zeros(0, np.uint64)


_POW2 = np.array([1 << k for k in range(64)], dtype=np.uint64)


def bit_length_array(values: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of every uint64 value."""
    return np.searchsorted(_POW2, values, side="right")


# -- delta transforms ------------------------------------------------------


def _segment_heads(offsets, skip: int = 0) -> np.ndarray:
    """Position ``skip`` of every segment holding more than ``skip`` values.

    Segment ``offsets`` (``[0, n1, n1+n2, ...]``) let the encoders transform a
    batch's concatenated columns, each segment exactly as if on its own.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    heads = offsets[:-1] + skip
    return heads[heads < offsets[1:]]


def delta_encode_array(values: np.ndarray, offsets=None) -> np.ndarray:
    v = np.ascontiguousarray(values, dtype=np.int64)
    out = np.empty_like(v)
    if len(v):
        out[0] = v[0]
        np.subtract(v[1:], v[:-1], out=out[1:])
        if offsets is not None:
            heads = _segment_heads(offsets)
            out[heads] = v[heads]
    return out


def delta_decode_array(deltas: np.ndarray) -> np.ndarray:
    return np.cumsum(np.ascontiguousarray(deltas, dtype=np.int64), dtype=np.int64)


def delta_of_delta_encode_array(values: np.ndarray, offsets=None) -> np.ndarray:
    """Second-difference transform: [v0, d1, dd2, ...] (matches scalar)."""
    deltas = delta_encode_array(values, offsets)
    out = deltas.copy()
    out[1:] -= deltas[:-1]
    for skip in (0, 1):  # each segment keeps [v0, d1] as they are
        heads = _segment_heads((0, len(out)) if offsets is None else offsets, skip)
        out[heads] = deltas[heads]
    return out


def delta_of_delta_decode_array(encoded: np.ndarray) -> np.ndarray:
    """Inverse of :func:`delta_of_delta_encode_array`."""
    e = np.ascontiguousarray(encoded, dtype=np.int64)
    if len(e) <= 2:
        return delta_decode_array(e)
    out = np.empty_like(e)
    out[0] = e[0]
    out[1:] = e[0] + np.cumsum(np.cumsum(e[1:], dtype=np.int64), dtype=np.int64)
    return out


# -- varint ----------------------------------------------------------------


def leb128_encode(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LEB128 bytes of every value, concatenated, and each value's end offset."""
    u = np.ascontiguousarray(values, dtype=np.uint64)
    nbytes = np.maximum(1, -(-bit_length_array(u) // 7))
    width = int(nbytes.max()) if len(u) else 0
    shifts = np.arange(width, dtype=np.uint64) * _U7
    mat = ((u[:, None] >> shifts) & _LOW7).astype(np.uint8)
    cols = np.arange(width, dtype=np.int64)[None, :]
    mat |= (cols < (nbytes - 1)[:, None]).astype(np.uint8) << np.uint8(7)
    return mat[cols < nbytes[:, None]], np.cumsum(nbytes)


def varint_encode_segments(values: np.ndarray, offsets) -> list[bytes]:
    """One count-prefixed LEB128 stream per segment ``[offsets[i], offsets[i+1])``.

    Each stream is byte-identical to ``encode_varint_list`` of its values;
    the whole batch costs one pass however many segments it holds.
    """
    u = np.ascontiguousarray(values, dtype=np.uint64)
    offsets = np.asarray(offsets, dtype=np.int64)
    # Each segment's count goes in front of its values, so segment i spans
    # flat positions [offsets[i] + i, offsets[i+1] + i + 1).
    flat = np.insert(u, offsets[:-1], np.diff(offsets).astype(np.uint64))
    data, ends = leb128_encode(flat)
    buf = data.tobytes()
    bounds = np.concatenate(([0], ends))[offsets + np.arange(len(offsets))].tolist()
    return [buf[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def varint_encode_array(values: np.ndarray) -> bytes:
    """LEB128-encode a uint64 array, count-prefixed like ``encode_varint_list``."""
    return varint_encode_segments(values, (0, len(values)))[0]


def varint_decode_array(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    """Decode a count-prefixed LEB128 stream; returns (values, next offset)."""
    count, offset = decode_varint(buf, offset)
    if count == 0:
        return np.empty(0, dtype=np.uint64), offset
    data = np.frombuffer(buf, dtype=np.uint8, offset=offset, count=len(buf) - offset)
    term_pos = np.flatnonzero((data & np.uint8(0x80)) == 0)
    if len(term_pos) < count:
        raise ValueError("truncated varint stream")
    ends = term_pos[:count].astype(np.int64)
    starts = np.empty(count, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    if int(lengths.max()) > 10:
        raise ValueError("varint longer than 10 bytes")
    used = int(ends[-1]) + 1
    payload = data[:used].astype(np.uint64) & _LOW7
    shifts = (np.arange(used, dtype=np.int64) - np.repeat(starts, lengths)) * 7
    values = np.bitwise_or.reduceat(payload << shifts.astype(np.uint64), starts)
    return values, offset + used


# -- signed convenience wrappers ------------------------------------------


def encode_signed_stream(values: np.ndarray) -> bytes:
    """zigzag+varint a signed int64 array (count-prefixed)."""
    return varint_encode_array(zigzag_encode_array(values))


def decode_signed_stream(buf: bytes, offset: int = 0) -> tuple[np.ndarray, int]:
    u, offset = varint_decode_array(buf, offset)
    return zigzag_decode_array(u), offset
