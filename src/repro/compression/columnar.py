"""Vectorized delta, zigzag and LEB128 varint kernels over numpy arrays.

Encoding or decoding a 10k-point trajectory costs a fixed number of array
operations instead of tens of thousands of interpreter iterations.  The
streams are the wire format of the ``varint`` codec and of the row's feature
section: ``varint_encode_array`` emits the LEB128 values with no count
(the trajectory blob's frame holds it; the scalar reference in
``tests/codec_reference.py`` writes and reads exactly the same bytes), and
:func:`varint_unpack` reads a blob's three such streams back in one pass.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

_U7 = np.uint64(7)
_U0 = np.uint64(0)
_U1 = np.uint64(1)
_LOW7 = np.uint64(0x7F)
_LOW7_U8 = np.uint8(0x7F)

# -- zigzag ----------------------------------------------------------------


def zigzag_encode_array(values: np.ndarray) -> np.ndarray:
    """Map signed int64 to unsigned so small magnitudes stay small."""
    v = np.ascontiguousarray(values, dtype=np.int64)
    u = v.view(np.uint64)
    return (u << _U1) ^ (v >> np.int64(63)).view(np.uint64)


def zigzag_decode_array(encoded: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode_array`."""
    u = np.asarray(encoded, dtype=np.uint64)
    return ((u >> _U1) ^ (_U0 - (u & _U1))).view(np.int64)


def int_array(values) -> np.ndarray:
    """An integer array of ``values`` (object dtype past 64 bits, for range checks)."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return arr
    return np.asarray(values, dtype=object) if len(arr) else np.zeros(0, np.uint64)


POW2 = np.array([1 << k for k in range(64)], dtype=np.uint64)


def bit_length_array(values: np.ndarray) -> np.ndarray:
    """``int.bit_length`` of every uint64 value."""
    return np.searchsorted(POW2, values, side="right")


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
    """Inverse of :func:`delta_encode_array`, along the last axis."""
    return np.add.accumulate(np.asarray(deltas, dtype=np.int64), axis=-1)


def delta_of_delta_encode_array(values: np.ndarray, offsets=None) -> np.ndarray:
    """Second-difference transform: [v0, d1, dd2, ...]."""
    deltas = delta_encode_array(values, offsets)
    out = deltas.copy()
    out[1:] -= deltas[:-1]
    for skip in (0, 1):  # each segment keeps [v0, d1] as they are
        heads = _segment_heads((0, len(out)) if offsets is None else offsets, skip)
        out[heads] = deltas[heads]
    return out


def delta_of_delta_decode_array(encoded: np.ndarray) -> np.ndarray:
    """Inverse of :func:`delta_of_delta_encode_array`.

    With ``d1 - v0`` in place of ``d1``, ``[v0, d1, dd2, ...]`` is the
    second difference of the values, so two running sums restore them.
    """
    e = np.array(encoded, dtype=np.int64)
    e[1:2] -= e[:1]
    return np.add.accumulate(np.add.accumulate(e))


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
    """One LEB128 stream per segment ``[offsets[i], offsets[i+1])``: its
    values alone, with no count (the trajectory blob's frame holds it).
    The whole batch costs one pass however many segments it holds."""
    data, ends = leb128_encode(values)
    buf = data.tobytes()
    bounds = np.concatenate(([0], ends))[np.asarray(offsets, dtype=np.int64)].tolist()
    return [buf[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def varint_encode_array(values: np.ndarray) -> bytes:
    """LEB128-encode a uint64 array (no count: the reader must know it)."""
    return varint_encode_segments(values, (0, len(values)))[0]


def leb128_decode(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every LEB128 value in the uint8 array ``data``, and each one's last
    byte: the inverse of :func:`leb128_encode`.

    ``data`` must end on a value's last byte, and every value must fit in
    64 bits (a 10th byte above ``0x01`` does not); otherwise ``ValueError``.
    """
    ends = np.flatnonzero(data < 0x80)
    if not len(ends) or ends[-1] != len(data) - 1:
        if not len(data):
            return np.empty(0, dtype=np.uint64), ends
        raise ValueError("truncated varint stream")
    starts = np.empty_like(ends)
    starts[0] = 0
    np.add(ends[:-1], 1, out=starts[1:])
    extra = ends - starts  # bytes after each value's first
    if extra.max() >= 9 and ((extra > 9) | ((extra == 9) & (data[ends] > 1))).any():
        raise ValueError("varint value exceeds 64 bits")
    shifts = np.arange(len(data), dtype=np.uint64)
    shifts -= np.repeat(starts.astype(np.uint64), extra + 1)
    shifts *= _U7
    payload = (data & _LOW7_U8).astype(np.uint64)
    payload <<= shifts
    return np.bitwise_or.reduceat(payload, starts), ends


def varint_unpack(streams: list[bytes], n: int) -> np.ndarray:
    """The values of LEB128 streams holding ``n`` values each, as a
    ``(len(streams), n)`` uint64 array.

    One LEB128 pass decodes the streams' concatenated bytes: stream ``i``
    holds values ``[i * n, (i + 1) * n)``, and its last value must end on
    the stream's last byte.
    """
    values, ends = leb128_decode(np.frombuffer(b"".join(streams), dtype=np.uint8))
    if len(values) != len(streams) * n:
        raise ValueError("corrupt varint streams: value count mismatch")
    stream_ends = list(accumulate(len(stream) for stream in streams))
    if n and (ends[n - 1 :: n] + 1).tolist() != stream_ends:
        raise ValueError("corrupt varint streams: array length mismatch")
    return values.reshape(len(streams), n)
