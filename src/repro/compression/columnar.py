"""Vectorized delta, zigzag and LEB128 varint kernels over numpy arrays.

Encoding or decoding a 10k-point trajectory costs a fixed number of array
operations instead of tens of thousands of interpreter iterations.  The
delta and zigzag transforms feed the point blob's simple8b streams;
:func:`leb128_encode` writes the row's feature section.
"""

from __future__ import annotations

import numpy as np

_U7 = np.uint64(7)
_U0 = np.uint64(0)
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
