"""LEB128 varint streams: the plainest integer packer of the codec menu.

Each value is its 7-bit groups, low group first, every byte but a value's
last with its high bit set; a stream holds no count, so the reader must
know it.  Encoding (:func:`leb128_encode`) and decoding are whole-array
passes.  No row stores a stream this way (row version 5 wrote its feature
section with :func:`leb128_encode`): rows are packed with the bit packer
``repro.compression.bitpack`` alone, and the codec menu benchmark
(``benchmarks/test_ext_compression.py``) measures this packer beside it,
simple8b (``benchmarks/simple8b.py``) and PFOR (``benchmarks/pfor.py``).
The scalar reference in ``tests/codec_reference.py`` writes and reads
exactly the same bytes.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.compression.columnar import bit_length_array

_U7 = np.uint64(7)
_LOW7 = np.uint64(0x7F)
_LOW7_U8 = np.uint8(0x7F)


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
    values alone, with no count.  The whole batch costs one pass however
    many segments it holds."""
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
