"""Simple8b word-aligned integer packing (Anh & Moffat, 2010).

Rows through version 5 packed their point streams with simple8b; row
version 6 packs every integer stream with the bit packer
``repro.compression.bitpack``, and simple8b stays on the codec menu
(``benchmarks/test_ext_compression.py``) beside LEB128 and PFOR.

Packs runs of small unsigned integers into 64-bit words.  The top 4 bits of
each word select one of 16 layouts; the remaining 60 bits hold 1..240 values
of equal width.  Values that do not fit in 60 bits are rejected — callers
zigzag and delta their streams first, which keeps values tiny in practice.

Encoding is greedy (at each position, the first selector whose run fits)
and runs over a whole batch of streams at once: sliding maxima of the
values' bit lengths say which selectors fit at every position, each
stream's chain of words is followed from its start by pointer doubling,
and the words are OR-reduced from their values.  Decoding
(:func:`simple8b_unpack`) reads all of a blob's streams in one pass too.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Sequence

import numpy as np

from repro.compression.columnar import bit_length_array

# (selector, values-per-word, bits-per-value); selector 0 packs 240 zeros,
# selector 1 packs 120 zeros — the classic simple8b table.
_SELECTORS: list[tuple[int, int, int]] = [
    (0, 240, 0),
    (1, 120, 0),
    (2, 60, 1),
    (3, 30, 2),
    (4, 20, 3),
    (5, 15, 4),
    (6, 12, 5),
    (7, 10, 6),
    (8, 8, 7),
    (9, 7, 8),
    (10, 6, 10),
    (11, 5, 12),
    (12, 4, 15),
    (13, 3, 20),
    (14, 2, 30),
    (15, 1, 60),
]
_COUNTS = np.array([count for _, count, _ in _SELECTORS], dtype=np.int64)
_BITS = np.array([bits for _, _, bits in _SELECTORS], dtype=np.int64)
_MASKS = np.array([(1 << bits) - 1 for _, _, bits in _SELECTORS], dtype=np.uint64)
# _SHIFTS[s][j]: where value j of a selector-s word starts
_SHIFTS = np.array(
    [[j * bits if j < count else 0 for j in range(240)] for _, count, bits in _SELECTORS],
    dtype=np.uint64,
)
_U60 = np.uint64(60)
_MAX_VALUE = (1 << 60) - 1


def int_array(values) -> np.ndarray:
    """An integer array of ``values`` (object dtype past 64 bits, for range checks)."""
    arr = np.asarray(values)
    if arr.dtype.kind in "iu":
        return arr
    return np.asarray(values, dtype=object) if len(arr) else np.zeros(0, np.uint64)


def _checked(values) -> np.ndarray:
    """``values`` as uint64, rejecting (in order) negatives and >= 2^60."""
    arr = int_array(values)
    bad = np.flatnonzero((arr < 0) | (arr > _MAX_VALUE))
    if len(bad):
        v = int(arr[bad[0]])
        if v < 0:
            raise ValueError(f"simple8b values must be non-negative, got {v}")
        raise ValueError(f"value {v} exceeds 60 bits; pre-transform the stream")
    return arr.astype(np.uint64)


def _selectors(bitlen: np.ndarray, room: np.ndarray) -> np.ndarray:
    """The greedy selector at every position (``room``: values left in its stream)."""
    n = len(bitlen)
    # window[k][i] = max(bitlen[i : i + 2^k]), zero-padded past the end.
    window = [np.concatenate((bitlen, np.zeros(256, dtype=bitlen.dtype)))]
    for k in range(1, 8):
        prev = window[-1]
        window.append(np.maximum(prev[:-(1 << (k - 1))], prev[1 << (k - 1):]))
    sel = np.full(n, 15, dtype=np.int64)
    for s in range(14, -1, -1):
        count, bits = int(_COUNTS[s]), int(_BITS[s])
        k = count.bit_length() - 1
        span = np.maximum(window[k][:n], window[k][count - (1 << k):][:n])
        sel[(span <= bits) & (room >= count)] = s
    return sel


def simple8b_encode_segments(values, offsets) -> list[bytes]:
    """One simple8b stream per segment ``[offsets[i], offsets[i+1])``.

    Each stream is what :func:`simple8b_encode` returns for its values:
    its words, with no count (the trajectory blob's frame holds it).
    """
    v = _checked(values)
    offsets = np.asarray(offsets, dtype=np.int64)
    lens = np.diff(offsets)
    n = len(v)
    if n:
        seg_end = np.repeat(offsets[1:], lens)
        pos = np.arange(n, dtype=np.int64)
        sel = _selectors(bit_length_array(v), seg_end - pos)
        count = _COUNTS[sel]
        # Word starts: follow each stream's chain from its head by doubling.
        # ``jump`` is the next-word step applied 2^m times (n: past the end,
        # a fixed point), so ``jump[starts]`` adds chain steps [2^m, 2^(m+1)).
        jump = np.append(np.where(pos + count == seg_end, n, pos + count), n)
        starts = offsets[:-1][lens > 0]
        while len(more := jump[starts][jump[starts] != n]):
            starts = np.concatenate((starts, more))
            jump = jump[jump]
        starts = np.sort(starts)
        # Words partition the positions: each covers its selector's count.
        wsel = sel[starts]
        word_of = np.repeat(np.arange(len(starts)), count[starts])
        shift = ((pos - starts[word_of]) * _BITS[wsel][word_of]).astype(np.uint64)
        words = np.bitwise_or.reduceat(v << shift, starts)
        words |= wsel.astype(np.uint64) << np.uint64(60)
        wbytes = words.astype(">u8").tobytes()
        wbounds = (8 * np.searchsorted(starts, offsets)).tolist()
    else:
        wbytes, wbounds = b"", [0] * len(offsets)
    return [wbytes[a:b] for a, b in zip(wbounds[:-1], wbounds[1:])]


def simple8b_encode(values: Sequence[int]) -> bytes:
    """Pack non-negative integers (< 2^60 each) into simple8b words; the
    words alone, so the reader must know how many values they hold."""
    return simple8b_encode_segments(values, (0, len(values)))[0]


def simple8b_unpack(streams: list[bytes], n: int) -> np.ndarray:
    """The values of simple8b streams holding ``n`` values each, as a
    ``(len(streams), n)`` uint64 array.

    A stream is its words alone: the caller knows ``n``.  One pass over
    every stream's words: each word's selector gives its value count,
    ``np.repeat`` gives every value its word and its place in it, and a
    shift and mask extract it.  The encoder only writes full words, so a
    stream's words must hold exactly its ``n`` values.
    """
    if any(len(stream) % 8 for stream in streams):
        raise ValueError("corrupt simple8b stream: not whole words")
    words = np.frombuffer(b"".join(streams), dtype=">u8").astype(np.uint64)
    sel = words >> _U60
    counts = _COUNTS[sel]
    ends = np.add.accumulate(counts)
    end_list = ends.tolist()
    held = [end_list[w - 1] if w else 0 for w in accumulate(len(s) // 8 for s in streams)]
    if held != [n * (i + 1) for i in range(len(streams))]:
        raise ValueError("corrupt simple8b stream: words do not hold its count")
    word_of = np.repeat(np.arange(len(words)), counts)
    value_sel = sel[word_of]
    place = np.arange(len(word_of)) - (ends - counts)[word_of]
    values = (words[word_of] >> _SHIFTS[value_sel, place]) & _MASKS[value_sel]
    return values.reshape(len(streams), n)
