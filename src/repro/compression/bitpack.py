"""Patched bit packing: the one integer packer of a row.

A *section* packs one row's streams (the point blob's t, x and y; the
feature section's rep indexes, reps and box offsets).  Stream by stream it
holds the stream's first ``heads`` values as LEB128 varints and, if values
follow (its *tail*), a descriptor: a byte ``w | x << 7`` and, if ``x``, a
varint ``e - 1`` and a byte ``h - 1``.  One bit body follows, each byte's
low bit first: every tail at its width ``w`` (0..64, chosen per stream to
make the section smallest), then every stream's ``e`` exceptions, the
index (``bit_length(L - 1)`` bits) and the ``h`` bits above ``w`` of each
tail value too wide for it (patched frame-of-reference, Zukowski et al.,
ICDE 2006: one GPS gap does not widen a stream), then zeros to a byte.  No
stream states its length: the caller knows the counts, the descriptors
give the rest, and a section must end exactly where they say.

:func:`pack` packs a whole batch in a few array passes (widths from
per-stream bit-length histograms, bits OR-ed into ``uint64`` words; no
array holds an element per bit).  :func:`unpack_array` reads one section
with numpy, :func:`unpack_lists` in pure Python, so a reader without numpy
can decode one too.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.compression.columnar import POW2, bit_length_array
from repro.compression.varint import decode_varint, encode_varint

# Values per stream at most: zero-width tails cost no bits, so a corrupt
# count must be refused before it sizes the output.
MAX_COUNT = 1 << 20
_MASKS = np.array([(1 << w) - 1 for w in range(65)], dtype=np.uint64)
_U1 = np.uint64(1)
_U63 = np.uint64(63)


# -- packing ------------------------------------------------------------------


def _choose(bl: np.ndarray, row_of: np.ndarray, lens: np.ndarray):
    """Per stream: the width, exception count, high width and index width
    that make its descriptor, tail and exceptions smallest.  ``bl`` holds
    the bit lengths of the streams' tail values, ``row_of`` each one's
    stream, ``lens`` each stream's tail length."""
    top = int(bl.max()) + 1 if len(bl) else 1
    ws = np.arange(top)
    hist = np.bincount(row_of * top + bl, minlength=top * len(lens)).reshape(-1, top)
    wider = lens[:, None] - np.cumsum(hist, axis=1)  # values wider than w
    mx = np.where(lens > 0, top - 1 - np.argmax(hist[:, ::-1] > 0, axis=1), 0)
    b = bit_length_array(np.maximum(lens - 1, 0).astype(np.uint64))[:, None]
    # exceptions cost the varint e - 1, the byte h - 1 and b + h bits each;
    # no width past a stream's widest value costs less than that width
    extra = 8 * (2 + (wider > 1 << 7) + (wider > 1 << 14)) + wider * (b + mx[:, None] - ws)
    w = np.argmin(lens[:, None] * ws + (wider > 0) * extra, axis=1)
    e = wider[np.arange(len(lens)), w]
    return w, e, np.where(e > 0, mx - w, 0), b[:, 0]


def _place(words: np.ndarray, pos: np.ndarray, vals: np.ndarray) -> None:
    """OR each value in at its bit offset; one may run into the next word."""
    wi = pos >> 6
    off = (pos & 63).astype(np.uint64)
    np.bitwise_or.at(words, wi, vals << off)
    np.bitwise_or.at(words, wi + 1, (vals >> (_U63 - off)) >> _U1)


def pack(columns: Sequence, offsets: Sequence, heads: Sequence[int],
         counts: Optional[Sequence[int]] = None) -> list[bytes]:
    """One section per row: ``columns[c]`` holds stream ``c`` of every row,
    row ``r``'s values at ``offsets[c][r]:offsets[c][r + 1]``, and its first
    ``heads[c]`` go out as varints.  Values are unsigned and below 2^64.
    With ``counts``, each section opens with its row's count as a varint
    (a point blob's ``n``, a feature section's ``n_reps``)."""
    cols = [np.ascontiguousarray(col, dtype=np.uint64) for col in columns]
    offs = [np.asarray(off, dtype=np.int64) for off in offsets]
    k, rows = len(cols), len(offs[0]) - 1
    lens = np.array([np.diff(off) for off in offs]).reshape(k, rows)
    if (lens > MAX_COUNT).any():
        raise ValueError(f"a stream holds more than {MAX_COUNT} values")
    tl = lens - np.minimum(lens, np.array(heads)[:, None])
    w, e, h, b = (np.zeros((k, rows), dtype=np.int64) for _ in range(4))
    firsts = np.zeros((rows, k, max(heads, default=0)), dtype=np.uint64)  # the heads
    tails, bls = [], []
    for c in range(k):
        keep = np.ones(len(cols[c]), dtype=bool)
        for j in range(heads[c]):
            at = offs[c][:-1][j < lens[c]] + j
            keep[at] = False
            firsts[j < lens[c], c, j] = cols[c][at]
        tails.append(cols[c][keep])
        bls.append(bit_length_array(tails[c]))
        w[c], e[c], h[c], b[c] = _choose(bls[c], np.repeat(np.arange(rows), tl[c]), tl[c])
    # Bit offsets of each stream's tail and exceptions in the batch's body;
    # every row's body starts on a byte.
    parts = np.concatenate((tl * w, e * (b + h)))
    row_byte = np.concatenate(([0], np.cumsum((parts.sum(0) + 7) // 8)))
    at = 8 * row_byte[:-1] + np.cumsum(parts, axis=0) - parts
    words = np.zeros(int(row_byte[-1]) // 8 + 2, dtype=np.uint64)
    for c in range(k):
        row_of = np.repeat(np.arange(rows), tl[c])
        rank = np.arange(len(tails[c])) - np.repeat(np.cumsum(tl[c]) - tl[c], tl[c])
        width = w[c][row_of]
        _place(words, at[c][row_of] + rank * width, tails[c] & _MASKS[width])
        wide = np.flatnonzero(bls[c] > width)
        if len(wide):
            xr = row_of[wide]
            j = np.arange(len(wide)) - np.repeat(np.cumsum(e[c]) - e[c], e[c])
            pos = at[k + c][xr] + j * (b[c][xr] + h[c][xr])
            _place(words, pos, rank[wide].astype(np.uint64))
            _place(words, pos + b[c][xr], tails[c][wide] >> width[wide].astype(np.uint64))
    body = words.astype("<u8", copy=False).tobytes()
    # Each row's section: stream by stream, its heads and its descriptor; its body.
    desc = np.stack((lens - tl, tl > 0, w | (e > 0) << 7, e - 1, h - 1), axis=2)
    out = []
    for lo, hi, vals, streams, count in zip(row_byte[:-1].tolist(), row_byte[1:].tolist(),
                                            firsts.tolist(), desc.transpose(1, 0, 2).tolist(),
                                            [None] * rows if counts is None else counts):
        section = bytearray()
        if count is not None:
            encode_varint(count, section)
        for firsts_c, (nheads, some, code, more, high) in zip(vals, streams):
            for value in firsts_c[:nheads]:  # varints, inline: most of a row's prefix
                while value > 0x7F:
                    section.append(value & 0x7F | 0x80)
                    value >>= 7
                section.append(value)
            if some:
                section.append(code)
                if code > 0x7F:
                    encode_varint(more, section)
                    section.append(high)
        out.append(bytes(section + body[lo:hi]))
    return out


# -- reading ------------------------------------------------------------------


def _layout(buf: bytes, pos: int, lengths: Sequence[int], heads: Sequence[int]):
    """Read the prefix of the section ``buf[pos:]``: ``(streams, body
    start)``, each stream ``(head values, L, w, e, h, b)``; checks that the
    body has exactly the bytes the descriptors call for."""
    streams = []
    bits = 0
    try:
        for n, count in zip(lengths, heads):
            if n > MAX_COUNT:
                raise ValueError(f"a stream of {n} values")
            vals = []
            for _ in range(min(n, count)):  # the heads' varints, inline for speed
                value = shift = 0
                while buf[pos] > 0x7F:
                    value |= (buf[pos] & 0x7F) << shift
                    shift += 7
                    pos += 1
                value |= buf[pos] << shift
                if value >> 64:
                    raise ValueError("a head past 64 bits")
                vals.append(value)
                pos += 1
            tail = n - len(vals)
            w = e = h = b = 0
            if tail:
                w, pos = buf[pos], pos + 1
                if w > 0x7F:
                    e, pos = decode_varint(buf, pos)
                    w, e, h, b = w & 0x7F, e + 1, buf[pos] + 1, (tail - 1).bit_length()
                    pos += 1
                if w + h > 64 or e > tail:
                    raise ValueError(f"corrupt stream descriptor (w={w}, e={e}, h={h})")
                bits += tail * w + e * (b + h)
            streams.append((vals, tail, w, e, h, b))
    except IndexError:
        raise ValueError("truncated packed section") from None
    if len(buf) - pos != (bits + 7) >> 3:
        raise ValueError(f"packed section body of {len(buf) - pos} bytes for {bits} bits")
    return streams, pos


def _patches(bits: int, streams) -> list[tuple[int, int, int]]:
    """``(stream, place, high bits)`` of every exception, ``place`` counting
    the stream's heads too; ``bits`` holds the exceptions from its bit 0."""
    out = []
    for c, (vals, tail, w, e, h, b) in enumerate(streams):
        if e:
            step, low, high = b + h, (1 << b) - 1, (1 << h) - 1
            for at in range(0, e * step, step):
                index = bits >> at & low
                if index >= tail:
                    raise ValueError(f"exception index {index} past a tail of {tail}")
                out.append((c, len(vals) + index, (bits >> (at + b) & high) << w))
            bits >>= e * step
    return out


def unpack_lists(buf: bytes, pos: int, lengths: Sequence[int],
                 heads: Sequence[int]) -> list[list[int]]:
    """The streams of the section ``buf[pos:]``, ``lengths[c]`` values each,
    as python lists; ``ValueError`` if it is not exactly one section."""
    streams, pos = _layout(buf, pos, lengths, heads)
    bits = int.from_bytes(buf[pos:], "little")
    out = []
    patched = False
    for vals, tail, w, e, _, _ in streams:
        if w:  # shifts of the stream's own bits are cheaper than of the body's
            size, mask = tail * w, (1 << w) - 1
            chunk = bits & ((1 << size) - 1)
            out.append(vals + [chunk >> i & mask for i in range(0, size, w)])
            bits >>= size
        else:
            out.append(vals + [0] * tail)
        patched = patched or e
    if patched:
        for c, place, high in _patches(bits, streams):
            out[c][place] |= high
    return out


def unpack_array(buf: bytes, pos: int, lengths: Sequence[int],
                 heads: Sequence[int]) -> np.ndarray:
    """The streams of the section ``buf[pos:]``, concatenated, as one uint64
    array; ``ValueError`` if it is not exactly one section.  The body's bits
    are spread out once, and each stream's tail is read as one matrix
    product with the powers of two; the few exceptions are read in python."""
    streams, pos = _layout(buf, pos, lengths, heads)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8, offset=pos), bitorder="little")
    out = np.empty(sum(lengths), dtype=np.uint64)
    starts = []
    at = slot = 0
    patched = False
    for vals, tail, w, e, _, _ in streams:
        starts.append(slot)
        if vals:
            out[slot : slot + len(vals)] = vals
            slot += len(vals)
        np.matmul(bits[at : at + tail * w].reshape(tail, w), POW2[:w], out=out[slot : slot + tail])
        at += tail * w
        slot += tail
        patched = patched or e
    if patched:
        rest = int.from_bytes(buf[pos + (at >> 3) :], "little") >> (at & 7)
        for c, place, high in _patches(rest, streams):
            out[starts[c] + place] |= high
    return out
