"""PFOR (patched frame-of-reference) block compression.

Each block of up to 128 values is stored with a per-block base and bit width
chosen to fit ~90% of the values; outliers ("exceptions") are patched in a
varint side list.  Lossless for non-negative integers below 2^64.
Encoding and decoding both work on a batch of streams at once.

No row stores PFOR streams: rows are packed with simple8b alone.  PFOR
packs about 5 % fewer bytes per point than simple8b on T-Drive-like
tracks, but its encoder builds one ``uint64`` per bit of a batch, so an
8,192-point ingest chunk costs several MiB more peak memory.  The codec
menu benchmark (``benchmarks/test_ext_compression.py``) measures it beside
simple8b and the LEB128 packer (``benchmarks/varint_stream.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.compression.columnar import POW2, bit_length_array, int_array, leb128_encode
from repro.compression.varint import decode_varint

BLOCK = 128


def pfor_encode_segments(values, offsets) -> list[bytes]:
    """One PFOR stream per segment ``[offsets[i], offsets[i+1])``, its blocks
    with no count (the reader must know it): bases,
    widths (covering the shifted value ranked ``int(0.9 * count)``, at least
    1), exceptions and LSB-first bit streams of every block of every segment
    come from array passes; only the per-block byte assembly loops."""
    v = int_array(values)
    bad = np.flatnonzero(v < 0)
    if len(bad):
        raise ValueError(f"PFOR values must be non-negative, got {int(v[bad[0]])}")
    v = v.astype(np.uint64)
    offsets = np.asarray(offsets, dtype=np.int64)
    lens = np.diff(offsets)
    nblocks = -(-lens // BLOCK)
    seg_of = np.repeat(np.arange(len(lens)), nblocks)
    bstart = offsets[:-1][seg_of] + BLOCK * (
        np.arange(len(seg_of)) - np.repeat(np.cumsum(nblocks) - nblocks, nblocks)
    )
    bcount = np.minimum(bstart + BLOCK, offsets[1:][seg_of]) - bstart
    block_of = np.repeat(np.arange(len(bstart)), bcount)
    local = np.arange(len(v)) - bstart[block_of]
    base = np.minimum.reduceat(v, bstart) if len(v) else v
    shifted = v - base[block_of]
    ranked = shifted[np.lexsort((shifted, block_of))]
    pivot = ranked[bstart + np.clip((bcount * 0.9).astype(np.int64), 0, bcount - 1)]
    bits = np.maximum(1, bit_length_array(pivot))
    exc = bit_length_array(shifted) > bits[block_of]
    packed = np.where(exc, np.uint64(0), shifted)
    # The bit stream: value i of a block owns bits [i*w, (i+1)*w) after the
    # block's byte-aligned start.
    nbytes = (bcount * bits + 7) // 8
    byte_start = np.cumsum(nbytes) - nbytes
    w = bits[block_of]
    bit_of = np.repeat(8 * byte_start[block_of] + local * w, w)
    j = np.arange(len(bit_of)) - np.repeat(np.cumsum(w) - w, w)
    stream = np.zeros(8 * int(nbytes.sum()), dtype=np.uint8)
    stream[bit_of + j] = (np.repeat(packed, w) >> j.astype(np.uint64)) & np.uint64(1)
    streams = np.packbits(stream, bitorder="little").tobytes()
    # Varint fields per block: count, base | nbytes | n_exc, (idx, value)*.
    nexc = np.bincount(block_of[exc], minlength=len(bstart))
    size = 4 + 2 * nexc
    head = np.cumsum(size) - size
    fields = np.empty(int(size.sum()), dtype=np.uint64)
    for k, col in enumerate((bcount, base, nbytes, nexc)):
        fields[head + k] = col
    pair = 4 + 2 * (np.arange(int(nexc.sum())) - np.repeat(np.cumsum(nexc) - nexc, nexc))
    fields[np.repeat(head, nexc) + pair] = local[exc]
    fields[np.repeat(head, nexc) + pair + 1] = shifted[exc]
    data, ends = leb128_encode(fields)
    buf = data.tobytes()
    at = np.concatenate(([0], ends))
    cut = np.stack((at[head], at[head + 2], at[head + 3], at[head + size])).T.tolist()
    blocks = [
        b"".join((buf[a:b], bytes((w,)), buf[b:c], streams[s : s + m], buf[c:d]))
        for (a, b, c, d), w, s, m in zip(
            cut, bits.tolist(), byte_start.tolist(), nbytes.tolist()
        )
    ]
    first = (np.cumsum(nblocks) - nblocks).tolist()
    return [b"".join(blocks[f : f + k]) for f, k in zip(first, nblocks.tolist())]


def pfor_encode(values: Sequence[int]) -> bytes:
    """Compress a sequence of non-negative integers (each below 2^64); the
    blocks alone, so the reader must know how many values they hold."""
    return pfor_encode_segments(values, (0, len(values)))[0]


def pfor_unpack(streams: list[bytes], n: int) -> np.ndarray:
    """The values of PFOR streams holding ``n`` values each, as a
    ``(len(streams), n)`` uint64 array.

    A stream is its blocks alone: the caller knows ``n``, and the blocks
    must hold exactly ``n`` values and end on the stream's last byte.
    Block headers and exceptions are read with :func:`decode_varint`; the
    bit payloads of every block of every stream are unpacked by one
    ``np.unpackbits`` call, each block's ``count x width`` bit matrix is
    weighted into values, then the exceptions are patched in and each
    block's base is added.
    """
    counts, bases, widths, payloads, exc_at, exc_val = [], [], [], [], [], []
    total = 0  # values in the blocks read so far
    for stream in streams:
        pos, done = 0, 0
        while done < n:
            count, pos = decode_varint(stream, pos)
            base, pos = decode_varint(stream, pos)
            width = stream[pos]
            nbytes, pos = decode_varint(stream, pos + 1)
            if not 0 < count <= min(BLOCK, n - done) or width > 64 or base >> 64:
                raise ValueError("corrupt PFOR block header")
            if 8 * nbytes < count * width or pos + nbytes > len(stream):
                raise ValueError("truncated PFOR bit stream")
            payloads.append(stream[pos : pos + nbytes])
            n_exc, pos = decode_varint(stream, pos + nbytes)
            for _ in range(n_exc):
                idx, pos = decode_varint(stream, pos)
                val, pos = decode_varint(stream, pos)
                if idx >= count or val >> 64:
                    raise ValueError("corrupt PFOR exception")
                exc_at.append(total + idx)
                exc_val.append(val)
            counts.append(count)
            bases.append(base)
            widths.append(width)
            done += count
            total += count
        if pos != len(stream):
            raise ValueError("corrupt PFOR stream: bytes past its last block")
    bits = np.unpackbits(np.frombuffer(b"".join(payloads), dtype=np.uint8), bitorder="little")
    blocks, at = [np.zeros(0, dtype=np.uint64)], 0  # (concatenate needs one block)
    for count, width, payload in zip(counts, widths, payloads):
        blocks.append(bits[at : at + count * width].reshape(count, width) @ POW2[:width])
        at += 8 * len(payload)
    values = np.concatenate(blocks)
    values[exc_at] = np.array(exc_val, dtype=np.uint64)
    values += np.repeat(np.array(bases, dtype=np.uint64), counts)
    return values.reshape(len(streams), n)
