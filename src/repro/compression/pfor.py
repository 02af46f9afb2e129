"""PFOR (patched frame-of-reference) block compression.

Each block of up to 128 values is stored with a per-block base and bit width
chosen to fit ~90% of the values; outliers ("exceptions") are patched in a
varint side list.  Lossless for non-negative integers below 2^64.
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from repro.compression.columnar import bit_length_array, int_array, leb128_encode
from repro.compression.varint import decode_varint

BLOCK = 128


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


def pfor_encode_segments(values, offsets) -> list[bytes]:
    """One PFOR stream per segment ``[offsets[i], offsets[i+1])``: bases,
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
    return [
        struct.pack(">I", n) + b"".join(blocks[f : f + k])
        for n, f, k in zip(lens.tolist(), first, nblocks.tolist())
    ]


def pfor_encode(values: Sequence[int]) -> bytes:
    """Compress a sequence of non-negative integers (each below 2^64)."""
    return pfor_encode_segments(values, (0, len(values)))[0]


def pfor_decode(buf: bytes) -> list[int]:
    """Inverse of :func:`pfor_encode`."""
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
