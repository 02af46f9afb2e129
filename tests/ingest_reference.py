"""Reference kernels for the row codec's batched encoders and one-pass decoder.

These are the implementations the row codec ran before it was batched
(simple8b's greedy ``_fits`` loop, recursive Douglas-Peucker with one
farthest-point search per span) and the v2 feature decoder that ran one
pass per stream.  They live here, not under ``src/``, purely as the oracle
the kernels are checked against.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compression.traj_codec import COORD_SCALE, TIME_SCALE
from repro.compression.varint import decode_varint
from repro.model.mbr import MBR
from repro.model.point import STPoint

from .codec_reference import SELECTORS, decode_varint_list, zigzag_decode


def simple8b_encode(values: list[int]) -> bytes:
    for v in values:
        if v < 0:
            raise ValueError(f"simple8b values must be non-negative, got {v}")
        if v > (1 << 60) - 1:
            raise ValueError(f"value {v} exceeds 60 bits; pre-transform the stream")

    def fits(start: int, count: int, bits: int) -> bool:
        if start + count > len(values):
            return False
        return all(values[start + i] < (1 << bits) for i in range(count))

    words = []
    i = 0
    while i < len(values):
        for sel, count, bits in SELECTORS:
            if fits(i, count, bits):
                word = sel << 60
                for j in range(count if bits else 0):
                    word |= values[i + j] << (j * bits)
                words.append(word)
                i += count
                break
    return struct.pack(">I", len(values)) + b"".join(struct.pack(">Q", w) for w in words)


def perpendicular_distance(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> float:
    """Distance from point P to segment AB.

    ``np.hypot`` on scalars: the same libm routine the kernel runs on arrays
    (``math.hypot`` may round differently in the last place).
    """
    dx, dy = bx - ax, by - ay
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq == 0.0:
        return np.hypot(px - ax, py - ay)
    t = min(1.0, max(0.0, ((px - ax) * dx + (py - ay) * dy) / seg_len_sq))
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def douglas_peucker(xs: list[float], ys: list[float], epsilon: float) -> list[int]:
    """Kept indexes; the farthest point of a span is the first on ties."""
    n = len(xs)
    if n <= 2:
        return list(range(n))
    keep = {0, n - 1}
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi <= lo + 1:
            continue
        best, best_idx = -1.0, lo
        for i in range(lo + 1, hi):
            d = perpendicular_distance(xs[i], ys[i], xs[lo], ys[lo], xs[hi], ys[hi])
            if d > best:
                best, best_idx = d, i
        if best > epsilon:
            keep.add(best_idx)
            stack += [(lo, best_idx), (best_idx, hi)]
    return sorted(keep)


def decode_feature_v2(buf: bytes, pos: int):
    """The v2 feature section at ``pos`` (just past ``feat_len``), decoded
    one stream at a time: ``(rep_points, rep_indexes, span_boxes,
    box_arrays)`` exactly as the pre-columnar ``DPFeature`` held them."""
    n_reps, pos = decode_varint(buf, pos)
    raw_idx, pos = decode_varint_list(buf, pos)
    idx = np.cumsum(np.array(raw_idx, dtype=np.int64))
    streams = []
    for _ in range(7):
        vals, pos = decode_varint_list(buf, pos)
        streams.append(np.cumsum(np.array([zigzag_decode(v) for v in vals], dtype=np.int64)))
    rt = streams[0] / float(TIME_SCALE)
    rx = streams[1] / float(COORD_SCALE)
    ry = streams[2] / float(COORD_SCALE)
    bx1, by1, bx2, by2 = (s / float(COORD_SCALE) for s in streams[3:7])
    assert len(idx) == len(rt) == len(rx) == len(ry) == n_reps
    reps = tuple(
        STPoint(t, x, y) for t, x, y in zip(rt.tolist(), rx.tolist(), ry.tolist())
    )
    boxes = tuple(
        MBR(x1, y1, x2, y2)
        for x1, y1, x2, y2 in zip(bx1.tolist(), by1.tolist(), bx2.tolist(), by2.tolist())
    )
    return reps, tuple(int(i) for i in idx), boxes, (bx1, by1, bx2, by2)
