"""Douglas-Peucker simplification and DP-features.

TraSS (and TMan, which adopts its similarity machinery) stores *DP-features*
alongside each trajectory: the representative points chosen by a
Douglas-Peucker pass plus the bounding box of each simplified span.  The
features give cheap lower/upper distance bounds used by the similarity
query's local filter, avoiding full distance computations for most
candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.model.mbr import MBR
from repro.model.point import STPoint
from repro.model.pointblock import PointBlock, coord_arrays


def dp_keep_mask(xs: np.ndarray, ys: np.ndarray, offsets, epsilon: float) -> np.ndarray:
    """Mask of the points Douglas-Peucker keeps in every segment
    ``[offsets[i], offsets[i+1])``, computed level by level: each level
    measures the deviation of every interior point of every pending span in
    one pass and splits each span at its farthest point (of ties, the one
    nearest the span's middle, the first of two as near) if that exceeds
    ``epsilon``.  Spans split independently, so the kept
    set is the recursive algorithm's."""
    offsets = np.asarray(offsets, dtype=np.int64)
    lens = np.diff(offsets)
    keep = np.zeros(len(xs), dtype=bool)
    keep[offsets[:-1][lens > 0]] = True
    keep[offsets[1:][lens > 0] - 1] = True
    lo, hi = offsets[:-1][lens > 2], offsets[1:][lens > 2] - 1
    while len(lo):
        inner = hi - lo - 1
        first = np.cumsum(inner) - inner
        span = np.repeat(np.arange(len(lo)), inner)
        pos = np.arange(int(inner.sum())) - first[span] + lo[span] + 1
        ax, ay, bx, by = xs[lo][span], ys[lo][span], xs[hi][span], ys[hi][span]
        px, py = xs[pos], ys[pos]
        dx, dy = bx - ax, by - ay
        seg_len_sq = dx * dx + dy * dy
        flat = seg_len_sq == 0.0
        t = ((px - ax) * dx + (py - ay) * dy) / np.where(flat, 1.0, seg_len_sq)
        np.clip(t, 0.0, 1.0, out=t)
        d = np.where(
            flat,
            np.hypot(px - ax, py - ay),
            np.hypot(px - (ax + t * dx), py - (ay + t * dy)),
        )
        best = np.maximum.reduceat(d, first)
        hits = np.flatnonzero(d == best[span])
        # Of tied farthest points, split at the one nearest the span's
        # middle (the first of two as near), so a run of ties halves the
        # span instead of peeling one point per level.
        off = np.abs(2 * pos[hits] - (lo + hi)[span[hits]])
        hits = hits[np.lexsort((off, span[hits]))]
        hits = hits[np.concatenate(([True], span[hits][1:] != span[hits][:-1]))]
        split = best > epsilon
        mid = pos[hits][split]
        keep[mid] = True
        lo = np.concatenate((lo[split], mid))
        hi = np.concatenate((mid, hi[split]))
        lo, hi = lo[hi > lo + 1], hi[hi > lo + 1]
    return keep


def douglas_peucker(points: Sequence[STPoint], epsilon: float) -> list[int]:
    """Return indexes of the points kept by Douglas-Peucker simplification.

    The first and last point are always kept.  ``epsilon`` is the maximum
    allowed perpendicular deviation in coordinate units.
    """
    if not len(points):
        return []
    xs, ys = coord_arrays(points)
    return np.flatnonzero(dp_keep_mask(xs, ys, (0, len(xs)), epsilon)).tolist()


def dp_feature_columns(xs: np.ndarray, ys: np.ndarray, offsets, epsilon: float):
    """DP-features of every (non-empty) segment, as arrays: ``(reps,
    rep_offsets, (x1, y1, x2, y2))`` — the representative points' global
    indexes (a 1-point trajectory repeats its point), where each segment's
    reps start, and one box per consecutive pair of a segment's reps (the
    raw points from one to the next, both included)."""
    offsets = np.asarray(offsets, dtype=np.int64)
    reps = np.flatnonzero(dp_keep_mask(xs, ys, offsets, epsilon))
    single = offsets[:-1][np.diff(offsets) == 1]
    reps = np.insert(reps, np.searchsorted(reps, single), single)
    rep_offsets = np.searchsorted(reps, offsets)
    # A box spans reps[k] .. reps[k+1]: reduce the half-open run, then the end.
    pair = np.ones(len(reps), dtype=bool)
    pair[rep_offsets[1:] - 1] = False
    end = reps[np.flatnonzero(pair) + 1]
    boxes = tuple(
        ufunc(ufunc.reduceat(col, reps)[pair], col[end])
        for col, ufunc in ((xs, np.minimum), (ys, np.minimum), (xs, np.maximum), (ys, np.maximum))
    )
    return reps, rep_offsets, boxes


@dataclass(frozen=True)
class DPFeature:
    """A trajectory's DP-feature: representative points + per-span boxes.

    ``rep_indexes[i] .. rep_indexes[i+1]`` is the i-th span; ``span_boxes[i]``
    is the tight bounding box of the raw points in that span.  The feature is
    small (a handful of points) and gives sound distance bounds:

    - Any raw point of span i lies inside ``span_boxes[i]``, so the distance
      from an external point to the span is bounded below by the distance to
      the box, and above by the distance to the box's farthest corner.

    The feature is stored as columns of python floats — ``rep_columns`` (lng,
    lat of each representative) and ``box_columns`` (x1, y1, x2, y2 of each
    span box) — which the bounds read directly; the ``span_boxes`` object
    view is built on first access.  Representatives carry no timestamp: no
    bound reads one.
    """

    rep_indexes: tuple[int, ...]
    rep_columns: tuple[tuple[float, ...], tuple[float, ...]]
    box_columns: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...], tuple[float, ...]]

    @cached_property
    def span_boxes(self) -> tuple[MBR, ...]:
        return tuple(MBR(*box) for box in zip(*self.box_columns))

    @property
    def mbr(self) -> MBR:
        """The union of the span boxes."""
        x1, y1, x2, y2 = self.box_columns
        return MBR(min(x1), min(y1), max(x2), max(y2))

    @cached_property
    def box_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(x1, y1, x2, y2) float64 arrays over span boxes, built once."""
        return tuple(np.array(self.box_columns, dtype=np.float64))

    def min_distance_to_point(self, x: float, y: float) -> float:
        """Lower bound on the distance from (x, y) to any raw point."""
        return min(
            math.hypot(max(x1 - x, x - x2, 0.0), max(y1 - y, y - y2, 0.0))
            for x1, y1, x2, y2 in zip(*self.box_columns)
        )


def extract_dp_feature(points: Sequence[STPoint], epsilon: float) -> DPFeature:
    """Compute the DP-feature of a raw point sequence."""
    if not len(points):
        raise ValueError("cannot extract DP-features from zero points")
    block = PointBlock.from_points(points)
    reps, _, boxes = dp_feature_columns(block.xs, block.ys, (0, len(block)), epsilon)
    return DPFeature(
        tuple(reps.tolist()),
        tuple(tuple(col[reps].tolist()) for col in (block.xs, block.ys)),
        tuple(tuple(col.tolist()) for col in boxes),
    )
