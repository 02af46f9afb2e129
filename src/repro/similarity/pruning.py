"""Distance bounds for similarity-query pruning.

The TraSS pipeline (adopted by TMan) never computes an exact distance unless
cheap bounds fail to decide a candidate:

1. *Global pruning* — the spatial index only returns candidates whose index
   space intersects the query trajectory's MBR expanded by the threshold;
   :func:`mbr_lower_bound` is the underlying bound.
2. *Local filter* — DP-features stored in the row give tighter bounds:
   :func:`dp_lower_bound` (candidate cannot be within θ) and
   :func:`dp_upper_bound` (candidate certainly within θ).

Soundness notes (see the tests, which verify these empirically):

- Fréchet and Hausdorff distances are bounded below by the directed bound
  ``max over a in A of min-distance(a, boxes)`` for any set of boxes whose
  union holds every point of B, because every point of A is matched/measured
  against some point of B.  DTW (a sum over a warping path, which visits
  every row of A at least once) is bounded below by the *sum* of the same
  per-point bounds.  :func:`boxes_lower_bound` is that bound; the header
  rung feeds it B's MBR as one box, the feature rung B's span boxes
  (:func:`dp_lower_bound`).
- Fréchet and DTW couple first point with first point and last with last,
  so the two endpoint distances bound them below: their max for Fréchet,
  their sum for DTW (one term when both sides are a single point, whose
  one cell is both ends).  This is the UCR suite's LB_Kim (Rakthanmanon et
  al., KDD 2012).  :func:`endpoint_lower_bound` reads B's ends off its
  first and last DP representatives, which rows store on the point
  grid, so they equal the decoded points bit for bit; the distances use
  the kernels' own ``np.hypot``, so a bound never exceeds the exact value
  it stands in for, ties included.  Hausdorff has no endpoint bound.
- Upper bounds evaluate the exact measure on B's representative points
  (a subsequence of B) and add the largest span-box diameter, which bounds
  how far any raw point strays from its nearest representative.

The box bound is computed as one points × boxes distance matrix over the
columnar coordinate arrays, so a candidate's bound costs a few numpy passes
instead of ``|A| · |boxes|`` python iterations.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.geometry.dp import DPFeature
from repro.model.mbr import MBR
from repro.model.point import STPoint
from repro.model.pointblock import PointBlock, coord_arrays


def mbr_lower_bound(a: MBR, b: MBR) -> float:
    """Minimum possible point-pair distance between two MBRs.

    A valid lower bound for Fréchet, Hausdorff, and DTW (any measure that is
    at least the distance of one matched pair).
    """
    return a.min_distance(b)


def boxes_lower_bound(
    points_a: Sequence[STPoint], boxes: Sequence[Sequence[float]], aggregate: str = "max"
) -> float:
    """Directed lower bound from raw points A to any B inside ``boxes``.

    ``boxes`` are the columns ``(x1, y1, x2, y2)`` of boxes whose union
    holds every point of B (four numbers for one box).  ``aggregate='max'`` bounds max-style measures
    (Fréchet, Hausdorff); ``aggregate='sum'`` bounds DTW.
    """
    if aggregate not in ("max", "sum"):
        raise ValueError(f"aggregate must be 'max' or 'sum', got {aggregate!r}")
    xs, ys = coord_arrays(points_a)
    x1, y1, x2, y2 = (np.asarray(col, dtype=np.float64) for col in boxes)
    xc, yc = xs[:, None], ys[:, None]
    dx = np.maximum(x1 - xc, xc - x2)
    dy = np.maximum(y1 - yc, yc - y2)
    np.maximum(dx, 0.0, out=dx)
    np.maximum(dy, 0.0, out=dy)
    per_point = np.hypot(dx, dy, out=dx).min(axis=1)
    return float(per_point.max()) if aggregate == "max" else float(per_point.sum())


def dp_lower_bound(
    points_a: Sequence[STPoint], feature_b: DPFeature, aggregate: str = "max"
) -> float:
    """Directed DP-feature lower bound: :func:`boxes_lower_bound` over B's
    span boxes."""
    return boxes_lower_bound(points_a, feature_b.box_arrays, aggregate)


def endpoint_lower_bound(
    points_a: Sequence[STPoint], feature_b: DPFeature, aggregate: str = "max"
) -> float:
    """Lower bound from the first and last couplings alone (Fréchet: ``max``,
    DTW: ``sum``), with B's ends taken from its DP representatives."""
    xs, ys = coord_arrays(points_a)
    rep_xs, rep_ys = feature_b.rep_columns
    first, last = np.hypot(
        (xs[0] - rep_xs[0], xs[-1] - rep_xs[-1]), (ys[0] - rep_ys[0], ys[-1] - rep_ys[-1])
    ).tolist()
    if aggregate == "max":
        return max(first, last)
    # Both sides one point: a single cell, counted once.
    return first if len(xs) == 1 and feature_b.rep_indexes[-1] == 0 else first + last


def _max_span_diameter(feature: DPFeature) -> float:
    """Largest diameter among spans that actually dropped interior points.

    A span with no interior raw points contributes no approximation error,
    so the bound stays tight when the representatives are the whole
    trajectory.
    """
    idx = feature.rep_indexes
    worst = 0.0
    for lo, hi, x1, y1, x2, y2 in zip(idx, idx[1:], *feature.box_columns):
        if hi > lo + 1:
            worst = max(worst, math.hypot(x2 - x1, y2 - y1))
    return worst


def dp_upper_bound(
    points_a: Sequence[STPoint],
    feature_b: DPFeature,
    distance_fn: Callable[[Sequence[STPoint], Sequence[STPoint]], float],
) -> float:
    """Upper bound: exact measure against B's representatives plus slack.

    Valid for Fréchet and Hausdorff: raw points of B are within the largest
    span-box diameter of some representative, so any coupling through the
    representatives extends to the raw sequence with at most that much extra
    distance per pair.
    """
    # the measures are planar: the representatives' timestamps never matter
    reps = PointBlock(feature_b.rep_indexes, *feature_b.rep_columns)
    return distance_fn(points_a, reps) + _max_span_diameter(feature_b)
