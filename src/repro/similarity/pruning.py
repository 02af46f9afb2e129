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
  ``max over a in A of min-distance(a, B's span boxes)`` because every point
  of A is matched/measured against some raw point of B, and every raw point
  of B lies inside one of its span boxes.
- DTW (a sum) is bounded below by the *sum* of the same per-point bounds.
- Upper bounds evaluate the exact measure on B's representative points
  (a subsequence of B) and add the largest span-box diameter, which bounds
  how far any raw point strays from its nearest representative.

The lower bound is computed as one points × span-boxes distance matrix over
the columnar coordinate arrays, so a candidate's local filter costs a few
numpy passes instead of ``|A| · |boxes|`` python iterations.
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


def dp_lower_bound(
    points_a: Sequence[STPoint], feature_b: DPFeature, aggregate: str = "max"
) -> float:
    """Directed DP-feature lower bound from raw points A to feature of B.

    ``aggregate='max'`` bounds max-style measures (Fréchet, Hausdorff);
    ``aggregate='sum'`` bounds DTW.
    """
    if aggregate not in ("max", "sum"):
        raise ValueError(f"aggregate must be 'max' or 'sum', got {aggregate!r}")
    xs, ys = coord_arrays(points_a)
    bx1, by1, bx2, by2 = feature_b.box_arrays
    dx = np.maximum(
        np.maximum(bx1[None, :] - xs[:, None], xs[:, None] - bx2[None, :]), 0.0
    )
    dy = np.maximum(
        np.maximum(by1[None, :] - ys[:, None], ys[:, None] - by2[None, :]), 0.0
    )
    per_point = np.hypot(dx, dy).min(axis=1)
    return float(per_point.max()) if aggregate == "max" else float(per_point.sum())


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
    reps = PointBlock(*feature_b.rep_columns, validate=False)
    return distance_fn(points_a, reps) + _max_span_diameter(feature_b)
