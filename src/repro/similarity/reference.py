"""Seed (pre-columnar) similarity kernels, kept as the correctness oracle.

These are the original row-by-row dynamic programs with python inner loops.
The vectorized kernels in :mod:`repro.similarity.frechet` / ``dtw`` must
return bit-identical values (the per-cell operations are the same floats,
just evaluated along antidiagonals); ``tests/test_similarity_measures.py``
holds them to that.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.model.point import STPoint


def frechet_reference(a: Sequence[STPoint], b: Sequence[STPoint]) -> float:
    """Discrete Fréchet distance, O(|b|) memory, python inner loop."""
    if not len(a) or not len(b):
        raise ValueError("Fréchet distance needs non-empty trajectories")
    ax = np.array([p.lng for p in a])
    ay = np.array([p.lat for p in a])
    bx = np.array([p.lng for p in b])
    by = np.array([p.lat for p in b])

    prev = None
    for i in range(len(a)):
        dist_row = np.hypot(ax[i] - bx, ay[i] - by)
        cur = np.empty(len(b))
        if prev is None:
            cur[0] = dist_row[0]
            for j in range(1, len(b)):
                cur[j] = max(cur[j - 1], dist_row[j])
        else:
            cur[0] = max(prev[0], dist_row[0])
            for j in range(1, len(b)):
                reach = min(prev[j], cur[j - 1], prev[j - 1])
                cur[j] = max(reach, dist_row[j])
        prev = cur
    return float(prev[-1])


def dtw_reference(
    a: Sequence[STPoint], b: Sequence[STPoint], window: Optional[int] = None
) -> float:
    """DTW with optional Sakoe-Chiba band, python inner loop."""
    if not len(a) or not len(b):
        raise ValueError("DTW needs non-empty trajectories")
    n, m = len(a), len(b)
    ax = np.array([p.lng for p in a])
    ay = np.array([p.lat for p in a])
    bx = np.array([p.lng for p in b])
    by = np.array([p.lat for p in b])

    w = max(window, abs(n - m)) if window is not None else None
    inf = float("inf")
    prev = np.full(m + 1, inf)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = np.full(m + 1, inf)
        dist_row = np.hypot(ax[i - 1] - bx, ay[i - 1] - by)
        lo = 1 if w is None else max(1, i - w)
        hi = m if w is None else min(m, i + w)
        for j in range(lo, hi + 1):
            best = min(prev[j], cur[j - 1], prev[j - 1])
            cur[j] = dist_row[j - 1] + best
        prev = cur
    return float(prev[m])


def hausdorff_reference(a: Sequence[STPoint], b: Sequence[STPoint]) -> float:
    """Symmetric Hausdorff from per-point object arrays."""
    if not len(a) or not len(b):
        raise ValueError("Hausdorff distance needs non-empty trajectories")
    pa = np.array([[p.lng, p.lat] for p in a])
    pb = np.array([[p.lng, p.lat] for p in b])
    diff = pa[:, None, :] - pb[None, :, :]
    d = np.hypot(diff[..., 0], diff[..., 1])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))
