"""Discrete Fréchet distance, vectorized along antidiagonals.

Cells of antidiagonal ``k`` (all ``(i, j)`` with ``i + j = k``) depend only
on antidiagonals ``k-1`` and ``k-2``, so the O(n·m) dynamic program runs in
``n + m - 1`` python iterations whose bodies are numpy slice operations.
Per-cell arithmetic (``max(d, min(up, left, diag))``) is order-independent,
so results are bit-identical to the row-by-row reference implementation.

Every cell's point distance comes from one ``np.hypot`` over broadcast
coordinate differences, with ``b`` reversed: cell ``(i, j)`` then sits at
flat offset ``i·(m + 1) + m - 1 - k`` of the ``n × m`` matrix, so
antidiagonal ``k`` is one strided slice of it (:func:`antidiagonal`), and
each cell is the same hypot of the same operands as in the reference.  The
three live antidiagonals are rows of one reused ``(3, n + 2)`` buffer:
slot ``i + 1`` holds row ``i``, so the neighbours of rows ``lo..hi`` are
plain slices, and the cells just outside each diagonal's rows are reset to
+inf every step, which makes every border fall out of the generic
recurrence.  :mod:`repro.similarity.dtw` runs the same wavefront.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.model.point import STPoint
from repro.model.pointblock import coord_arrays

_INF = float("inf")


def wavefront(ax, ay, bx, by) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The flat ``n × m`` point-distance matrix of ``a`` against reversed ``b``,
    and rolling buffers for diagonals ``k-2``, ``k-1`` and ``k`` (+inf,
    except the virtual ``D[-1, -1] = 0`` that seeds the origin cell)."""
    dist = np.hypot(ax[:, None] - bx[None, ::-1], ay[:, None] - by[None, ::-1]).ravel()
    prev2, prev, cur = np.full((3, len(ax) + 2), _INF)
    prev2[0] = 0.0
    return dist, prev2, prev, cur


def antidiagonal(dist: np.ndarray, m: int, k: int, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo..hi`` of antidiagonal ``k`` of :func:`wavefront`'s matrix."""
    start = m - 1 - k + lo * (m + 1)
    return dist[start : start + (hi - lo) * (m + 1) + 1 : m + 1]


def frechet_distance(a: Sequence[STPoint], b: Sequence[STPoint]) -> float:
    """Discrete Fréchet distance between two trajectories (planar degrees).

    Dynamic program over the coupling matrix:
    ``D[i,j] = max(d(a_i, b_j), min(D[i-1,j], D[i,j-1], D[i-1,j-1]))``.
    O(|a|·|b|) time and memory.
    """
    if not len(a) or not len(b):
        raise ValueError("Fréchet distance needs non-empty trajectories")
    ax, ay = coord_arrays(a)
    bx, by = coord_arrays(b)
    n, m = len(ax), len(bx)
    dist, prev2, prev, cur = wavefront(ax, ay, bx, by)
    for k in range(n + m - 1):
        lo = max(0, k - m + 1)
        hi = min(k, n - 1)
        c = cur[lo + 1 : hi + 2]
        np.minimum(prev[lo : hi + 1], prev[lo + 1 : hi + 2], out=c)  # D[i-1, j], D[i, j-1]
        np.minimum(c, prev2[lo : hi + 1], out=c)                     # D[i-1, j-1]
        np.maximum(antidiagonal(dist, m, k, lo, hi), c, out=c)
        cur[lo] = cur[hi + 2] = _INF
        prev2, prev, cur = prev, cur, prev2
    return float(prev[n])
