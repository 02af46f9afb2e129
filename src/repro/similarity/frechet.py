"""Discrete Fréchet distance, vectorized along antidiagonals.

Cells of antidiagonal ``k`` (all ``(i, j)`` with ``i + j = k``) depend only
on antidiagonals ``k-1`` and ``k-2``, so the O(n·m) dynamic program runs in
``n + m - 1`` python iterations whose bodies are numpy slice operations.
Per-cell arithmetic (``max(d, min(up, left, diag))``) is order-independent,
so results are bit-identical to the row-by-row reference implementation.

The three live antidiagonals are rows of one reused ``(3, n + 2)`` buffer:
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


def wavefront(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Rolling buffers for an ``n``-row wavefront: diagonals ``k-2``, ``k-1``
    and ``k`` (+inf, except the virtual ``D[-1, -1] = 0`` that seeds the
    origin cell), and two length-``n`` scratch rows for the distances."""
    prev2, prev, cur = np.full((3, n + 2), _INF)
    prev2[0] = 0.0
    dx, dy = np.empty((2, n))
    return prev2, prev, cur, dx, dy


def frechet_distance(a: Sequence[STPoint], b: Sequence[STPoint]) -> float:
    """Discrete Fréchet distance between two trajectories (planar degrees).

    Dynamic program over the coupling matrix:
    ``D[i,j] = max(d(a_i, b_j), min(D[i-1,j], D[i,j-1], D[i-1,j-1]))``.
    O(|a|·|b|) time, O(|a| + |b|) memory.
    """
    if not len(a) or not len(b):
        raise ValueError("Fréchet distance needs non-empty trajectories")
    ax, ay = coord_arrays(a)
    bx, by = coord_arrays(b)
    n, m = len(ax), len(bx)
    # Reversed b columns turn each antidiagonal into two contiguous slices.
    bxr = bx[::-1]
    byr = by[::-1]

    prev2, prev, cur, dx, dy = wavefront(n)
    for k in range(n + m - 1):
        lo = max(0, k - m + 1)
        hi = min(k, n - 1)
        off = m - 1 - k
        c = cur[lo + 1 : hi + 2]
        d = dx[: hi - lo + 1]
        np.subtract(ax[lo : hi + 1], bxr[off + lo : off + hi + 1], out=d)
        np.subtract(ay[lo : hi + 1], byr[off + lo : off + hi + 1], out=dy[: hi - lo + 1])
        np.hypot(d, dy[: hi - lo + 1], out=d)
        np.minimum(prev[lo : hi + 1], prev[lo + 1 : hi + 2], out=c)  # D[i-1, j], D[i, j-1]
        np.minimum(c, prev2[lo : hi + 1], out=c)                     # D[i-1, j-1]
        np.maximum(d, c, out=c)
        cur[lo] = cur[hi + 2] = _INF
        prev2, prev, cur = prev, cur, prev2
    return float(prev[n])
