"""Dynamic time warping distance, vectorized along antidiagonals.

Same diagonal-wavefront scheme as :mod:`repro.similarity.frechet`: one
point-distance matrix per call, and the band-constrained O(n·m) program
collapses to ``n + m - 1`` numpy slice steps over three reused
antidiagonal rows.  Out-of-band and off-grid
neighbors read as +inf because the cells just outside every diagonal's
rows (an empty diagonal's included) are reset each step, which reproduces
the reference implementation's borders exactly; the origin cell reads the
virtual ``D[-1, -1] = 0``, so its cost is just its own point distance.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.model.point import STPoint
from repro.model.pointblock import coord_arrays
from repro.similarity.frechet import antidiagonal, wavefront

_INF = float("inf")


def dtw_distance(
    a: Sequence[STPoint], b: Sequence[STPoint], window: Optional[int] = None
) -> float:
    """DTW distance (sum of matched point distances) with optional Sakoe-Chiba band.

    ``window`` constrains ``|i - j|`` which both speeds the computation and
    regularizes pathological alignments; ``None`` means unconstrained.
    """
    if not len(a) or not len(b):
        raise ValueError("DTW needs non-empty trajectories")
    ax, ay = coord_arrays(a)
    bx, by = coord_arrays(b)
    n, m = len(ax), len(bx)
    w = max(window, abs(n - m)) if window is not None else None
    dist, prev2, prev, cur = wavefront(ax, ay, bx, by)
    for k in range(n + m - 1):
        lo = max(0, k - m + 1)
        hi = min(k, n - 1)
        if w is not None:
            # band |i - j| <= w on the diagonal: i in [ceil((k-w)/2), floor((k+w)/2)]
            lo = max(lo, (k - w + 1) // 2)
            hi = min(hi, (k + w) // 2)
        if lo <= hi:
            c = cur[lo + 1 : hi + 2]
            np.minimum(prev[lo : hi + 1], prev[lo + 1 : hi + 2], out=c)  # D[i-1, j], D[i, j-1]
            np.minimum(c, prev2[lo : hi + 1], out=c)                     # D[i-1, j-1]
            np.add(antidiagonal(dist, m, k, lo, hi), c, out=c)
        cur[lo] = cur[hi + 2] = _INF
        prev2, prev, cur = prev, cur, prev2
    return float(prev[n])
