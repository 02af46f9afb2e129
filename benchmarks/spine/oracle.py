"""Brute-force reference answers: naive scans of the raw trajectories.

No index, no store, and none of the program's geometry or similarity code:
every answer is recomputed from the generated points, so a bug shared by the
program's fast and slow paths still shows.  The live set is mutable
(``insert``/``delete``) so the mixed workload can be checked after each write.

The program stores coordinates on a 1e-7 degree grid, so an answer that
hinges on less than ``TOL`` is accepted either way: range checks return a
``(must, may)`` pair of tid sets and a result is right when
``must <= result <= may``; distances are compared within ``TOL``.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

TOL = 1e-6


class Oracle:
    """All trajectories that may ever be live, with an ``alive`` mask."""

    def __init__(self, universe: Sequence, live: Iterable = ()):
        self.trajs = list(universe)
        self.row = {t.tid: i for i, t in enumerate(self.trajs)}
        n = len(self.trajs)
        self.t0 = np.array([t.time_range.start for t in self.trajs])
        self.t1 = np.array([t.time_range.end for t in self.trajs])
        self.x1 = np.array([t.mbr.x1 for t in self.trajs])
        self.y1 = np.array([t.mbr.y1 for t in self.trajs])
        self.x2 = np.array([t.mbr.x2 for t in self.trajs])
        self.y2 = np.array([t.mbr.y2 for t in self.trajs])
        self.oids = np.array([t.oid for t in self.trajs])
        self.xy = [(t.xy_arrays()[1], t.xy_arrays()[2]) for t in self.trajs]
        self.alive = np.zeros(n, dtype=bool)
        self.insert(live)

    # -- the live set ----------------------------------------------------------

    def insert(self, trajs: Iterable) -> None:
        for t in trajs:
            self.alive[self.row[t.tid]] = True

    def delete(self, traj) -> None:
        self.alive[self.row[traj.tid]] = False

    def live_tids(self) -> set[str]:
        return {self.trajs[i].tid for i in np.flatnonzero(self.alive)}

    def live_points(self) -> int:
        return int(sum(len(self.trajs[i]) for i in np.flatnonzero(self.alive)))

    def _tids(self, mask) -> set[str]:
        return {self.trajs[i].tid for i in np.flatnonzero(mask)}

    # -- range queries -----------------------------------------------------------

    def _time_mask(self, tr):
        # Row headers keep full-precision time ranges: this one is exact.
        return self.alive & (self.t0 <= tr.end) & (tr.start <= self.t1)

    def trq(self, tr) -> tuple[set[str], set[str]]:
        tids = self._tids(self._time_mask(tr))
        return tids, tids

    def idt(self, oid: str, tr) -> tuple[set[str], set[str]]:
        tids = self._tids(self._time_mask(tr) & (self.oids == oid))
        return tids, tids

    def _space(self, window, base_mask) -> tuple[set[str], set[str]]:
        wx1, wy1, wx2, wy2 = window.x1, window.y1, window.x2, window.y2
        near = base_mask & (
            (self.x1 <= wx2 + TOL) & (self.x2 >= wx1 - TOL)
            & (self.y1 <= wy2 + TOL) & (self.y2 >= wy1 - TOL)
        )
        must, may = set(), set()
        for i in np.flatnonzero(near):
            xs, ys = self.xy[i]
            if _polyline_hits_rect(xs, ys, wx1 - TOL, wy1 - TOL, wx2 + TOL, wy2 + TOL):
                tid = self.trajs[i].tid
                may.add(tid)
                if _polyline_hits_rect(xs, ys, wx1 + TOL, wy1 + TOL, wx2 - TOL, wy2 - TOL):
                    must.add(tid)
        return must, may

    def srq(self, window) -> tuple[set[str], set[str]]:
        return self._space(window, self.alive)

    def strq(self, window, tr) -> tuple[set[str], set[str]]:
        return self._space(window, self._time_mask(tr))

    # -- similarity ----------------------------------------------------------------

    def _frechet_lower_bounds(self, query) -> np.ndarray:
        """A bound no pair can beat: the endpoints must be matched to each other,
        and every matched pair is at least the gap between the two MBRs apart."""
        qx, qy = query.xy_arrays()[1], query.xy_arrays()[2]
        sx = np.array([xy[0][0] for xy in self.xy])
        sy = np.array([xy[1][0] for xy in self.xy])
        ex = np.array([xy[0][-1] for xy in self.xy])
        ey = np.array([xy[1][-1] for xy in self.xy])
        ends = np.maximum(
            np.hypot(sx - qx[0], sy - qy[0]), np.hypot(ex - qx[-1], ey - qy[-1])
        )
        m = query.mbr
        gap_x = np.maximum(0.0, np.maximum(self.x1 - m.x2, m.x1 - self.x2))
        gap_y = np.maximum(0.0, np.maximum(self.y1 - m.y2, m.y1 - self.y2))
        return np.maximum(ends, np.hypot(gap_x, gap_y))

    def frechet_to(self, query, tid: str) -> float:
        xs, ys = self.xy[self.row[tid]]
        return discrete_frechet(query.xy_arrays()[1], query.xy_arrays()[2], xs, ys)

    def threshold(self, query, theta: float) -> tuple[set[str], set[str]]:
        bounds = self._frechet_lower_bounds(query)
        must, may = set(), set()
        for i in np.flatnonzero(self.alive & (bounds <= theta + TOL)):
            tid = self.trajs[i].tid
            if tid == query.tid:
                continue
            d = self.frechet_to(query, tid)
            if d <= theta + TOL:
                may.add(tid)
                if d <= theta - TOL:
                    must.add(tid)
        return must, may

    def topk_kth(self, query, k: int) -> tuple[float, int]:
        """The k-th smallest Fréchet distance to a live trajectory other than
        the query, and how many such trajectories exist.  Candidates are
        visited in lower-bound order and the scan stops once the bound alone
        exceeds the k-th best exact distance found."""
        bounds = self._frechet_lower_bounds(query)
        order = [i for i in np.argsort(bounds, kind="stable")
                 if self.alive[i] and self.trajs[i].tid != query.tid]
        best: list[float] = []
        for i in order:
            if len(best) >= k and bounds[i] > best[k - 1]:
                break
            best.append(self.frechet_to(query, self.trajs[i].tid))
            best.sort()
            del best[k:]
        return (best[min(k, len(best)) - 1] if best else math.inf), len(order)

    def point_distance(self, x: float, y: float, tid: str) -> float:
        xs, ys = self.xy[self.row[tid]]
        return _point_to_polyline(x, y, xs, ys)

    def knn_kth(self, x: float, y: float, k: int) -> tuple[float, int]:
        dists = sorted(
            _point_to_polyline(x, y, *self.xy[i]) for i in np.flatnonzero(self.alive)
        )
        return (dists[min(k, len(dists)) - 1] if dists else math.inf), len(dists)


# -- naive geometry ---------------------------------------------------------------


def _segment_hits_rect(ax, ay, bx, by, x1, y1, x2, y2) -> bool:
    """Liang-Barsky clip of a closed segment against a closed rectangle."""
    lo, hi = 0.0, 1.0
    dx, dy = bx - ax, by - ay
    for p, q in ((-dx, ax - x1), (dx, x2 - ax), (-dy, ay - y1), (dy, y2 - ay)):
        if p == 0.0:
            if q < 0.0:
                return False
            continue
        r = q / p
        if p < 0.0:
            if r > hi:
                return False
            lo = max(lo, r)
        else:
            if r < lo:
                return False
            hi = min(hi, r)
    return True


def _polyline_hits_rect(xs, ys, x1, y1, x2, y2) -> bool:
    if x2 < x1 or y2 < y1:
        return False
    xs, ys = xs.tolist(), ys.tolist()
    if len(xs) == 1:
        return x1 <= xs[0] <= x2 and y1 <= ys[0] <= y2
    return any(
        _segment_hits_rect(xs[i], ys[i], xs[i + 1], ys[i + 1], x1, y1, x2, y2)
        for i in range(len(xs) - 1)
    )


def _point_to_polyline(px, py, xs, ys) -> float:
    xs, ys = xs.tolist(), ys.tolist()
    if len(xs) == 1:
        return math.hypot(px - xs[0], py - ys[0])
    best = math.inf
    for i in range(len(xs) - 1):
        ax, ay, bx, by = xs[i], ys[i], xs[i + 1], ys[i + 1]
        dx, dy = bx - ax, by - ay
        norm = dx * dx + dy * dy
        t = 0.0 if norm == 0.0 else max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / norm))
        best = min(best, math.hypot(px - (ax + t * dx), py - (ay + t * dy)))
    return best


def discrete_frechet(ax, ay, bx, by) -> float:
    """The textbook O(nm) coupling-distance recurrence."""
    d = np.hypot(ax[:, None] - bx[None, :], ay[:, None] - by[None, :]).tolist()
    n, m = len(d), len(d[0])
    prev = [0.0] * m
    for i in range(n):
        row = d[i]
        cur = [0.0] * m
        for j in range(m):
            if i == 0 and j == 0:
                reach = row[0]
            elif i == 0:
                reach = cur[j - 1]
            elif j == 0:
                reach = prev[0]
            else:
                reach = min(prev[j], cur[j - 1], prev[j - 1])
            cur[j] = max(reach, row[j])
        prev = cur
    return prev[-1]
