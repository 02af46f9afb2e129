"""Cleaning and segmentation operators for raw GPS streams."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.geometry.distance import haversine_km
from repro.model.trajectory import Trajectory


def _split_at(traj: Trajectory, cuts) -> list[Trajectory]:
    """``traj`` cut before each index in ``cuts``; the pieces of a cut
    trajectory are numbered ``<tid>#<i>``."""
    if not len(cuts):
        return [traj]
    bounds = [0, *cuts, len(traj)]
    return [
        Trajectory(traj.oid, f"{traj.tid}#{i}", traj.block[lo:hi])
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
    ]


def split_by_gap(traj: Trajectory, max_gap_seconds: float) -> list[Trajectory]:
    """Split a trajectory wherever consecutive fixes are far apart in time.

    Long gaps usually mean the device was off between two genuinely distinct
    trips; storing them as one trajectory would inflate its time bin.
    """
    if max_gap_seconds <= 0:
        raise ValueError(f"max_gap_seconds must be positive: {max_gap_seconds}")
    return _split_at(traj, np.flatnonzero(np.diff(traj.block.ts) > max_gap_seconds) + 1)


def cap_duration(traj: Trajectory, max_duration_seconds: float) -> list[Trajectory]:
    """Split a trajectory into chunks no longer than ``max_duration_seconds``.

    This enforces the TR index precondition that no time range exceeds
    ``N`` periods (§IV-A1).
    """
    if max_duration_seconds <= 0:
        raise ValueError(f"max_duration_seconds must be positive: {max_duration_seconds}")
    ts = traj.block.ts.tolist()
    cuts = []
    chunk_start = ts[0]
    for i, t in enumerate(ts):
        if t - chunk_start > max_duration_seconds:
            cuts.append(i)
            chunk_start = t
    return _split_at(traj, cuts)


def remove_speed_outliers(traj: Trajectory, max_speed_kmh: float) -> Trajectory:
    """Drop fixes that would require impossible travel speed to reach.

    Walks the sequence keeping a fix only when the speed from the last kept
    fix is feasible, which also discards bursts of noise after a bad fix.
    A trajectory is never emptied: the first fix is always kept.
    """
    if max_speed_kmh <= 0:
        raise ValueError(f"max_speed_kmh must be positive: {max_speed_kmh}")
    ts, xs, ys = (col.tolist() for col in traj.xy_arrays())
    kept = [0]
    for i in range(1, len(ts)):
        j = kept[-1]
        dt_h = (ts[i] - ts[j]) / 3600.0
        if dt_h <= 0:
            continue  # duplicate timestamp: keep the first fix only
        speed = haversine_km(xs[j], ys[j], xs[i], ys[i]) / dt_h
        if speed <= max_speed_kmh:
            kept.append(i)
    return Trajectory(traj.oid, traj.tid, traj.block[np.array(kept)])


@dataclass(frozen=True)
class Staypoint:
    """A dwell: the trajectory stayed within ``radius_km`` for ``duration``."""

    start_index: int
    end_index: int
    center_lng: float
    center_lat: float
    duration: float


def detect_staypoints(
    traj: Trajectory, radius_km: float, min_duration_seconds: float
) -> list[Staypoint]:
    """Classic staypoint detection (Li et al. / Zheng et al.).

    Greedy forward scan: anchor at point i, extend j while every point stays
    within ``radius_km`` of the anchor; if the dwell lasted at least
    ``min_duration_seconds``, emit a staypoint and restart after it.
    """
    if radius_km <= 0 or min_duration_seconds <= 0:
        raise ValueError("radius_km and min_duration_seconds must be positive")
    ts, xs, ys = (col.tolist() for col in traj.xy_arrays())
    out: list[Staypoint] = []
    i = 0
    n = len(ts)
    while i < n - 1:
        j = i + 1
        while j < n and haversine_km(xs[i], ys[i], xs[j], ys[j]) <= radius_km:
            j += 1
        duration = ts[j - 1] - ts[i]
        if j - 1 > i and duration >= min_duration_seconds:
            out.append(
                Staypoint(
                    start_index=i,
                    end_index=j - 1,
                    center_lng=sum(xs[i:j]) / (j - i),
                    center_lat=sum(ys[i:j]) / (j - i),
                    duration=duration,
                )
            )
            i = j
        else:
            i += 1
    return out


class PreprocessPipeline:
    """Composable cleaning pipeline producing index-ready trajectories.

    >>> pipeline = PreprocessPipeline(max_speed_kmh=200, max_gap_seconds=1800,
    ...                               max_duration_seconds=48 * 3600)
    >>> clean = pipeline.run(raw_trajectories)        # doctest: +SKIP
    """

    def __init__(
        self,
        max_speed_kmh: float = 200.0,
        max_gap_seconds: float = 1800.0,
        max_duration_seconds: float = 48 * 3600.0,
        min_points: int = 2,
    ):
        self.max_speed_kmh = max_speed_kmh
        self.max_gap_seconds = max_gap_seconds
        self.max_duration_seconds = max_duration_seconds
        self.min_points = min_points

    def run_one(self, traj: Trajectory) -> list[Trajectory]:
        """Preprocess a single trajectory into clean trips."""
        cleaned = remove_speed_outliers(traj, self.max_speed_kmh)
        out: list[Trajectory] = []
        for by_gap in split_by_gap(cleaned, self.max_gap_seconds):
            for chunk in cap_duration(by_gap, self.max_duration_seconds):
                if len(chunk) >= self.min_points:
                    out.append(chunk)
        return out

    def run(self, trajs: Iterable[Trajectory]) -> list[Trajectory]:
        """Preprocess an iterable of trajectories."""
        out: list[Trajectory] = []
        for traj in trajs:
            out.extend(self.run_one(traj))
        return out
