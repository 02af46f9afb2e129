"""VRE-style segment start-time indexing.

VRE splits trajectories into duration-``d`` segments and indexes each
segment by its start time only.  A temporal range query ``[ts, te]`` must
therefore inspect every segment starting in ``[floor(ts/d)*d, te]`` — the
window the paper's Figure 1(a) illustrates — and reassemble whole
trajectories from matching segments afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.model.timerange import TimeRange
from repro.model.trajectory import Trajectory


def slice_time(traj: Trajectory, tr: TimeRange) -> Trajectory | None:
    """The sub-trajectory whose fixes fall inside ``tr``, or ``None`` when
    no fix does."""
    ts = traj.block.ts
    inside = (tr.start <= ts) & (ts <= tr.end)
    if not inside.any():
        return None
    return Trajectory(traj.oid, traj.tid, traj.block[inside])


@dataclass(frozen=True)
class StartTimeSegmentIndex:
    """Maps trajectories to start-time-indexed segments and plans queries."""

    segment_seconds: float
    origin: float = 0.0

    def __post_init__(self) -> None:
        if self.segment_seconds <= 0:
            raise ValueError(f"segment_seconds must be positive: {self.segment_seconds}")

    def split(self, traj: Trajectory) -> list[Trajectory]:
        """Cut a trajectory into duration-``d`` segments (point-preserving).

        Segment boundaries follow the global grid so that two overlapping
        trajectories produce aligned segments.
        """
        d = self.segment_seconds
        first = math.floor((traj.time_range.start - self.origin) / d)
        last = math.floor((traj.time_range.end - self.origin) / d)
        segments: list[Trajectory] = []
        for b in range(first, last + 1):
            lo = self.origin + b * d
            span = TimeRange(lo, lo + d - 1e-9)
            part = slice_time(traj, span)
            if part is not None:
                segments.append(part)
        return segments

    def segment_key(self, segment: Trajectory) -> float:
        """The indexed attribute: the segment's start time."""
        return segment.time_range.start

    def query_window(self, tr: TimeRange) -> TimeRange:
        """Start-time window to scan: ``[floor(ts/d)*d, te]`` (Fig. 1a)."""
        d = self.segment_seconds
        lo = self.origin + math.floor((tr.start - self.origin) / d) * d
        return TimeRange(lo, tr.end)
