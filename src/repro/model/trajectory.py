"""Trajectories: time-ordered sequences of spatio-temporal points."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.model.mbr import MBR
from repro.model.point import STPoint
from repro.model.pointblock import PointBlock, PointsLike
from repro.model.timerange import TimeRange


class Trajectory:
    """A trajectory is an immutable, time-ordered point sequence with identity.

    ``oid`` identifies the moving object (e.g., a taxi), ``tid`` identifies
    this particular trip of that object.  The fixes live in one columnar
    :class:`PointBlock`, which also caches the MBR and time range the index
    layer asks for repeatedly.  An :class:`STPoint` sequence passed in is
    converted once and not kept; :attr:`points` is a lazy STPoint view for
    code that walks fixes one at a time.

    ``validate=False`` skips :meth:`PointBlock.check`; only the row decoder
    passes it, for blocks that were checked before they were encoded.
    """

    __slots__ = ("oid", "tid", "_block")

    def __init__(self, oid: str, tid: str, points: PointsLike,
                 validate: bool = True):
        block = PointBlock.from_points(points)
        if validate:
            block.check(f"trajectory {tid}")
        self.oid = oid
        self.tid = tid
        self._block = block

    @property
    def points(self) -> tuple[STPoint, ...]:
        """The fixes as STPoint values (materialized on first use, cached
        on the block)."""
        return self._block.to_points()

    @property
    def block(self) -> PointBlock:
        """The trajectory's columnar representation."""
        return self._block

    @property
    def mbr(self) -> MBR:
        """The tight bounding rectangle of the trajectory's points."""
        return self._block.mbr

    @property
    def time_range(self) -> TimeRange:
        """The closed interval from the first to the last fix."""
        return self._block.time_range

    @property
    def start(self) -> STPoint:
        """The first fix."""
        return self._block[0]

    @property
    def end(self) -> STPoint:
        """The last fix."""
        return self._block[-1]

    def __len__(self) -> int:
        return len(self._block)

    def __iter__(self) -> Iterator[STPoint]:
        return iter(self._block)

    def __getitem__(self, idx: int) -> STPoint:
        return self._block[idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return (self.oid == other.oid and self.tid == other.tid
                and self._block == other._block)

    def __hash__(self) -> int:
        return hash((self.oid, self.tid, len(self), self.start))

    def __repr__(self) -> str:
        return (
            f"Trajectory(oid={self.oid!r}, tid={self.tid!r}, "
            f"n={len(self)}, tr=[{self.time_range.start:.0f},"
            f"{self.time_range.end:.0f}])"
        )

    def segments(self) -> Iterator[tuple[STPoint, STPoint]]:
        """Yield consecutive point pairs (the trajectory's line segments)."""
        pts = self.points
        return zip(pts, pts[1:])

    def xy_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Parallel (t, lng, lat) float64 arrays — the codec's native layout."""
        block = self._block
        return block.ts, block.xs, block.ys

    def shifted(self, dt: float = 0.0, dlng: float = 0.0, dlat: float = 0.0,
                oid: str | None = None, tid: str | None = None) -> "Trajectory":
        """Return a space/time-offset copy (dataset replication uses this)."""
        block = self._block
        return Trajectory(
            oid if oid is not None else self.oid,
            tid if tid is not None else self.tid,
            PointBlock(block.ts + dt, block.xs + dlng, block.ys + dlat),
        )
