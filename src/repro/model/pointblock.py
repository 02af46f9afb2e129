"""Columnar point storage: parallel numpy arrays with an STPoint view.

A :class:`PointBlock` holds one trajectory's fixes as three contiguous
float64 arrays (t, lng, lat).  Vectorized code — codecs, refinement
predicates, similarity kernels — reads the arrays directly; legacy code
that indexes or iterates still sees :class:`~repro.model.point.STPoint`
values, materialized lazily and at most once.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from repro.model.mbr import MBR
from repro.model.point import STPoint
from repro.model.timerange import TimeRange

# Rows store times as int64 milliseconds (compression.traj_codec.TIME_SCALE).
# Within 2^53 ms of the epoch that grid is exact, and every zigzagged
# delta-of-delta stays below 2^56, inside the row packer's 64-bit values
# (compression/bitpack.py) and int64 arithmetic.
MAX_ABS_TIME = 2**53 / 1000


class PointBlock(Sequence):
    """An immutable columnar sequence of spatio-temporal points.

    Indexing and iteration yield :class:`STPoint`, so a block is a drop-in
    replacement anywhere a point sequence is expected; the ``ts``/``xs``/
    ``ys`` arrays are the fast path.  The arrays are flagged read-only so
    the cached derived values (MBR, time range, point tuple) stay valid.
    The constructor only shapes the arrays; :meth:`check` is the one place
    that decides whether they can be a trajectory.
    """

    __slots__ = ("ts", "xs", "ys", "_points", "_mbr", "_time_range")

    def __init__(self, ts, xs, ys):
        ts = np.ascontiguousarray(ts, dtype=np.float64)
        xs = np.ascontiguousarray(xs, dtype=np.float64)
        ys = np.ascontiguousarray(ys, dtype=np.float64)
        if not (len(ts) == len(xs) == len(ys)):
            raise ValueError("parallel point arrays must have equal length")
        for arr in (ts, xs, ys):
            arr.flags.writeable = False
        self.ts = ts
        self.xs = xs
        self.ys = ys
        self._points: tuple[STPoint, ...] | None = None
        self._mbr: MBR | None = None
        self._time_range: TimeRange | None = None

    @classmethod
    def from_points(cls, points: Iterable[STPoint]) -> "PointBlock":
        """The columns of an STPoint sequence; a block, or a trajectory's
        block, is returned as is.

        The points are read once and not kept: the block materializes its
        own STPoint view only if someone asks for it.
        """
        block = getattr(points, "block", points)
        if isinstance(block, PointBlock):
            return block
        pts = points if isinstance(points, Sequence) else tuple(points)
        n = len(pts)
        ts = np.fromiter((p.t for p in pts), dtype=np.float64, count=n)
        xs = np.fromiter((p.lng for p in pts), dtype=np.float64, count=n)
        ys = np.fromiter((p.lat for p in pts), dtype=np.float64, count=n)
        return cls(ts, xs, ys)

    def check(self, name: str) -> None:
        """Raise ``ValueError`` naming ``name`` unless the block can be a
        trajectory: at least one fix, every value finite, coordinates on the
        globe and timestamps non-decreasing and within ``MAX_ABS_TIME``.
        Caches the MBR on the way."""
        ts, xs, ys = self.ts, self.xs, self.ys
        if not len(ts):
            raise ValueError(f"{name}: a trajectory needs at least one point")
        # NaN fails every comparison, so a NaN timestamp breaks the order
        # test and min/max carry a NaN coordinate into the range test
        if not (math.isfinite(ts[0]) and math.isfinite(ts[-1]) and self.is_time_ordered()):
            finite = np.isfinite(ts).all()
            raise ValueError(f"{name}: " + ("points not time-ordered" if finite
                                            else "non-finite timestamp"))
        if max(-ts[0], ts[-1]) > MAX_ABS_TIME:
            raise ValueError(f"{name}: timestamps {ts[0]}..{ts[-1]} s lie beyond "
                             f"±{MAX_ABS_TIME} s")
        x1, y1, x2, y2 = (float(v) for v in (xs.min(), ys.min(), xs.max(), ys.max()))
        if not (-180.0 <= x1 and x2 <= 180.0 and -90.0 <= y1 and y2 <= 90.0):
            raise ValueError(f"{name}: non-finite or out-of-range coordinates "
                             f"(lng {x1}..{x2}, lat {y1}..{y2})")
        self._mbr = MBR(x1, y1, x2, y2)

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.ts)

    def point(self, i: int) -> STPoint:
        """The i-th fix as an STPoint (no full materialization)."""
        return STPoint(float(self.ts[i]), float(self.xs[i]), float(self.ys[i]))

    def __getitem__(self, idx):
        """An int gives one STPoint; a slice, mask or index array a block."""
        if not isinstance(idx, (int, np.integer)):
            return PointBlock(self.ts[idx], self.xs[idx], self.ys[idx])
        if self._points is not None:
            return self._points[idx]
        return self.point(range(len(self))[idx])

    def __iter__(self) -> Iterator[STPoint]:
        return iter(self.to_points())

    def to_points(self) -> tuple[STPoint, ...]:
        """The full STPoint tuple, materialized once and cached."""
        if self._points is None:
            self._points = tuple(
                STPoint(t, x, y)
                for t, x, y in zip(self.ts.tolist(), self.xs.tolist(), self.ys.tolist())
            )
        return self._points

    # -- derived geometry --------------------------------------------------

    @property
    def mbr(self) -> MBR:
        if self._mbr is None:
            self._mbr = MBR(
                float(self.xs.min()), float(self.ys.min()),
                float(self.xs.max()), float(self.ys.max()),
            )
        return self._mbr

    @property
    def time_range(self) -> TimeRange:
        if self._time_range is None:
            self._time_range = TimeRange(float(self.ts[0]), float(self.ts[-1]))
        return self._time_range

    def is_time_ordered(self) -> bool:
        return len(self.ts) < 2 or bool((self.ts[1:] >= self.ts[:-1]).all())

    # -- equality ----------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PointBlock):
            return (
                np.array_equal(self.ts, other.ts)
                and np.array_equal(self.xs, other.xs)
                and np.array_equal(self.ys, other.ys)
            )
        if isinstance(other, (tuple, list)):
            return self.to_points() == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((len(self.ts), self.ts.tobytes(), self.xs.tobytes(),
                     self.ys.tobytes()))

    def __repr__(self) -> str:
        return f"PointBlock(n={len(self.ts)})"


PointsLike = Union[PointBlock, Sequence[STPoint]]


def coord_arrays(points: PointsLike) -> tuple[np.ndarray, np.ndarray]:
    """(lng, lat) float64 arrays for any point-sequence-like input.

    Accepts a PointBlock, a Trajectory (delegates to its block), or a plain
    STPoint sequence; vectorized kernels call this at their boundary so
    both decode paths share one math implementation.
    """
    block = PointBlock.from_points(points)
    return block.xs, block.ys
