"""The paper's retrofit baselines: TMan's framework with baseline indexes.

Figures 17-19 compare *TMan-XZT* (TMan's storage + push-down with
TrajMesa's XZT temporal index) and *TMan-XZ* (same with XZ-ordering as the
spatial index).  These isolate the index structure from the architecture:
TMan-XZT vs TrajMesa shows the push-down gain, TMan vs TMan-XZT shows the
TR-index gain.  Their windows come from the same builders as TMan's
(``query.windows``) and are read by the same operators
(:func:`~benchmarks.comparators.common.scan_query`), so only the index differs.
"""

from __future__ import annotations

from typing import Sequence

from benchmarks.comparators.indexes.xz2 import XZ2Index
from benchmarks.comparators.indexes.xzt import XZTIndex
from repro.core.quadtree import QuadTreeGrid
from repro.model.mbr import MBR
from repro.model.timerange import TimeRange
from repro.model.trajectory import Trajectory
from repro.query.filters import SpatialFilter, TemporalFilter
from repro.query.types import QueryResult
from repro.query.windows import primary_windows_inclusive, primary_windows_u64
from benchmarks.comparators.common import SingleIndexStore


class TManXZT:
    """TMan's framework with the XZT temporal index (TRQ only)."""

    def __init__(
        self,
        xzt_period_seconds: float = 7 * 24 * 3600.0,
        max_level: int = 16,
        origin: float = 0.0,
        num_shards: int = 4,
        kv_workers: int = 4,
        push_down: bool = True,
    ):
        self.xzt = XZTIndex(xzt_period_seconds, max_level, origin)
        self._store = SingleIndexStore(
            "tman_xzt",
            index_value_fn=lambda t: self.xzt.index_time_range(t.time_range),
            num_shards=num_shards,
            kv_workers=kv_workers,
            push_down=push_down,
        )

    def bulk_load(self, trajs: Sequence[Trajectory]) -> int:
        """Load a batch of trajectories into the system."""
        return self._store.bulk_load(trajs)

    def temporal_range_query(self, time_range: TimeRange) -> QueryResult:
        """TRQ: trajectories whose time range intersects the window."""
        windows = primary_windows_inclusive(
            self._store.keys, self.xzt.query_ranges(time_range)
        )
        return self._store.run_windows(windows, TemporalFilter(time_range))

    def close(self) -> None:
        """Release the resources held by this object (idempotent)."""
        self._store.close()


class TManXZ:
    """TMan's framework with the XZ-ordering spatial index (SRQ / STRQ)."""

    def __init__(
        self,
        boundary: MBR,
        max_resolution: int = 16,
        num_shards: int = 4,
        kv_workers: int = 4,
        push_down: bool = True,
    ):
        self.grid = QuadTreeGrid(boundary, max_resolution)
        self.xz2 = XZ2Index(self.grid)
        self._store = SingleIndexStore(
            "tman_xz",
            index_value_fn=self.xz2.index_trajectory,
            num_shards=num_shards,
            kv_workers=kv_workers,
            push_down=push_down,
        )

    def bulk_load(self, trajs: Sequence[Trajectory]) -> int:
        """Load a batch of trajectories into the system."""
        return self._store.bulk_load(trajs)

    def spatial_range_query(self, window: MBR) -> QueryResult:
        """SRQ: trajectories intersecting the spatial window."""
        windows = primary_windows_u64(self._store.keys, self.xz2.query_ranges(window))
        return self._store.run_windows(
            windows, SpatialFilter(window, self._store.serializer)
        )

    def st_range_query(self, window: MBR, time_range: TimeRange) -> QueryResult:
        """STRQ: the conjunction of a spatial window and a time range."""
        windows = primary_windows_u64(self._store.keys, self.xz2.query_ranges(window))
        conjunction = TemporalFilter(time_range) & SpatialFilter(window, self._store.serializer)
        return self._store.run_windows(windows, conjunction)

    def close(self) -> None:
        """Release the resources held by this object (idempotent)."""
        self._store.close()
