"""TrajMesa baseline: multi-index-table storage, client-side filtering.

TrajMesa (TKDE'21 / ICDE'20) stores each trajectory *once per index table*:
an XZT-keyed temporal table, an XZ2-keyed spatial table, a composite
(time-period :: XZ2) spatio-temporal table, and an id table — the storage
redundancy §II-3 of the paper criticizes.  Filters are evaluated client-side
(every candidate row is transferred), which is what the TMan-XZT/TMan-XZ
retrofits then improve via push-down.  Its tables are read through TMan's
query operators (:func:`~benchmarks.comparators.common.scan_query`, never with
push-down), so its costs differ from TMan's by index and storage layout
alone.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional, Sequence

from benchmarks.comparators.common import scan_query
from benchmarks.comparators.indexes.xz2 import XZ2Index
from benchmarks.comparators.indexes.xzt import XZTIndex
from repro.core.quadtree import QuadTreeGrid
from repro.kvstore.cluster import Cluster
from repro.kvstore.filters import Filter
from repro.model.mbr import MBR
from repro.model.timerange import TimeRange
from repro.model.trajectory import Trajectory
from repro.query.filters import SpatialFilter, TemporalFilter
from repro.query.operators import Decode, Operator
from repro.query.types import QueryResult
from repro.query.windows import primary_windows_inclusive, primary_windows_u64
from repro.similarity.measures import distance_by_name
from repro.similarity.pruning import mbr_lower_bound
from repro.storage.schema import SEPARATOR, RowKeyCodec, encode_u64
from repro.storage.serializer import RowSerializer

DEFAULT_ST_PERIOD = 7 * 24 * 3600.0  # TrajMesa's coarse time slice (one week)


class TrajMesa:
    """A TrajMesa deployment over its own embedded cluster."""

    def __init__(
        self,
        boundary: MBR,
        max_resolution: int = 16,
        xzt_period_seconds: float = 7 * 24 * 3600.0,
        st_period_seconds: float = DEFAULT_ST_PERIOD,
        origin: float = 0.0,
        num_shards: int = 4,
        kv_workers: int = 4,
    ):
        self.grid = QuadTreeGrid(boundary, max_resolution)
        self.xzt = XZTIndex(xzt_period_seconds, 16, origin)
        self.xz2 = XZ2Index(self.grid)
        self.st_period_seconds = st_period_seconds
        self.origin = origin

        self.cluster = Cluster(workers=kv_workers)
        self.keys = RowKeyCodec(num_shards, index_width=8)
        self.serializer = RowSerializer()
        self.temporal_table = self.cluster.create_table("tm_temporal")
        self.spatial_table = self.cluster.create_table("tm_spatial")
        self.st_table = self.cluster.create_table("tm_st")
        self.id_table = self.cluster.create_table("tm_id")
        self.row_count = 0

    def close(self) -> None:
        """Release the resources held by this object (idempotent)."""
        self.cluster.close()

    # -- writes -------------------------------------------------------------

    def _st_key(self, period: int, xz2_value: int, tid: str) -> bytes:
        return encode_u64(period) + encode_u64(xz2_value) + SEPARATOR + tid.encode("utf-8")

    def bulk_load(self, trajs: Sequence[Trajectory]) -> int:
        """Write every trajectory into all four index tables (redundantly)."""
        for traj in trajs:
            row = self.serializer.encode(traj)
            xzt_value = self.xzt.index_time_range(traj.time_range)
            xz2_value = self.xz2.index_trajectory(traj)
            period = int(
                math.floor((traj.time_range.start - self.origin) / self.st_period_seconds)
            )
            self.temporal_table.put(
                self.keys.primary_key(encode_u64(xzt_value), traj.tid), row
            )
            self.spatial_table.put(
                self.keys.primary_key(encode_u64(xz2_value), traj.tid), row
            )
            self.st_table.put(self._st_key(period, xz2_value, traj.tid), row)
            self.id_table.put(
                self.keys.idt_key(traj.oid, xzt_value, traj.tid), row
            )
            self.row_count += 1
        return self.row_count

    # -- execution helper (client-side filtering) ------------------------------

    def _run(self, table, windows, row_filter: Optional[Filter], name: str) -> QueryResult:
        # No push-down: the region returns every candidate row.
        return scan_query(
            f"trajmesa/{name}", table, windows, row_filter,
            push_down=False, refine=Decode(self.serializer),
        )

    # -- queries --------------------------------------------------------------

    def temporal_range_query(self, time_range: TimeRange) -> QueryResult:
        """TRQ: trajectories whose time range intersects the window."""
        windows = primary_windows_inclusive(self.keys, self.xzt.query_ranges(time_range))
        return self._run(self.temporal_table, windows, TemporalFilter(time_range), "xzt")

    def spatial_range_query(self, window: MBR) -> QueryResult:
        """SRQ: trajectories intersecting the spatial window."""
        windows = primary_windows_u64(self.keys, self.xz2.query_ranges(window))
        return self._run(
            self.spatial_table, windows, SpatialFilter(window, self.serializer), "xz2"
        )

    def st_range_query(self, window: MBR, time_range: TimeRange) -> QueryResult:
        """Composite windows: coarse time period prefix × XZ2 value ranges."""
        first = max(
            0, int(math.floor((time_range.start - self.origin) / self.st_period_seconds))
        )
        last = int(math.floor((time_range.end - self.origin) / self.st_period_seconds))
        spatial_ranges = self.xz2.query_ranges(window)
        windows = []
        for period in range(first, last + 1):
            for lo, hi in spatial_ranges:
                windows.append(
                    (
                        encode_u64(period) + encode_u64(lo),
                        encode_u64(period) + encode_u64(hi),
                    )
                )
        conjunction = TemporalFilter(time_range) & SpatialFilter(window, self.serializer)
        return self._run(self.st_table, windows, conjunction, "xz2t")

    def id_temporal_query(self, oid: str, time_range: TimeRange) -> QueryResult:
        """IDT: one object's trajectories in a time range."""
        ranges = self.xzt.query_ranges(time_range)
        windows = [self.keys.idt_window(oid, lo, hi) for lo, hi in ranges]
        return self._run(self.id_table, windows, TemporalFilter(time_range), "idt")

    def threshold_similarity_query(
        self, query_traj: Trajectory, threshold: float, measure: str = "frechet"
    ) -> QueryResult:
        """MBR-expansion candidates + exact distances (no DP-feature filter)."""
        expanded = query_traj.mbr.expanded(threshold)
        windows = primary_windows_u64(self.keys, self.xz2.query_ranges(expanded))
        refine = _ThresholdRefine(self.serializer, query_traj, threshold, measure)
        return scan_query(
            "trajmesa/similarity", self.spatial_table, windows, None,
            push_down=False, refine=refine,
        )


class _ThresholdRefine(Operator):
    """TrajMesa's threshold refine over raw rows: drop repeats and the query
    itself by the header's tid, prune by the MBR bound, then decode the row
    and compute the exact distance.  TrajMesa stores no DP features."""

    name = "threshold_refine"

    def __init__(self, serializer: RowSerializer, query: Trajectory, threshold: float,
                 measure: str):
        self.serializer, self.query, self.threshold = serializer, query, threshold
        self.distance = distance_by_name(measure)

    def process(self, upstream: Iterator[tuple[bytes, bytes]]) -> Iterator[Trajectory]:
        seen: set[str] = set()
        for _, value in upstream:
            header = self.serializer.decode_header(value)
            if header.tid in seen or header.tid == self.query.tid:
                continue
            seen.add(header.tid)
            if mbr_lower_bound(self.query.mbr, header.mbr) > self.threshold:
                continue
            traj = self.serializer.decode(value).trajectory
            if self.distance(self.query.points, traj.points) <= self.threshold:
                yield traj
