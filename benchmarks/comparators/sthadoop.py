"""ST-Hadoop baseline: time-sliced point storage with scan jobs.

ST-Hadoop partitions *points* (not trajectories) into fixed time slices on
HDFS, with a coarse spatial grid inside each slice, and answers queries with
MapReduce jobs.  Consequences preserved here:

- candidates are **points**, one or two orders of magnitude more numerous
  than trajectory rows (Figure 17b of the paper);
- whole trajectories must be reassembled from matching points;
- every query pays a fixed job-startup overhead (``job_overhead_ms``),
  charged to the reported ``simulated_ms``.
"""

from __future__ import annotations

import math
import struct
import time
from typing import Optional, Sequence

from repro.kvstore.cluster import Cluster
from repro.kvstore.scan import Scan
from repro.model.mbr import MBR
from repro.model.point import STPoint
from repro.model.timerange import TimeRange
from repro.model.trajectory import Trajectory
from repro.obs.profile import query_profile
from repro.query.types import QueryResult, finish_query
from repro.storage.schema import SEPARATOR, encode_u64

_POINT = struct.Struct(">ddd")  # t, lng, lat
DEFAULT_SLICE = 6 * 3600.0
DEFAULT_GRID_BITS = 6  # 64 x 64 cells per slice
DEFAULT_JOB_OVERHEAD_MS = 2500.0  # MapReduce job startup, charged to simulated time


def contains_instant(time_range: TimeRange, t: float) -> bool:
    """True when the instant ``t`` lies inside the closed range."""
    return time_range.start <= t <= time_range.end


class STHadoop:
    """Point-sliced storage + simulated scan-job query execution."""

    def __init__(
        self,
        boundary: MBR,
        slice_seconds: float = DEFAULT_SLICE,
        grid_bits: int = DEFAULT_GRID_BITS,
        origin: float = 0.0,
        kv_workers: int = 4,
        job_overhead_ms: float = DEFAULT_JOB_OVERHEAD_MS,
    ):
        if slice_seconds <= 0:
            raise ValueError(f"slice_seconds must be positive: {slice_seconds}")
        self.boundary = boundary
        self.slice_seconds = slice_seconds
        self.grid_bits = grid_bits
        self.origin = origin
        self.job_overhead_ms = job_overhead_ms
        self.cluster = Cluster(workers=kv_workers)
        self.table = self.cluster.create_table("sth_points")
        self._oid_of: dict[str, str] = {}
        self._slices: set[int] = set()
        self.point_count = 0

    def close(self) -> None:
        """Release the resources held by this object (idempotent)."""
        self.cluster.close()

    # -- grid helpers ------------------------------------------------------

    def _cell_of(self, lng: float, lat: float) -> int:
        n = 1 << self.grid_bits
        cx = min(n - 1, max(0, int((lng - self.boundary.x1) / self.boundary.width * n)))
        cy = min(n - 1, max(0, int((lat - self.boundary.y1) / self.boundary.height * n)))
        return cy * n + cx

    def _cells_for(self, window: MBR) -> list[int]:
        n = 1 << self.grid_bits
        x1 = max(0, int((window.x1 - self.boundary.x1) / self.boundary.width * n))
        x2 = min(n - 1, int((window.x2 - self.boundary.x1) / self.boundary.width * n))
        y1 = max(0, int((window.y1 - self.boundary.y1) / self.boundary.height * n))
        y2 = min(n - 1, int((window.y2 - self.boundary.y1) / self.boundary.height * n))
        return [cy * n + cx for cy in range(y1, y2 + 1) for cx in range(x1, x2 + 1)]

    def _slice_of(self, t: float) -> int:
        return int(math.floor((t - self.origin) / self.slice_seconds))

    # -- writes --------------------------------------------------------------

    def bulk_load(self, trajs: Sequence[Trajectory]) -> int:
        """Explode trajectories into per-slice, per-cell point rows."""
        for traj in trajs:
            self._oid_of[traj.tid] = traj.oid
            for seq, p in enumerate(traj.points):
                self._slices.add(self._slice_of(p.t))
                key = (
                    encode_u64(self._slice_of(p.t))
                    + encode_u64(self._cell_of(p.lng, p.lat))
                    + SEPARATOR
                    + traj.tid.encode("utf-8")
                    + SEPARATOR
                    + seq.to_bytes(4, "big")
                )
                self.table.put(key, _POINT.pack(p.t, p.lng, p.lat))
                self.point_count += 1
        return self.point_count

    # -- job execution ----------------------------------------------------------

    def _run_job(
        self,
        slices: Sequence[int],
        cells: Optional[Sequence[int]],
        point_pred,
        traj_pred,
    ) -> QueryResult:
        """Scan matching partitions, group points by tid, reassemble, refine."""
        with query_profile() as profile:
            t0 = time.perf_counter()
            hits: dict[str, list[tuple[int, STPoint]]] = {}
            for sl in slices:
                windows = (
                    [(encode_u64(sl), encode_u64(sl + 1))]
                    if cells is None
                    else [
                        (encode_u64(sl) + encode_u64(c), encode_u64(sl) + encode_u64(c + 1))
                        for c in cells
                    ]
                )
                for start, stop in windows:
                    for key, value in self.table.scan(Scan(start, stop)):
                        t, lng, lat = _POINT.unpack(value)
                        if not point_pred(t, lng, lat):
                            continue
                        # key = slice(8) cell(8) SEP tid SEP seq(4); the sequence
                        # number is fixed-width, so parse from the end.
                        body = key[16:]
                        seq = int.from_bytes(body[-4:], "big")
                        tid = body[1:-5].decode("utf-8")
                        hits.setdefault(tid, []).append((seq, STPoint(t, lng, lat)))
            # Reassembly: sort each trajectory's matched points by sequence.
            out: list[Trajectory] = []
            for tid, seq_points in hits.items():
                seq_points.sort(key=lambda sp: sp[0])
                traj = Trajectory(self._oid_of[tid], tid, [p for _, p in seq_points])
                if traj_pred is None or traj_pred(traj):
                    out.append(traj)
            result = finish_query(profile, "sthadoop/job", out, started=t0)
        result.simulated_ms += self.job_overhead_ms
        return result

    # -- queries ---------------------------------------------------------------

    def temporal_range_query(self, time_range: TimeRange) -> QueryResult:
        """Note: point-level semantics — matches trajectories with a fix inside."""
        slices = range(self._slice_of(time_range.start), self._slice_of(time_range.end) + 1)
        return self._run_job(
            list(slices),
            None,
            lambda t, lng, lat: contains_instant(time_range, t),
            None,
        )

    def spatial_range_query(self, window: MBR) -> QueryResult:
        """Scans every slice (no temporal predicate) over matching grid cells."""
        # All slices present in the data must be visited — a full job.
        all_slices = self._all_slices()
        cells = self._cells_for(window)
        return self._run_job(
            all_slices,
            cells,
            lambda t, lng, lat: window.contains_point(lng, lat),
            None,
        )

    def st_range_query(self, window: MBR, time_range: TimeRange) -> QueryResult:
        """STRQ: the conjunction of a spatial window and a time range."""
        slices = range(self._slice_of(time_range.start), self._slice_of(time_range.end) + 1)
        cells = self._cells_for(window)
        return self._run_job(
            list(slices),
            cells,
            lambda t, lng, lat: contains_instant(time_range, t)
            and window.contains_point(lng, lat),
            None,
        )

    def _all_slices(self) -> list[int]:
        """Partition catalog (the namenode's knowledge, tracked at load time)."""
        return sorted(self._slices)
