"""Shared plumbing for the KV-backed baseline systems.

:func:`scan_query` runs a baseline's key windows through TMan's own query
operators (``WindowSource → RegionScan → [PushDownFilter] → decode or
refine → Collect``) under a query profile, and finishes it with
:func:`~repro.query.types.finish_query`, so the baselines differ from TMan in
their indexes and row layouts, not in their executor.
``SingleIndexStore`` stores full trajectory rows under
``shard :: u64(index value) :: tid`` keys in its own cluster — the skeleton
the TMan-XZT / TMan-XZ retrofit baselines share.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence

from repro.compression.traj_codec import TrajectoryCodec
from repro.kvstore.cluster import Cluster
from repro.kvstore.filters import Filter
from repro.kvstore.table import Table
from repro.model.trajectory import Trajectory
from repro.obs.profile import query_profile
from repro.query.operators import (
    Collect,
    Decode,
    Operator,
    PushDownFilter,
    RegionScan,
    WindowSource,
)
from repro.query.pipeline import Pipeline
from repro.query.types import QueryResult, finish_query
from repro.storage.schema import RowKeyCodec, encode_u64
from repro.storage.serializer import RowSerializer


def scan_query(
    plan: str,
    table: Table,
    windows: Sequence[tuple[bytes, bytes]],
    row_filter: Optional[Filter],
    *,
    push_down: bool,
    refine: Operator,
) -> QueryResult:
    """Read ``windows`` of ``table`` through the query operators.

    ``row_filter`` runs inside the regions when ``push_down`` is set, else
    client-side after the scan; ``refine`` turns the surviving rows into
    trajectories (``Decode``, or a system's own refine step).  The result's
    counters are read off the query's profile, which is finished (wall
    time, start, plan) like an executor query's.
    """
    with query_profile() as profile:
        t0 = time.perf_counter()
        pushed = row_filter if push_down else None
        stages: list[Operator] = [WindowSource(windows), RegionScan(table, pushed)]
        if row_filter is not None and pushed is None:
            stages.append(PushDownFilter(row_filter))
        trajs = Pipeline(stages + [refine], Collect()).run()
        return finish_query(profile, plan, trajs, started=t0)


class SingleIndexStore:
    """One primary table keyed by a single u64 index value."""

    def __init__(
        self,
        name: str,
        index_value_fn: Callable[[Trajectory], int],
        num_shards: int = 4,
        kv_workers: int = 4,
        push_down: bool = True,
    ):
        self.name = name
        self._index_value = index_value_fn
        self.push_down = push_down
        self.cluster = Cluster(workers=kv_workers)
        self.table = self.cluster.create_table(f"{name}_primary")
        self.keys = RowKeyCodec(num_shards, index_width=8)
        self.serializer = RowSerializer(TrajectoryCodec())
        self.row_count = 0

    def close(self) -> None:
        """Release the resources held by this object (idempotent)."""
        self.cluster.close()

    # -- writes -------------------------------------------------------------

    def bulk_load(self, trajs: Sequence[Trajectory]) -> int:
        """Load a batch of trajectories into the system."""
        for traj in trajs:
            value = self._index_value(traj)
            key = self.keys.primary_key(encode_u64(value), traj.tid)
            self.table.put(key, self.serializer.encode(traj))
            self.row_count += 1
        return self.row_count

    # -- reads ---------------------------------------------------------------

    def run_windows(
        self, windows: Sequence[tuple[bytes, bytes]], row_filter: Optional[Filter]
    ) -> QueryResult:
        """Scan windows, filter (server- or client-side), decode, account."""
        return scan_query(
            f"{self.name}/primary", self.table, windows, row_filter,
            push_down=self.push_down, refine=Decode(self.serializer),
        )
