"""The TMan system facade.

``TMan`` wires the indexes, the key-value cluster, the index cache, the
write paths, and the query processor into the system of Figure 3: a storage
layer (primary + secondary + metadata tables, index cache) under a query
processing layer (RBO/CBO planning, window generation, push-down parallel
execution).

>>> from repro import TMan, TManConfig
>>> from repro.model import MBR
>>> tman = TMan(TManConfig(boundary=MBR(110, 35, 125, 45)))
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Optional, Sequence

from repro.cache.index_cache import BufferShapeCache, ShapeIndexCache
from repro.core.idt import IDTIndex
from repro.core.interval import IntervalIndex
from repro.core.quadtree import QuadTreeGrid
from repro.core.shape_encoding import ShapeEncoder
from repro.core.st import STIndex
from repro.core.temporal import TRIndex
from repro.core.tshape import TShapeIndex
from repro.kvstore.cluster import Cluster
from repro.kvstore.retry import RetryPolicy
from repro.model.mbr import MBR
from repro.model.timerange import TimeRange
from repro.model.trajectory import Trajectory
from repro.obs.profile import query_profile
from repro.obs import profile_log as _obs_profile_log
from repro.query.cost import calibrate
from repro.query.executor import QueryExecutor
from repro.query.pipeline import build_pipeline, key_windows, ring_operators, ring_pipeline
from repro.query.planner import QueryPlanner
from repro.runtime.admission import INTERACTIVE, AdmissionController
from repro.runtime.backpressure import WriteLimits
from repro.runtime.deadline import Deadline, QueryTimeoutError
from repro.query.types import (
    IDTemporalQuery,
    KNNPointQuery,
    QueryResult,
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
    ThresholdSimilarityQuery,
    TopKSimilarityQuery,
    finish_query,
    search_of,
)
from repro.storage.config import TManConfig
from repro.storage.meta import MetadataTable
from repro.storage.schema import RowKeyCodec
from repro.storage.serializer import RowSerializer
from repro.storage.statistics import TableStatisticsBuilder
from repro.storage.writer import StorageWriter, WriteReport

PRIMARY_TABLE = "tman_primary"


def retry_policy_from(config: TManConfig) -> RetryPolicy:
    """The deployment's RPC retry policy, built from its config knobs."""
    return RetryPolicy(
        max_attempts=config.retry_max_attempts,
        base_delay_ms=config.retry_base_ms,
        max_delay_ms=config.retry_max_ms,
    )


def cluster_from(config: TManConfig) -> Cluster:
    """Build the deployment's cluster for its ``cluster_mode``.

    ``"threads"`` is the embedded in-process cluster; ``"processes"``
    spawns ``cluster_nodes`` region-server worker processes and backs
    every region with an N-way replicated remote store.
    """
    if config.cluster_mode == "processes":
        # Imported here: a thread-mode deployment loads no process-cluster code.
        from repro.cluster.process_cluster import ProcessCluster

        return ProcessCluster(
            nodes=config.cluster_nodes,
            replication_factor=config.replication_factor,
            read_quorum=config.read_quorum,
            write_quorum=config.write_quorum,
            page_rows=config.cluster_page_rows,
            cluster_data_dir=config.cluster_data_dir,
            workers=config.kv_workers,
            split_rows=config.split_rows,
            retry=retry_policy_from(config),
        )
    return Cluster(
        workers=config.kv_workers,
        split_rows=config.split_rows,
        retry=retry_policy_from(config),
        write_limits=write_limits_from(config),
    )


def write_limits_from(config: TManConfig) -> Optional[WriteLimits]:
    """The deployment's memtable watermarks, or None when unconfigured."""
    if config.memtable_soft_bytes is None and config.memtable_hard_bytes is None:
        return None
    return WriteLimits(
        soft_bytes=config.memtable_soft_bytes,
        hard_bytes=config.memtable_hard_bytes,
        throttle_ms=config.write_throttle_ms,
    )


class TMan:
    """A TMan deployment over one embedded key-value cluster."""

    def __init__(
        self,
        config: TManConfig,
        cluster: Optional[Cluster] = None,
    ):
        self.config = config
        self.cluster = cluster if cluster is not None else cluster_from(config)
        self._owns_cluster = cluster is None
        # Admission control: created only when the deployment bounds
        # inflight queries; None keeps query() on the unguarded fast path.
        self.admission: Optional[AdmissionController] = (
            AdmissionController(
                config.admission_max_inflight,
                max_queue=config.admission_max_queue,
                queue_timeout_ms=config.admission_queue_timeout_ms,
            )
            if config.admission_max_inflight > 0
            else None
        )

        # Indexes.
        self.tr_index = TRIndex(
            config.tr_period_seconds, config.tr_max_periods, config.time_origin
        )
        self.interval_index = IntervalIndex(
            config.tr_period_seconds, config.tr_max_periods, config.time_origin
        )
        self.grid = QuadTreeGrid(config.boundary, config.max_resolution)
        self.tshape_index = TShapeIndex(self.grid, config.alpha, config.beta)
        self.idt_index = IDTIndex(self.tr_index)
        self.st_index = STIndex(self.tr_index, self.tshape_index, config.st_window_budget)

        # Storage plumbing.  The metadata table holds the index parameters
        # the stored rows were encoded with (a store that has them must be
        # opened with the same) and the shape-code mappings.
        self.meta = MetadataTable(self.cluster)
        reopened = self.meta.record_config(
            {
                "primary_index": config.primary_index,
                "secondary_indexes": list(config.secondary_indexes),
                "alpha": config.alpha,
                "beta": config.beta,
                "max_resolution": config.max_resolution,
                "tr_period_seconds": config.tr_period_seconds,
                "tr_max_periods": config.tr_max_periods,
                "num_shards": config.num_shards,
                "shape_encoding": config.shape_encoding,
                "boundary": config.boundary.as_tuple(),
            }
        )
        self.serializer = RowSerializer(dp_epsilon=config.dp_epsilon)
        self.keys = RowKeyCodec(config.num_shards, config.primary_index_width)
        self.index_cache = ShapeIndexCache(self.meta.table)
        self.buffer_cache = BufferShapeCache(config.buffer_shape_threshold)
        self.encoder = ShapeEncoder(config.shape_encoding)

        self.primary_table = self.cluster.create_table(PRIMARY_TABLE, if_not_exists=True)
        self.secondary_tables = {
            name: self.cluster.create_table(f"tman_sec_{name}", if_not_exists=True)
            for name in config.secondary_indexes
        }
        # The CBO's statistics: the writer reports every row it writes or
        # deletes to the builder, and the planner pulls a fresh snapshot per
        # plan through the provider below.  Rows an earlier facade wrote are
        # refed from their headers.
        self.stats_builder = TableStatisticsBuilder(
            config.boundary, config.tr_period_seconds, origin=config.time_origin
        )
        if reopened:
            self.rebuild_statistics()

        # Query processing.
        self.planner = QueryPlanner(config)
        self.planner.set_statistics_provider(self.stats_builder.snapshot)
        # The planner prices each route by the key windows its pipeline
        # scans; the chosen plan carries them to the pipeline.
        self.planner.set_window_source(
            lambda q, index, route: key_windows(
                self, index, route, **search_of(q, config.boundary)
            )
        )
        self.executor = QueryExecutor(self)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the resources held by this object (idempotent)."""
        if self._owns_cluster:
            self.cluster.close()

    def __enter__(self) -> "TMan":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- statistics (fed to the CBO) ----------------------------------------------

    @property
    def row_count(self) -> int:
        """Number of live trajectories stored."""
        return self.stats_builder.row_count

    def flush(self) -> None:
        """Flush every table's memtables to SSTables."""
        self.primary_table.flush()
        for table in self.secondary_tables.values():
            table.flush()

    def table_statistics(self):
        """The current statistics snapshot (None while the table is empty)."""
        return self.stats_builder.snapshot()

    def spatial_ranges(self, window: MBR) -> list[tuple[int, int]]:
        """The TShape value ranges of ``window`` (Algorithm 2), pruned by the
        index cache's directory; without the cache (Fig. 16(b) ablation)
        every element counts as occupied."""
        if self.config.use_index_cache:
            return self.tshape_index.query_ranges(
                window, self.index_cache.get_mapping, True, self.index_cache.directory()
            )
        return self.tshape_index.query_ranges(window, None, False)

    def calibrate_costs(self) -> bool:
        """Fit the planner's cost model to this deployment's profiles.

        Uses the per-query I/O ledgers accumulated in the profile log; with
        fewer than the minimum samples the planner keeps its current
        model.  Returns True when a calibrated fit was installed.
        """
        profiles = list(_obs_profile_log().entries())
        fitted = calibrate(profiles, defaults=self.planner.cost_model)
        changed = fitted != self.planner.cost_model
        self.planner.cost_model = fitted
        return changed

    def rebuild_statistics(self) -> None:
        """Refeed the statistics builder from a scan of primary row headers.

        The constructor calls it on a store that earlier facades wrote to
        (a reopened directory): the headers carry exactly what the writer
        reported.
        """
        from repro.kvstore.scan import Scan

        self.stats_builder.reset()
        for _, value in self.primary_table.scan(Scan()):
            header = self.serializer.decode_header(value)
            self.stats_builder.observe(header.mbr, header.time_range)

    # -- write API -------------------------------------------------------------

    @property
    def writer(self) -> StorageWriter:
        """A write-path helper bound to this deployment."""
        return StorageWriter(self)

    def bulk_load(self, trajs: Sequence[Trajectory]) -> WriteReport:
        """Load a batch, optimizing shape codes per enlarged element first."""
        return self.writer.bulk_load(trajs)

    def insert(self, trajs: Sequence[Trajectory]) -> WriteReport:
        """Online insert through the buffer shape cache (§IV-C)."""
        return self.writer.insert(trajs)

    def delete(self, traj: Trajectory) -> bool:
        """Remove a trajectory (keys recomputed from the object itself)."""
        return self.writer.delete(traj)

    def delete_by_id(self, oid: str, tid: str, time_range: TimeRange) -> bool:
        """Remove a trajectory located via the IDT index."""
        return self.writer.delete_by_id(oid, tid, time_range)

    # -- query API --------------------------------------------------------------

    def _make_deadline(
        self, deadline_ms: Optional[float], allow_partial: bool
    ) -> Optional[Deadline]:
        """A per-query deadline token (explicit arg beats the config default)."""
        budget = (
            deadline_ms if deadline_ms is not None else self.config.default_deadline_ms
        )
        if budget is None:
            return None
        return Deadline(budget, allow_partial=allow_partial)

    def query(
        self,
        q,
        limit: Optional[int] = None,
        *,
        deadline_ms: Optional[float] = None,
        allow_partial: bool = False,
        priority: str = INTERACTIVE,
        plan=None,
    ) -> QueryResult:
        """Plan and execute any supported query descriptor.

        ``limit`` (range and ID-temporal queries only) terminates the
        streaming pipeline after the first ``limit`` distinct
        trajectories, without scanning the remaining candidates.

        ``deadline_ms`` bounds end-to-end execution (falling back to
        ``config.default_deadline_ms``); on expiry the query raises
        :class:`~repro.runtime.deadline.QueryTimeoutError`, or with
        ``allow_partial=True`` returns the rows produced so far flagged
        ``result.partial``.  When admission control is configured,
        ``priority`` ("interactive" or "batch") orders the wait queue;
        an overloaded system sheds with
        :class:`~repro.runtime.admission.AdmissionRejectedError`.
        ``plan`` forces a specific :class:`~repro.query.planner.QueryPlan`
        instead of the optimizer's choice (plan-equivalence testing).
        """
        return self._run(
            q, deadline_ms, allow_partial, priority, limit=limit, plan=plan
        )

    def _run(
        self,
        q,
        deadline_ms: Optional[float],
        allow_partial: bool,
        priority: str,
        **execute_args,
    ) -> QueryResult:
        """One query's life: deadline → profile → admission → execute."""
        deadline = self._make_deadline(deadline_ms, allow_partial)
        # Install the profile before admission so queue wait is attributed
        # to the query that paid it.
        with query_profile(type(q).__name__) as profile:
            admission = (
                nullcontext() if self.admission is None
                else self.admission.admit(priority=priority, deadline=deadline)
            )
            try:
                with admission:
                    return self.executor.execute(
                        q, deadline=deadline, **execute_args
                    )
            except QueryTimeoutError as exc:
                if exc.where != "admission" or not allow_partial:
                    raise
                # The budget ran out while queued: allow_partial promises a
                # (possibly empty) result rather than an error.
                deadline.note_partial()
                return finish_query(
                    profile, "shed", [], elapsed_ms=deadline.budget_ms,
                    query=q, deadline=deadline,
                )

    def explain(self, q) -> str:
        """The optimizer's plan and the stages the executor assembles for it
        (an iterative query's: one ring round's)."""
        plan = self.planner.plan(q)
        if isinstance(q, (TopKSimilarityQuery, KNNPointQuery)):
            pipeline = ring_pipeline(self, plan, *ring_operators(self, q), [])
        else:
            pipeline = build_pipeline(self, q, plan)
        return pipeline.describe()

    def explain_plans(self, q) -> list[dict]:
        """Every applicable plan with its estimated cost, chosen plan first.

        Each entry has ``index``, ``route``, ``reason``, ``cost`` (modeled
        ms), ``est_rows``, and ``chosen``; the ``repro explain`` CLI
        renders this next to the query's ``simulated_ms``, in the same unit.
        """
        return [
            {
                "index": c.plan.index,
                "route": c.plan.route,
                "reason": c.plan.reason,
                "cost": c.cost,
                "est_rows": c.est_rows,
                "chosen": i == 0,
            }
            for i, c in enumerate(self.planner.candidate_plans(q))
        ]

    def temporal_range_query(
        self, time_range: TimeRange, limit: Optional[int] = None
    ) -> QueryResult:
        """TRQ: trajectories whose time range intersects ``time_range``."""
        return self.query(TemporalRangeQuery(time_range), limit=limit)

    def spatial_range_query(
        self, window: MBR, limit: Optional[int] = None
    ) -> QueryResult:
        """SRQ: trajectories intersecting the spatial ``window``."""
        return self.query(SpatialRangeQuery(window), limit=limit)

    def st_range_query(
        self, window: MBR, time_range: TimeRange, limit: Optional[int] = None
    ) -> QueryResult:
        """STRQ: the conjunction of a spatial window and a time range."""
        return self.query(STRangeQuery(window, time_range), limit=limit)

    def id_temporal_query(
        self, oid: str, time_range: TimeRange, limit: Optional[int] = None
    ) -> QueryResult:
        """IDT: one object's trajectories intersecting a time range."""
        return self.query(IDTemporalQuery(oid, time_range), limit=limit)

    def threshold_similarity_query(
        self, query_traj: Trajectory, threshold: float, measure: str = "frechet"
    ) -> QueryResult:
        """Trajectories within ``threshold`` (degrees) of the query trajectory."""
        return self.query(ThresholdSimilarityQuery(query_traj, threshold, measure))

    def top_k_similarity_query(
        self, query_traj: Trajectory, k: int, measure: str = "frechet"
    ) -> QueryResult:
        """The ``k`` most similar trajectories to the query trajectory."""
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        return self.query(TopKSimilarityQuery(query_traj, k, measure))

    def knn_point_query(self, x: float, y: float, k: int) -> QueryResult:
        """The ``k`` trajectories passing closest to a point (extension)."""
        return self.query(KNNPointQuery(x, y, k))

    def count(
        self,
        q,
        *,
        deadline_ms: Optional[float] = None,
        priority: str = INTERACTIVE,
    ) -> QueryResult:
        """Count matching trajectories without decompressing points.

        Supported for temporal, spatial, spatio-temporal, and ID-temporal
        queries; read the answer from ``result.count``.
        """
        return self._run(q, deadline_ms, False, priority, count=True)

    # -- health ------------------------------------------------------------------

    def health(self) -> dict:
        """Operational snapshot: admission slots, memtable pressure, regions.

        The ``repro health`` CLI renders this; tests assert on it.  Keys
        are stable: ``admission`` (controller stats or None), ``cluster``
        (per-node replica states in process mode, None in thread mode),
        ``write`` (memtable bytes plus the configured watermarks),
        ``tables`` (each table's region count and memtable bytes).
        """
        tables = {PRIMARY_TABLE: self.primary_table}
        tables.update(
            (f"tman_sec_{name}", table)
            for name, table in self.secondary_tables.items()
        )
        cluster_health = getattr(self.cluster, "cluster_health", None)
        return {
            "admission": None if self.admission is None else self.admission.stats(),
            "cluster": cluster_health() if cluster_health is not None else None,
            "write": {
                "memtable_bytes": self.cluster.memtable_bytes(),
                "soft_bytes": self.config.memtable_soft_bytes,
                "hard_bytes": self.config.memtable_hard_bytes,
            },
            "tables": {
                name: {
                    "regions": len(table.regions),
                    "memtable_bytes": table.memtable_bytes(),
                }
                for name, table in tables.items()
            },
            "default_deadline_ms": self.config.default_deadline_ms,
        }
