"""Query execution: each query type assembles a streaming operator pipeline.

The executor no longer re-implements the scan → push-down → decode → refine
sequence per query type; it asks the planner for a plan, assembles the
matching :class:`~repro.query.pipeline.Pipeline`, and drives it.  Counting
is the same pipeline with a different terminal sink; the iterative queries
(top-k similarity, kNN point) run one pipeline round per expanding ring
with shared refine/sink state.  Every result carries an
:class:`~repro.kvstore.stats.ExecutionTrace` with per-stage
rows-in/rows-out/bytes/time, and its
:class:`~repro.obs.profile.QueryProfile`, whose ledger the paper's
candidate counts are read from.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Union

from repro.kvstore.stats import CostModel, ExecutionTrace
from repro.model.trajectory import Trajectory
from repro.obs import (
    counter as _obs_counter,
    histogram as _obs_histogram,
    profile_log as _obs_profile_log,
    slow_query_log as _obs_slow_query_log,
    tracer as _obs_tracer,
    workload_stats as _obs_workload_stats,
)
from repro.obs.profile import QueryProfile, query_profile
from repro.query.pipeline import build_pipeline, ring_operators, ring_pipeline
from repro.query.planner import QueryPlan
from repro.runtime.deadline import Deadline, QueryTimeoutError
from repro.query.types import (
    KNNPointQuery,
    Query,
    QueryResult,
    ThresholdSimilarityQuery,
    TopKSimilarityQuery,
)
from repro.query.windows import coalesce_inclusive_ranges, subtract_inclusive_ranges

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.storage.tman import TMan

_QUERY_TOTAL = _obs_counter(
    "query_total", "Queries executed", labelnames=("type",)
)
_QUERY_MS = _obs_histogram(
    "query_latency_ms", "End-to-end query wall time", labelnames=("type",)
)
_QUERY_CANDIDATES = _obs_histogram(
    "query_candidates",
    "Candidate rows touched per query (scanned + point gets)",
    labelnames=("type",),
)
_QUERY_SLOW = _obs_counter(
    "query_slow_total", "Queries captured by the slow-query log"
)
_QUERY_DEADLINE = _obs_counter(
    "query_deadline_exceeded_total",
    "Queries whose deadline expired, by outcome (error or partial)",
    labelnames=("outcome",),
)


class QueryExecutor:
    """Runs planned queries against the primary and secondary tables."""

    def __init__(self, tman: "TMan", cost_model: Optional[CostModel] = None):
        self._t = tman
        self._cost = cost_model if cost_model is not None else CostModel()

    # -- public entry points -------------------------------------------------

    def execute(
        self,
        query: Query,
        limit: Optional[int] = None,
        deadline: Optional[Deadline] = None,
        plan: Optional[QueryPlan] = None,
        count: bool = False,
    ) -> QueryResult:
        """Plan the query, assemble its pipeline, and run it.

        ``limit`` (range and ID-temporal queries only) installs an
        early-terminating sink: the streaming scans stop as soon as the
        first ``limit`` distinct trajectories are produced.  ``deadline``
        propagates to every scan and point-get; on expiry the query
        raises :class:`QueryTimeoutError`, or — when the deadline was
        created with ``allow_partial`` — returns whatever rows were
        produced so far with ``result.partial`` set.  ``plan`` forces a
        specific access path (plan-equivalence testing, benchmarks); the
        executor runs the plan it is given, chosen or forced.  ``count``
        swaps the sink for a distinct-id counter (range and ID-temporal
        queries only): a count never decodes a row, the result's
        ``trajectories`` stay empty and the answer is ``result.count``.

        The result's counters are read off the query's profile — the
        active one when a caller installed it, else a fresh one.
        """
        if count and isinstance(
            query, (ThresholdSimilarityQuery, TopKSimilarityQuery, KNNPointQuery)
        ):
            raise TypeError(f"count is not supported for {type(query).__name__}")
        if plan is None:
            plan = self._t.planner.plan(query)
        with query_profile(type(query).__name__) as profile, _obs_tracer().span(
            "query.count" if count else "query.execute",
            type=type(query).__name__,
            plan=f"{plan.index}/{plan.route}",
        ):
            t0 = time.perf_counter()
            trace = ExecutionTrace()
            trajs: list[Trajectory] = []
            distances: Optional[list[float]] = None
            matched = 0
            try:
                if count:
                    matched = build_pipeline(
                        self._t, query, plan, trace=trace, count=True,
                        deadline=deadline,
                    ).run()
                elif isinstance(query, (TopKSimilarityQuery, KNNPointQuery)):
                    if limit is not None:
                        raise ValueError(
                            "limit is not supported for top-k and kNN queries"
                        )
                    trajs, distances = self._run_rings(query, plan, trace, deadline)
                elif isinstance(query, ThresholdSimilarityQuery) and limit is not None:
                    raise ValueError("limit is not supported for similarity queries")
                else:
                    trajs = build_pipeline(
                        self._t, query, plan, trace=trace, limit=limit,
                        deadline=deadline,
                    ).run()
            except QueryTimeoutError:
                if _QUERY_DEADLINE._registry.enabled:
                    _QUERY_DEADLINE.labels(outcome="error").inc()
                raise
            result = self._finalize(
                query, trajs, distances, plan, t0, trace, deadline, profile
            )
            result.count = matched
            return result

    # -- iterative queries (expanding-ring pipelines) ------------------------

    @staticmethod
    def _ring_deadline_reached(
        deadline: Optional[Deadline], where: str
    ) -> bool:
        """Between rings: stop expanding on expiry.

        Partial-tolerant queries keep the best results found so far (the
        ring already scanned is a valid, if incomplete, candidate set);
        strict ones raise.
        """
        if deadline is None or not (deadline.expired() or deadline.partial):
            return False
        if deadline.allow_partial:
            deadline.note_partial()
            return True
        deadline.check(where)
        return True  # pragma: no cover - check() always raises here

    def _run_rings(
        self,
        query: Union[TopKSimilarityQuery, KNNPointQuery],
        plan: QueryPlan,
        trace: ExecutionTrace,
        deadline: Optional[Deadline] = None,
    ) -> tuple[list[Trajectory], list[float]]:
        """The expanding-ring loop behind both iterative queries.

        One pipeline round per ring (read the ring through the plan's access
        path, refine, feed the shared top-k sink), doubling the radius until
        the k-th best distance is provably inside the scanned region or the
        ring covers the whole boundary.  kNN ranks by min planar distance
        from the point to the polyline and scans its ring clamped to the
        boundary; a ring wholly outside the boundary holds no row, so its
        round is skipped and the radius keeps doubling.  Top-k ranks by the
        similarity measure.  Without a TShape index the plan is a scan, and
        its one round reads every row.

        A round reads only the TShape key ranges of its ring that earlier
        rounds have not: the refiner already walked every row there, and its
        ``seen`` set would drop each again by tid (the same set hides the
        duplicate keys a re-encode leaves behind).  Header, endpoint and
        DP-feature bounds in the refine stage avoid most point decodes.
        """
        if query.k <= 0:
            raise ValueError(f"k must be positive, got {query.k}")
        t = self._t
        refine, sink = ring_operators(t, query)
        if plan.route == "scan":
            return ring_pipeline(t, plan, refine, sink, None, trace, deadline).run()
        boundary = t.config.boundary
        knn = isinstance(query, KNNPointQuery)
        radius = query.first_radius(boundary)
        scanned: list[tuple[int, int]] = []  # inclusive u64 ranges of earlier rounds
        trajs: list[Trajectory] = []
        dists: list[float] = []
        while not self._ring_deadline_reached(
            deadline, "knn.ring" if knn else "topk.ring"
        ):
            ring = window = query.ring(radius)
            if knn:
                window = ring.intersection(boundary)
            if window is not None:
                fresh = subtract_inclusive_ranges(
                    ((lo, hi - 1) for lo, hi in t.spatial_ranges(window)), scanned
                )
                scanned = coalesce_inclusive_ranges(scanned + fresh)
                trajs, dists = ring_pipeline(
                    t, plan, refine, sink, fresh, trace, deadline
                ).run()
                if len(sink.best) >= query.k and sink.kth_bound() <= radius:
                    break
            if ring.contains(boundary):
                break
            radius *= 2.0
        return trajs, dists

    # -- result assembly -----------------------------------------------------

    def _finalize(
        self,
        query: Query,
        trajs: list[Trajectory],
        distances: Optional[list[float]],
        plan: QueryPlan,
        t0: float,
        trace: ExecutionTrace,
        deadline: Optional[Deadline],
        profile: QueryProfile,
    ) -> QueryResult:
        elapsed = (time.perf_counter() - t0) * 1000
        if profile.retries or profile.rpc_failures:
            trace.annotate("kv_retries", profile.retries)
            trace.annotate("kv_rpc_failures", profile.rpc_failures)
        if deadline is not None:
            trace.annotate("deadline_ms", deadline.budget_ms)
            trace.annotate(
                "deadline_remaining_ms", round(deadline.remaining_ms(), 3)
            )
            if deadline.partial:
                trace.annotate("partial", True)
                if _QUERY_DEADLINE._registry.enabled:
                    _QUERY_DEADLINE.labels(outcome="partial").inc()
        partial = deadline.partial if deadline is not None else False
        plan_name = f"{plan.index}/{plan.route}"
        result = QueryResult(
            trajectories=trajs,
            candidates=profile.rows_scanned + profile.point_gets,
            transferred_rows=profile.rows_returned,
            windows=profile.range_scans,
            elapsed_ms=elapsed,
            simulated_ms=self._cost.simulate_ms(profile),
            plan=plan_name,
            distances=distances,
            trace=trace,
            partial=partial,
            profile=profile,
        )
        profile.finish(elapsed, type(query).__name__, plan_name, partial=partial)
        trace.annotate("profile", profile.summary())
        _obs_profile_log().record(profile)
        self._record_workload(query, profile, result)
        self._observe(query, result, trace)
        return result

    def _record_workload(
        self, query: Query, profile: QueryProfile, result: QueryResult
    ) -> None:
        """Fold the finished profile into the workload statistics."""
        cfg = self._t.config
        time_range = getattr(query, "time_range", None)
        window = getattr(query, "window", None)
        boundary = cfg.boundary
        stats = _obs_workload_stats()
        stats.record(
            profile,
            time_range=(time_range.start, time_range.end)
            if time_range is not None else None,
            window=(window.x1, window.y1, window.x2, window.y2)
            if window is not None else None,
            period_seconds=cfg.tr_period_seconds,
            boundary=(boundary.x1, boundary.y1, boundary.x2, boundary.y2),
            observed_candidates=result.candidates,
        )
        estimated = self._t.planner.estimate_candidates(query)
        if estimated is not None and estimated > 0:
            stats.record_estimate(
                profile.query_type, profile.plan, result.candidates, estimated
            )

    def _observe(
        self, query: Query, result: QueryResult, trace: ExecutionTrace
    ) -> None:
        """Feed the finished query into the registry and the slow-query log."""
        qtype = type(query).__name__
        if _QUERY_TOTAL._registry.enabled:
            exemplar = result.profile.query_id
            _QUERY_TOTAL.labels(type=qtype).inc()
            _QUERY_MS.labels(type=qtype).observe(result.elapsed_ms, exemplar=exemplar)
            _QUERY_CANDIDATES.labels(type=qtype).observe(
                result.candidates, exemplar=exemplar
            )
        slog = _obs_slow_query_log()
        if slog.threshold_ms is not None and result.elapsed_ms >= slog.threshold_ms:
            recorded = slog.maybe_record(
                repr(query),
                result.plan,
                result.elapsed_ms,
                candidates=result.candidates,
                transferred_rows=result.transferred_rows,
                trace=trace.render(),
                profile=result.profile.as_dict(),
            )
            if recorded:
                _QUERY_SLOW.inc()
