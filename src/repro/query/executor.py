"""Query execution: each query type assembles a streaming operator pipeline.

The executor no longer re-implements the scan → push-down → decode → refine
sequence per query type; it asks the planner for a plan, assembles the
matching :class:`~repro.query.pipeline.Pipeline`, and drives it.  Counting
is the same pipeline with a different terminal sink; the iterative queries
(top-k similarity, kNN point) run one pipeline round per expanding ring
with shared refine/sink state.  Every result carries its
:class:`~repro.obs.profile.QueryProfile`, the query's one ledger: the
paper's candidate counts are read from it, and the pipeline adds its
per-stage rows-in/rows-out/bytes/time to it.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import TYPE_CHECKING, Optional, Union

from repro.model.trajectory import Trajectory
from repro.obs import counter as _obs_counter
from repro.obs.profile import query_profile
from repro.query.pipeline import build_pipeline, ring_operators, ring_pipeline
from repro.query.planner import QueryPlan
from repro.runtime.deadline import Deadline, QueryTimeoutError
from repro.query.types import (
    KNNPointQuery,
    Query,
    QueryResult,
    ThresholdSimilarityQuery,
    TopKSimilarityQuery,
    finish_query,
)
from repro.query.windows import coalesce_inclusive_ranges, subtract_inclusive_ranges

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.storage.tman import TMan

_QUERY_DEADLINE = _obs_counter(
    "query_deadline_exceeded_total",
    "Queries whose deadline expired, by outcome (error or partial)",
    labelnames=("outcome",),
)


class QueryExecutor:
    """Runs planned queries against the primary and secondary tables."""

    def __init__(self, tman: "TMan"):
        self._t = tman

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
        executor runs the plan it is given, chosen or forced, over the
        windows a chosen plan was priced on and over freshly generated
        ones on a forced plan.  ``count``
        swaps the sink for a distinct-id counter (range and ID-temporal
        queries only): a count never decodes a row, the result's
        ``trajectories`` stay empty and the answer is ``result.count``.

        The result's counters are read off the query's profile — the
        active one when a caller installed it, else a fresh one —
        which :func:`~repro.query.types.finish_query` stamps with the
        plan's estimate (none on a plan built by hand) and hands to the record of
        finished queries.
        """
        if count and isinstance(
            query, (ThresholdSimilarityQuery, TopKSimilarityQuery, KNNPointQuery)
        ):
            raise TypeError(f"count is not supported for {type(query).__name__}")
        if plan is None:
            plan = self._t.planner.plan(query)
        else:
            # Writes may have landed since a caller's plan was made: scan
            # the windows of the data as it is now.
            plan = replace(plan, windows=None)
        with query_profile(type(query).__name__) as profile:
            t0 = time.perf_counter()
            trajs: list[Trajectory] = []
            distances: Optional[list[float]] = None
            matched = 0
            try:
                if count:
                    matched = build_pipeline(
                        self._t, query, plan, count=True, deadline=deadline,
                    ).run()
                elif isinstance(query, (TopKSimilarityQuery, KNNPointQuery)):
                    if limit is not None:
                        raise ValueError(
                            "limit is not supported for top-k and kNN queries"
                        )
                    trajs, distances = self._run_rings(query, plan, deadline)
                elif isinstance(query, ThresholdSimilarityQuery) and limit is not None:
                    raise ValueError("limit is not supported for similarity queries")
                else:
                    trajs = build_pipeline(
                        self._t, query, plan, limit=limit, deadline=deadline,
                    ).run()
            except QueryTimeoutError:
                _QUERY_DEADLINE.labels(outcome="error").inc()
                raise
            result = finish_query(
                profile, f"{plan.index}/{plan.route}", trajs,
                started=t0, query=query, deadline=deadline, distances=distances,
                estimate=plan.estimate, config=self._t.config,
            )
        if result.partial:
            _QUERY_DEADLINE.labels(outcome="partial").inc()
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
            return ring_pipeline(t, plan, refine, sink, None, deadline).run()
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
                    t, plan, refine, sink, fresh, deadline
                ).run()
                if len(sink.best) >= query.k and sink.kth_bound() <= radius:
                    break
            if ring.contains(boundary):
                break
            radius *= 2.0
        return trajs, dists
