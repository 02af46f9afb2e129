"""Rule-based and cost-based query optimization (§V-A).

The RBO encodes the paper's priority ``IDT > primary indexes > secondary
indexes`` and decides alone whenever no statistics exist.  With statistics
— the writer-fed per-table histograms of :mod:`repro.storage.statistics`,
the planner's only source — the CBO costs every applicable ``(index,
route)`` pair in calibrated I/O units (:mod:`repro.query.cost`): range-scan
rows, window opens, the point-get round trip the secondary route pays per
match, and decode work.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional

from repro.core.temporal import TRIndex
from repro.model.mbr import MBR
from repro.model.timerange import TimeRange
from repro.query.cost import CostConstants
from repro.query.types import (
    IDTemporalQuery,
    KNNPointQuery,
    Query,
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
    ThresholdSimilarityQuery,
    TopKSimilarityQuery,
)
from repro.query.windows import coalesce_inclusive_ranges
from repro.storage.config import TManConfig

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.storage.statistics import TableStatistics

# Indexes that can serve a purely temporal predicate, in RBO priority
# order (the ST index's TR prefix also answers temporal queries; the
# interval index trades window count for tail false positives).
TEMPORAL_INDEXES = ("tr", "st", "interval")


@dataclass(frozen=True)
class QueryPlan:
    """The optimizer's decision: which index, via which route."""

    index: str  # tr | tshape | st | idt | interval | scan
    route: str  # primary | secondary | scan
    reason: str


@dataclass(frozen=True)
class PlanCandidate:
    """One costed alternative from :meth:`QueryPlanner.candidate_plans`.

    ``cost`` and ``est_rows`` are ``None`` when no statistics were
    available to cost the plan (pure-RBO planning).
    """

    plan: QueryPlan
    cost: Optional[float]
    est_rows: Optional[float]


class QueryPlanner:
    """Maps a query to the cheapest applicable index."""

    def __init__(self, config: TManConfig):
        self.config = config
        self.cost_constants = CostConstants()
        self._table_stats: Optional[
            Callable[[], Optional["TableStatistics"]]
        ] = None
        self._tr = TRIndex(
            config.tr_period_seconds, config.tr_max_periods, config.time_origin
        )
        self._spatial_window_counter: Optional[Callable[[MBR], int]] = None
        # Per-thread frozen statistics snapshot for the duration of one
        # planning call (see _stats_scope); thread-local because one
        # planner serves concurrent queries.
        self._stats_scope_state = threading.local()

    # -- statistics plumbing --------------------------------------------------

    def set_statistics_provider(
        self, provider: Callable[[], Optional["TableStatistics"]]
    ) -> None:
        """Attach the statistics source (pulled once per plan).

        The provider is typically
        :meth:`repro.storage.statistics.TableStatisticsBuilder.snapshot`;
        each planning entry point (:meth:`plan`, :meth:`candidate_plans`,
        :meth:`estimate_candidates`) pulls it exactly once and costs the
        whole candidate matrix against that frozen snapshot, so statistics
        refresh automatically between plans but never mutate mid-plan.
        """
        self._table_stats = provider

    def set_cost_constants(self, constants: CostConstants) -> None:
        """Install (calibrated) cost constants for plan costing."""
        self.cost_constants = constants

    def set_spatial_window_counter(self, counter: Callable[[MBR], int]) -> None:
        """Attach a callback returning the range scans a TShape window opens.

        The spatial multirange expansion can produce thousands of key
        ranges for a wide window — orders of magnitude more than the
        temporal routes — so costing it at a constant window count makes
        the CBO prefer catastrophically seek-bound spatial plans.  The
        deployment wires this to ``TMan.spatial_ranges``: the count is of
        the directory-pruned ranges the pipeline then scans.
        """
        self._spatial_window_counter = counter

    def _spatial_windows(self, window: MBR) -> int:
        if self._spatial_window_counter is None:
            return 1
        return max(1, int(self._spatial_window_counter(window)))

    @contextmanager
    def _stats_scope(self) -> Iterator[None]:
        """Freeze one statistics snapshot for the whole planning call.

        Without the scope, every selectivity estimate re-pulled the live
        provider, so a write landing mid-plan could cost half the
        candidate matrix against the old histograms and half against the
        new ones — inconsistent costs, and a chosen plan that none of the
        printed candidates actually describes.  Nested scopes (the
        estimate behind each costed candidate) reuse the outer snapshot;
        the state is thread-local so concurrent queries each freeze their
        own.
        """
        state = self._stats_scope_state
        if getattr(state, "active", False):
            yield
            return
        state.active = True
        state.snapshot = (
            self._table_stats() if self._table_stats is not None else None
        )
        try:
            yield
        finally:
            state.active = False
            state.snapshot = None

    def table_statistics(self) -> Optional["TableStatistics"]:
        """The current statistics snapshot, or None for an empty table.

        Inside a planning call this returns the snapshot frozen at plan
        start; outside one it pulls the provider live.
        """
        state = self._stats_scope_state
        if getattr(state, "active", False):
            return state.snapshot
        return self._table_stats() if self._table_stats is not None else None

    # -- selectivity estimates ------------------------------------------------

    def estimate_candidates(self, query: Query) -> Optional[float]:
        """The planner's prior for rows a query will touch.

        ``None`` without statistics.  Range shapes estimate from the
        period/cell histograms; similarity and kNN shapes estimate the
        first expanding ring's spatial candidates via the cell histogram.
        The workload-statistics collector compares this prior against the
        observed candidate count, which is exactly the feedback signal an
        adaptive CBO needs.
        """
        with self._stats_scope():
            ts = self.table_statistics()
            if ts is None:
                return None
            if isinstance(query, (TemporalRangeQuery, IDTemporalQuery)):
                # No per-object statistics: the temporal fraction is the
                # best (over-)estimate available for ID-temporal queries.
                return ts.estimate_temporal(query.time_range)
            if isinstance(query, SpatialRangeQuery):
                return ts.estimate_spatial(query.window)
            if isinstance(query, STRangeQuery):
                # Independence assumption for the conjunction.
                return ts.estimate_st(query.window, query.time_range)
            if isinstance(query, ThresholdSimilarityQuery):
                return ts.estimate_spatial(query.query.mbr.expanded(query.threshold))
            if isinstance(query, TopKSimilarityQuery):
                return ts.estimate_spatial(self._first_ring(query))
            if isinstance(query, KNNPointQuery):
                return float(ts.cell_count_at(query.x, query.y))
            return None

    def _first_ring(self, query) -> MBR:
        """The executor's first expanding-ring window for a top-k / kNN query."""
        return query.ring(query.first_radius(self.config.boundary))

    # -- plan costing ---------------------------------------------------------

    def _route(self, index: str) -> Optional[str]:
        if index == self.config.primary_index:
            return "primary"
        if index in self.config.secondary_indexes:
            return "secondary"
        return None

    def _tr_window_count(self, tr: TimeRange) -> int:
        """Range scans the TR route opens (after coalescing, pre-sharding)."""
        return max(1, len(coalesce_inclusive_ranges(self._tr.query_ranges(tr))))

    def _cost_candidate(
        self, query: Query, index: str, route: str, ts: "TableStatistics"
    ) -> tuple[float, float]:
        """``(cost, est_rows_touched)`` for one applicable (index, route).

        Costs are in calibrated I/O units (:class:`CostConstants`): rows
        streamed through range scans, window-open overhead per scan (×
        shard count on the primary table), one point get per secondary
        match resolved, and decode work for surviving rows.
        """
        c = self.cost_constants
        shards = max(1, self.config.num_shards)
        matches = self.estimate_candidates(query) or 0.0
        # Only the secondary routes pay a point get per resolved match.
        gets = matches if route == "secondary" else 0.0

        if route == "scan":
            n = float(ts.row_count)
            return c.cost(rows=n, windows=shards, decodes=n), n

        time_range = getattr(query, "time_range", None)

        if index == "interval" and time_range is not None:
            # The merged main-tier run over-approximates with rows ending
            # up to N - 1 periods past the query end; price that tail from
            # the same histogram.  The push-down TemporalFilter prunes
            # before resolve, so only the true matches pay a point get.
            n = self.config.tr_max_periods
            tail = TimeRange(
                time_range.end,
                time_range.end + (n - 1) * self.config.tr_period_seconds,
            )
            rows = ts.estimate_temporal(time_range) + ts.estimate_temporal(tail)
            return c.cost(rows=rows, windows=2, point_gets=gets, decodes=matches), rows

        if index in ("tr", "st", "idt") and time_range is not None:
            rows = ts.estimate_temporal(time_range)
            wins = self._tr_window_count(time_range)
            if route == "primary":
                if index == "st" and isinstance(query, STRangeQuery):
                    # Fine ST windows push both predicates into the key space.
                    rows = ts.estimate_st(query.window, time_range) or rows
                wins *= shards
            return (
                c.cost(rows=rows, windows=wins, point_gets=gets, decodes=matches),
                rows,
            )

        if index == "tshape":
            if isinstance(query, ThresholdSimilarityQuery):
                window = query.query.mbr.expanded(query.threshold)
            elif isinstance(query, (TopKSimilarityQuery, KNNPointQuery)):
                window = self._first_ring(query)
            else:
                window = query.window
            rows = ts.estimate_spatial(window)
            wins = self._spatial_windows(window)
            return (
                c.cost(rows=rows, windows=wins, point_gets=gets, decodes=matches),
                rows,
            )

        # Unknown combination: infinitely expensive, never chosen.
        return float("inf"), 0.0

    # -- plan selection -------------------------------------------------------

    def _applicable(self, query: Query) -> list[tuple[str, str]]:
        """Every (index, route) the pipeline can execute, RBO order.

        Temporal predicates rank ``tr > st > interval``; an STRQ ranks the
        deployment's primary route before the secondary ones.
        """
        if isinstance(query, (IDTemporalQuery, TemporalRangeQuery)):
            indexes = TEMPORAL_INDEXES
            if isinstance(query, IDTemporalQuery):
                indexes = ("idt",) + indexes
            pairs = [(i, self._route(i)) for i in indexes]
        elif isinstance(query, STRangeQuery):
            pairs = [(i, self._route(i)) for i in ("tshape", "tr", "interval")]
            if self.config.primary_index == "st":
                pairs.insert(0, ("st", "primary"))
            pairs.sort(key=lambda pair: pair[1] != "primary")
        elif isinstance(
            query,
            (
                SpatialRangeQuery,
                ThresholdSimilarityQuery,
                TopKSimilarityQuery,
                KNNPointQuery,
            ),
        ):
            pairs = [("tshape", self._route("tshape"))]
        else:
            raise TypeError(f"unknown query type: {type(query).__name__}")
        return [p for p in pairs if p[1] is not None] or [("scan", "scan")]

    def _ranked(self, query: Query, cost_all: bool) -> list[PlanCandidate]:
        """The applicable plans, chosen plan first.

        The head is pinned by the RBO for the two absolute rules (``idt``
        for an ID-temporal query, ``st/primary`` for an STRQ on an
        ST-primary deployment: their windows are always the narrowest).
        Otherwise it is the first minimum-cost candidate, so ties and the
        no-statistics case keep RBO order.  ``cost_all=False`` skips the
        costing when it cannot change the head.
        """
        pairs = self._applicable(query)
        ts = self.table_statistics()
        pinned = (isinstance(query, IDTemporalQuery) and pairs[0][0] == "idt") or (
            isinstance(query, STRangeQuery) and pairs[0] == ("st", "primary")
        )
        rbo = pinned or len(pairs) == 1 or ts is None
        if ts is not None and (cost_all or not rbo):
            costs = [self._cost_candidate(query, i, r, ts) for i, r in pairs]
        else:
            costs = [(None, None)] * len(pairs)
        head = 0 if rbo else min(range(len(pairs)), key=lambda k: costs[k][0])
        index, route = pairs[head]
        if route == "scan":
            reason = "RBO: no applicable index, full scan"
        elif rbo:
            reason = (
                f"RBO: {index} is the primary index"
                if route == "primary"
                else f"RBO: {index} available as secondary"
            )
        else:
            cost, rows = costs[head]
            reason = (
                f"CBO: {index}/{route} cheapest of {len(pairs)} routes "
                f"(cost ~{cost:.0f}, ~{rows:.0f} rows)"
            )
        ranked = [PlanCandidate(QueryPlan(index, route, reason), *costs[head])]
        rest = [
            PlanCandidate(
                QueryPlan(i, r, f"alternative to {index}/{route}"), *costs[k]
            )
            for k, (i, r) in enumerate(pairs)
            if k != head
        ]
        # Stable on the RBO enumeration order for ties / un-costed plans.
        rest.sort(key=lambda c: c.cost if c.cost is not None else float("inf"))
        return ranked + rest

    def candidate_plans(self, query: Query) -> list[PlanCandidate]:
        """Every applicable plan with its estimated cost, chosen plan first.

        Deterministic; ``cost`` / ``est_rows`` are ``None`` without
        statistics.  ``repro explain`` renders it; the plan-equivalence
        tests force each entry.
        """
        with self._stats_scope():
            return self._ranked(query, cost_all=True)

    def plan(self, query: Query) -> QueryPlan:
        """Choose the index and route for a query: the head of
        :meth:`candidate_plans`."""
        with self._stats_scope():
            return self._ranked(query, cost_all=False)[0].plan
