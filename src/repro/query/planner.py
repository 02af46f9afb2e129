"""Rule-based and cost-based query optimization (§V-A).

The RBO encodes the paper's priority ``IDT > primary indexes > secondary
indexes`` and is the fallback whenever no statistics exist.  With
statistics — the learned per-table histograms maintained at
flush/compaction time (:mod:`repro.storage.statistics`) when available,
else the write-path reservoir :class:`DataStatistics` — the CBO costs
every applicable ``(index, route)`` pair in calibrated I/O units
(:mod:`repro.query.cost`): range-scan rows, window opens, the point-get
round trip the secondary route pays per match, and decode work.  The
old flat ``SECONDARY_LOOKUP_PENALTY`` multiplier is gone; the penalty is
now the calibrated ``point_get`` constant applied per resolved row.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Union

from repro.core.interval import IntervalIndex
from repro.core.temporal import TRIndex
from repro.model.mbr import MBR
from repro.model.timerange import TimeRange
from repro.query.cost import CostConstants
from repro.query.types import (
    IDTemporalQuery,
    KNNPointQuery,
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

Query = Union[
    TemporalRangeQuery,
    SpatialRangeQuery,
    STRangeQuery,
    IDTemporalQuery,
    ThresholdSimilarityQuery,
    TopKSimilarityQuery,
]

# Indexes that can serve a purely temporal predicate, in RBO priority
# order (the ST index's TR prefix also answers temporal queries; the
# interval index trades window count for tail false positives).
TEMPORAL_INDEXES = ("tr", "st", "interval")


@dataclass(frozen=True)
class DataStatistics:
    """Dataset statistics the CBO uses for selectivity estimates.

    When a reservoir ``sample`` of (MBR, TimeRange) row summaries is
    available, selectivities are estimated as the matching fraction of the
    sample (unbiased, distribution-aware); otherwise the estimator falls
    back to coarse extent ratios.
    """

    row_count: int
    time_span: TimeRange
    dense_region: MBR
    sample: tuple[tuple[MBR, TimeRange], ...] = ()

    def temporal_selectivity(self, tr: TimeRange) -> float:
        """Estimated fraction of rows whose time range hits ``tr``."""
        if self.sample:
            hits = sum(1 for _, row_tr in self.sample if row_tr.intersects(tr))
            return hits / len(self.sample)
        span = max(1e-9, self.time_span.duration)
        overlap = tr.intersection(self.time_span)
        if overlap is None:
            return 0.0
        frac = overlap.duration / span
        if frac <= 0.0:
            # Degenerate (instant) windows inside the span used to
            # estimate zero rows even though rows at that instant exist;
            # clamp to the one-row granularity floor instead.
            return min(1.0, 1.0 / max(1, self.row_count))
        return frac

    def spatial_selectivity(self, window: MBR) -> float:
        """Estimated fraction of rows whose MBR hits ``window``."""
        if self.sample:
            hits = sum(1 for mbr, _ in self.sample if mbr.intersects(window))
            return hits / len(self.sample)
        area = max(1e-18, self.dense_region.area)
        overlap = window.intersection(self.dense_region)
        return min(1.0, (overlap.area / area)) if overlap else 0.0


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

    def __init__(self, config: TManConfig, stats: Optional[DataStatistics] = None):
        self.config = config
        self.stats = stats
        self.cost_constants = CostConstants()
        self._table_stats: Optional[
            Callable[[], Optional["TableStatistics"]]
        ] = None
        self._tr = TRIndex(
            config.tr_period_seconds, config.tr_max_periods, config.time_origin
        )
        self._interval = IntervalIndex(
            config.tr_period_seconds, config.tr_max_periods, config.time_origin
        )
        self._spatial_window_counter: Optional[Callable[[MBR], int]] = None
        # Per-thread frozen statistics snapshot for the duration of one
        # planning call (see _stats_scope); thread-local because one
        # planner serves concurrent queries.
        self._stats_scope_state = threading.local()

    # -- statistics plumbing --------------------------------------------------

    def update_statistics(self, stats: DataStatistics) -> None:
        """Replace the reservoir statistics snapshot the CBO plans with."""
        self.stats = stats

    def set_statistics_provider(
        self, provider: Callable[[], Optional["TableStatistics"]]
    ) -> None:
        """Attach the learned-statistics source (pulled once per plan).

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
        deployment wires this to the live index's ``query_ranges`` (cached,
        so the pipeline reuses the expansion the planner just counted).
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
        provider, so a flush landing mid-plan could cost half the
        candidate matrix against the old histograms and half against the
        new ones — inconsistent costs, and a chosen plan that none of the
        printed candidates actually describes.  Nested scopes (``plan``
        inside ``candidate_plans``) reuse the outer snapshot; the state is
        thread-local so concurrent queries each freeze their own.
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
        """The current learned statistics snapshot, or None before any flush.

        Inside a planning call this returns the snapshot frozen at plan
        start; outside one it pulls the provider live.
        """
        state = self._stats_scope_state
        if getattr(state, "active", False):
            return state.snapshot
        return self._table_stats() if self._table_stats is not None else None

    def _has_stats(self) -> bool:
        return self.table_statistics() is not None or self.stats is not None

    def _row_count(self) -> int:
        ts = self.table_statistics()
        if ts is not None:
            return ts.row_count
        return self.stats.row_count if self.stats is not None else 0

    # -- selectivity estimates ------------------------------------------------

    def _est_temporal(self, tr: TimeRange) -> Optional[float]:
        ts = self.table_statistics()
        if ts is not None:
            return ts.estimate_temporal(tr)
        if self.stats is not None:
            return self.stats.row_count * self.stats.temporal_selectivity(tr)
        return None

    def _est_spatial(self, window: MBR) -> Optional[float]:
        ts = self.table_statistics()
        if ts is not None:
            return ts.estimate_spatial(window)
        if self.stats is not None:
            return self.stats.row_count * self.stats.spatial_selectivity(window)
        return None

    def _est_st(self, window: MBR, tr: TimeRange) -> Optional[float]:
        ts = self.table_statistics()
        if ts is not None:
            return ts.estimate_st(window, tr)
        if self.stats is not None:
            return (
                self.stats.row_count
                * self.stats.temporal_selectivity(tr)
                * self.stats.spatial_selectivity(window)
            )
        return None

    @staticmethod
    def _first_ring(query: TopKSimilarityQuery) -> MBR:
        """The executor's first expanding-ring window for a top-k query."""
        qmbr = query.query.mbr
        diag = max(1e-4, (qmbr.width**2 + qmbr.height**2) ** 0.5)
        return qmbr.expanded(diag / 4.0)

    def estimate_candidates(self, query: Query) -> Optional[float]:
        """The planner's prior for rows a query will touch.

        ``None`` without statistics.  Range shapes estimate from the
        period/cell histograms (or the reservoir sample); similarity and
        kNN shapes estimate the first expanding ring's spatial candidates
        via the cell histogram.  The workload-statistics collector
        compares this prior against the observed candidate count, which
        is exactly the feedback signal an adaptive CBO needs.
        """
        with self._stats_scope():
            return self._estimate_candidates(query)

    def _estimate_candidates(self, query: Query) -> Optional[float]:
        if isinstance(query, TemporalRangeQuery):
            return self._est_temporal(query.time_range)
        if isinstance(query, SpatialRangeQuery):
            return self._est_spatial(query.window)
        if isinstance(query, STRangeQuery):
            # Independence assumption for the conjunction.
            return self._est_st(query.window, query.time_range)
        if isinstance(query, IDTemporalQuery):
            # No per-object statistics yet: the temporal fraction is the
            # best (over-)estimate available.
            return self._est_temporal(query.time_range)
        if isinstance(query, ThresholdSimilarityQuery):
            return self._est_spatial(query.query.mbr.expanded(query.threshold))
        if isinstance(query, TopKSimilarityQuery):
            return self._est_spatial(self._first_ring(query))
        if isinstance(query, KNNPointQuery):
            ts = self.table_statistics()
            if ts is not None:
                return float(ts.cell_count_at(query.x, query.y))
            if self.stats is not None:
                b = self.stats.dense_region
                r = max(1e-9, min(b.width, b.height) / 64.0)
                ring = MBR(query.x - r, query.y - r, query.x + r, query.y + r)
                return self.stats.row_count * self.stats.spatial_selectivity(ring)
            return None
        return None

    def plan_pipeline(
        self,
        tman,
        query: Query,
        trace=None,
        limit: Optional[int] = None,
        count: bool = False,
    ):
        """Plan a query and assemble the streaming pipeline that executes it.

        Single-pass query types only (range, ID-temporal, threshold
        similarity); the iterative types are driven round-by-round by the
        executor.  Returns a :class:`repro.query.pipeline.Pipeline` whose
        ``plan`` attribute is this planner's decision.
        """
        from repro.query.pipeline import build_pipeline

        plan = self.plan(query)
        return build_pipeline(
            tman, query, plan, trace=trace, limit=limit, count=count
        )

    # -- route helpers -------------------------------------------------------

    def _route(self, index: str) -> Optional[str]:
        if index == self.config.primary_index:
            return "primary"
        if index in self.config.secondary_indexes:
            return "secondary"
        return None

    def _first_available(self, *indexes: str) -> Optional[QueryPlan]:
        for index in indexes:
            route = self._route(index)
            if route == "primary":
                return QueryPlan(index, route, f"RBO: {index} is the primary index")
            if route == "secondary":
                return QueryPlan(index, route, f"RBO: {index} available as secondary")
        return None

    def _temporal_routes(self) -> list[tuple[str, str]]:
        """Configured temporal ``(index, route)`` pairs in RBO order."""
        out = []
        for index in TEMPORAL_INDEXES:
            route = self._route(index)
            if route is not None:
                out.append((index, route))
        return out

    # -- plan costing ---------------------------------------------------------

    def _tr_window_count(self, tr: TimeRange) -> int:
        """Range scans the TR route opens (after coalescing, pre-sharding)."""
        try:
            ranges = self._tr.query_ranges(tr)
        except ValueError:  # pre-origin instants: pessimistic N windows
            return self.config.tr_max_periods
        return max(1, len(coalesce_inclusive_ranges(ranges)))

    def _interval_rows(self, tr: TimeRange) -> float:
        """Rows the interval route touches: matches plus the tail.

        The merged main-tier run deliberately over-approximates with rows
        ending up to ``N - 1`` periods past the query end; estimate that
        tail from the same histogram so the CBO sees the route's real
        price on dense-tail data.
        """
        matches = self._est_temporal(tr) or 0.0
        n = self.config.tr_max_periods
        tail = TimeRange(tr.end, tr.end + (n - 1) * self.config.tr_period_seconds)
        return matches + (self._est_temporal(tail) or 0.0)

    def _cost_candidate(
        self, query: Query, index: str, route: str
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

        if index == "scan" or route == "scan":
            n = float(self._row_count())
            return c.cost(rows=n, windows=shards, decodes=n), n

        time_range = getattr(query, "time_range", None)

        if index == "interval" and time_range is not None:
            # Scans matches plus the over-approximated tail, but the
            # push-down TemporalFilter prunes before resolve: only the
            # true matches pay a point get.
            rows = self._interval_rows(time_range)
            return (
                c.cost(rows=rows, windows=2, point_gets=matches, decodes=matches),
                rows,
            )

        if index in ("tr", "st", "idt") and time_range is not None:
            rows = self._est_temporal(time_range) or 0.0
            wins = self._tr_window_count(time_range)
            if (
                index == "st"
                and route == "primary"
                and isinstance(query, STRangeQuery)
            ):
                # Fine ST windows push both predicates into the key space.
                rows = self._est_st(query.window, time_range) or rows
            if route == "primary":
                return (
                    c.cost(rows=rows, windows=wins * shards, decodes=matches),
                    rows,
                )
            return (
                c.cost(rows=rows, windows=wins, point_gets=matches, decodes=matches),
                rows,
            )

        if index == "tshape":
            if isinstance(query, ThresholdSimilarityQuery):
                window = query.query.mbr.expanded(query.threshold)
            elif isinstance(query, TopKSimilarityQuery):
                window = self._first_ring(query)
            elif isinstance(query, KNNPointQuery):
                b = self.config.boundary
                r = min(b.width, b.height) / 64.0
                window = MBR(query.x - r, query.y - r, query.x + r, query.y + r)
            else:
                window = query.window
            rows = self._est_spatial(window) or 0.0
            wins = self._spatial_windows(window)
            if route == "primary":
                return c.cost(rows=rows, windows=wins, decodes=matches), rows
            return (
                c.cost(rows=rows, windows=wins, point_gets=matches, decodes=matches),
                rows,
            )

        # Unknown combination: infinitely expensive, never chosen.
        return float("inf"), 0.0

    def _applicable(self, query: Query) -> list[tuple[str, str]]:
        """Every (index, route) the pipeline can execute, RBO order."""
        if isinstance(query, IDTemporalQuery):
            pairs = []
            idt_route = self._route("idt")
            if idt_route is not None:
                pairs.append(("idt", idt_route))
            pairs.extend(self._temporal_routes())
            return pairs or [("scan", "scan")]
        if isinstance(query, TemporalRangeQuery):
            return self._temporal_routes() or [("scan", "scan")]
        if isinstance(query, SpatialRangeQuery):
            route = self._route("tshape")
            return [("tshape", route)] if route else [("scan", "scan")]
        if isinstance(query, STRangeQuery):
            pairs = []
            if self.config.primary_index == "st":
                pairs.append(("st", "primary"))
            tshape_route = self._route("tshape")
            if tshape_route is not None:
                pairs.append(("tshape", tshape_route))
            for index in ("tr", "interval"):
                route = self._route(index)
                if route is not None:
                    pairs.append((index, route))
            return pairs or [("scan", "scan")]
        if isinstance(
            query, (ThresholdSimilarityQuery, TopKSimilarityQuery, KNNPointQuery)
        ):
            route = self._route("tshape")
            return [("tshape", route)] if route else [("scan", "scan")]
        raise TypeError(f"unknown query type: {type(query).__name__}")

    def candidate_plans(self, query: Query) -> list[PlanCandidate]:
        """Every applicable plan with its estimated cost, chosen plan first.

        Deterministic: ties and the no-statistics case keep the RBO
        priority order.  The executor's adaptive re-planner walks this
        list when the running plan's observed candidates diverge from the
        estimate; ``repro explain`` renders it.
        """
        with self._stats_scope():
            return self._candidate_plans(query)

    def _candidate_plans(self, query: Query) -> list[PlanCandidate]:
        chosen = self.plan(query)
        pairs = self._applicable(query)
        if (chosen.index, chosen.route) not in pairs:
            pairs.insert(0, (chosen.index, chosen.route))
        costed: list[PlanCandidate] = []
        for index, route in pairs:
            cost = rows = None
            if self._has_stats():
                cost, rows = self._cost_candidate(query, index, route)
            if (index, route) == (chosen.index, chosen.route):
                plan = chosen
            else:
                plan = QueryPlan(
                    index,
                    route,
                    f"alternative to {chosen.index}/{chosen.route}",
                )
            costed.append(PlanCandidate(plan, cost, rows))
        # Chosen plan leads; the rest follow by estimated cost (stable on
        # the RBO enumeration order for ties / un-costed plans).
        head = [c for c in costed if c.plan is chosen]
        tail = [c for c in costed if c.plan is not chosen]
        tail.sort(key=lambda c: c.cost if c.cost is not None else float("inf"))
        return head + tail

    # -- planning -------------------------------------------------------------

    def _plan_temporal(self, time_range: TimeRange, query: Query) -> QueryPlan:
        """Choose among the configured temporal indexes for one time range."""
        routes = self._temporal_routes()
        if not routes:
            return QueryPlan("scan", "scan", "no temporal index available")
        if len(routes) == 1 or not self._has_stats():
            # RBO: priority order, primary over secondary messaging.
            plan = self._first_available(*TEMPORAL_INDEXES)
            assert plan is not None
            return plan
        best = None
        for index, route in routes:
            cost, rows = self._cost_candidate(query, index, route)
            if best is None or cost < best[0]:
                best = (cost, index, route, rows)
        cost, index, route, rows = best
        return QueryPlan(
            index,
            route,
            f"CBO: {index}/{route} cheapest temporal route "
            f"(cost ~{cost:.0f}, ~{rows:.0f} rows)",
        )

    def plan(self, query: Query) -> QueryPlan:
        """Choose the index and route for a query (RBO + CBO)."""
        with self._stats_scope():
            return self._plan(query)

    def _plan(self, query: Query) -> QueryPlan:
        if isinstance(query, IDTemporalQuery):
            # IDT has the highest RBO priority (§V-A) — absolute, never
            # outbid by cost: its per-object windows are always narrowest.
            plan = self._first_available("idt")
            if plan:
                return plan
            return self._plan_temporal(query.time_range, query)

        if isinstance(query, TemporalRangeQuery):
            return self._plan_temporal(query.time_range, query)

        if isinstance(query, SpatialRangeQuery):
            plan = self._first_available("tshape")
            return plan or QueryPlan("scan", "scan", "no spatial index available")

        if isinstance(query, STRangeQuery):
            return self._plan_strq(query)

        if isinstance(query, (ThresholdSimilarityQuery, TopKSimilarityQuery, KNNPointQuery)):
            plan = self._first_available("tshape")
            return plan or QueryPlan("scan", "scan", "no spatial index available")

        raise TypeError(f"unknown query type: {type(query).__name__}")

    def _plan_strq(self, query: STRangeQuery) -> QueryPlan:
        if self.config.primary_index == "st":
            return QueryPlan("st", "primary", "RBO: ST primary serves STRQ directly")

        spatial = self._route("tshape")
        temporal_routes = [
            (i, r) for i, r in self._temporal_routes() if i != "st"
        ]
        if spatial is None and not temporal_routes:
            return QueryPlan("scan", "scan", "no applicable index")
        if spatial is None:
            if len(temporal_routes) == 1 or not self._has_stats():
                index, route = temporal_routes[0]
                return QueryPlan(index, route, "only a temporal index is available")
            return self._plan_temporal(query.time_range, query)
        if not temporal_routes:
            return QueryPlan("tshape", spatial, "only a spatial index is available")

        if not self._has_stats():
            # Without statistics fall back to the RBO priority: primary wins.
            if spatial == "primary":
                return QueryPlan("tshape", "primary", "RBO: primary over secondary")
            index, route = temporal_routes[0]
            return QueryPlan(index, route, "RBO: primary over secondary")

        # CBO: calibrated cost of every applicable route; the secondary
        # routes pay the point-get constant per resolved candidate.
        cost_spatial, rows_spatial = self._cost_candidate(query, "tshape", spatial)
        best_t = None
        for index, route in temporal_routes:
            cost, rows = self._cost_candidate(query, index, route)
            if best_t is None or cost < best_t[0]:
                best_t = (cost, index, route, rows)
        cost_temporal, t_index, t_route, rows_temporal = best_t

        if cost_spatial <= cost_temporal:
            return QueryPlan(
                "tshape",
                spatial,
                f"CBO: spatial route cost ~{cost_spatial:.0f} "
                f"(~{rows_spatial:.0f} rows) <= {t_index} ~{cost_temporal:.0f}",
            )
        return QueryPlan(
            t_index,
            t_route,
            f"CBO: {t_index} route cost ~{cost_temporal:.0f} "
            f"(~{rows_temporal:.0f} rows) < spatial ~{cost_spatial:.0f}",
        )
