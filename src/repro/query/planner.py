"""Rule-based and cost-based query optimization (§V-A).

The RBO encodes the paper's priority ``IDT > primary indexes > secondary
indexes`` and decides alone whenever no statistics exist.  With statistics
— the writer-fed per-table histograms of :mod:`repro.storage.statistics`,
the planner's only source — the CBO costs every applicable ``(index,
route)`` pair in modeled milliseconds: it predicts the I/O counters the
plan would add (one range scan per key window the deployment's window
source generates, rows scanned, the point get the secondary route pays per
match, rows returned) and prices them with the same
:class:`~repro.query.cost.CostModel` that prices every result's
``simulated_ms``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence

from repro.kvstore.scan import StatsSnapshot
from repro.model.timerange import TimeRange
from repro.query.cost import COST_MODEL
from repro.query.types import (
    IDTemporalQuery,
    KNNPointQuery,
    Query,
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
    ThresholdSimilarityQuery,
    TopKSimilarityQuery,
    search_of,
)
from repro.storage.config import TManConfig

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.storage.statistics import TableStatistics

# Indexes that can serve a purely temporal predicate, in RBO priority
# order (the ST index's TR prefix also answers temporal queries; the
# interval index trades window count for tail false positives).
TEMPORAL_INDEXES = ("tr", "st", "interval")

KeyWindows = Sequence[tuple[Optional[bytes], Optional[bytes]]]


@dataclass(frozen=True)
class QueryPlan:
    """The optimizer's decision: which index, via which route.

    ``estimate`` is the planner's prior for the rows the query will touch
    (:meth:`QueryPlanner.estimate_candidates`, from the statistics snapshot
    the plan was costed with); ``None`` without statistics and on a plan
    built by hand.  ``windows`` are the key windows the plan was priced on,
    which the pipeline then scans; ``None`` on a plan that was not costed.
    Neither takes part in plan equality.
    """

    index: str  # tr | tshape | st | idt | interval | scan
    route: str  # primary | secondary | scan
    reason: str
    estimate: Optional[float] = field(default=None, compare=False)
    windows: Optional[KeyWindows] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PlanCandidate:
    """One costed alternative from :meth:`QueryPlanner.candidate_plans`.

    ``cost`` is in modeled milliseconds; ``cost`` and ``est_rows`` are
    ``None`` when no statistics were available to cost the plan (pure-RBO
    planning).
    """

    plan: QueryPlan
    cost: Optional[float]
    est_rows: Optional[float]


class QueryPlanner:
    """Maps a query to the cheapest applicable index."""

    def __init__(self, config: TManConfig):
        self.config = config
        # Prices every candidate; TMan.calibrate_costs swaps in a fitted one.
        self.cost_model = COST_MODEL
        self._table_stats: Optional[
            Callable[[], Optional["TableStatistics"]]
        ] = None
        self._window_source: Optional[Callable[[Query, str, str], KeyWindows]] = None
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

    def set_window_source(
        self, source: Callable[[Query, str, str], KeyWindows]
    ) -> None:
        """Attach the map from ``(query, index, route)`` to the key windows
        that plan scans.

        The deployment wires this to :func:`repro.query.pipeline.key_windows`,
        so a route is priced at the range scans its pipeline opens: a wide
        TShape window expands to thousands of directory-pruned ranges,
        replicated per shard on the primary table.  Without a source every
        route is priced at one window.
        """
        self._window_source = source

    @contextmanager
    def _stats_scope(self) -> Iterator[None]:
        """Freeze one statistics snapshot for the whole planning call.

        Without the scope, every selectivity estimate re-pulled the live
        provider, so a write landing mid-plan could cost half the
        candidate matrix against the old histograms and half against the
        new ones — inconsistent costs, and a chosen plan that none of the
        printed candidates actually describes.  Nested scopes (the
        estimate the planning call asks for) reuse the outer snapshot;
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
        Each planning call asks once and the chosen :class:`QueryPlan`
        carries the answer, so the workload statistics compare the prior
        the plan was costed with against the observed candidate count —
        the feedback signal an adaptive CBO needs.
        """
        with self._stats_scope():
            ts = self.table_statistics()
            if ts is None:
                return None
            if isinstance(query, (TemporalRangeQuery, IDTemporalQuery)):
                # No per-object statistics: the temporal fraction is the
                # best (over-)estimate available for ID-temporal queries.
                return ts.estimate_temporal(query.time_range)
            if isinstance(query, STRangeQuery):
                # Independence assumption for the conjunction.
                return ts.estimate_st(query.window, query.time_range)
            if isinstance(query, KNNPointQuery):
                return float(ts.cell_count_at(query.x, query.y))
            # SRQ, threshold and top-k: the window the query searches.
            return ts.estimate_spatial(search_of(query, self.config.boundary)["window"])

    # -- plan costing ---------------------------------------------------------

    def _route(self, index: str) -> Optional[str]:
        if index == self.config.primary_index:
            return "primary"
        if index in self.config.secondary_indexes:
            return "secondary"
        return None

    def _cost_candidate(
        self, query: Query, index: str, route: str, ts: "TableStatistics", matches: float
    ) -> tuple[float, float, Optional[KeyWindows]]:
        """``(cost, est_rows_touched, windows)`` for one applicable (index, route).

        The cost is :attr:`cost_model`'s price, in modeled milliseconds,
        of the counters the plan would add, counted as the regions count
        them: one range scan per key window the window source generates
        for the plan (one without a source), the ``rows`` touched as
        scanned, one point get per secondary match resolved (one more row
        scanned and returned), and the ``matches`` (the query's estimate)
        as the rows returned.
        """
        if route == "scan":
            rows = float(ts.row_count)
        elif index == "tshape":
            rows = ts.estimate_spatial(search_of(query, self.config.boundary)["window"])
        elif index == "interval":
            # The merged main-tier run over-approximates with rows ending
            # up to N - 1 periods past the query end; price that tail from
            # the same histogram.  The push-down TemporalFilter prunes
            # before resolve, so only the true matches pay a point get.
            end = query.time_range.end
            tail = TimeRange(
                end, end + (self.config.tr_max_periods - 1) * self.config.tr_period_seconds
            )
            rows = ts.estimate_temporal(query.time_range) + ts.estimate_temporal(tail)
        else:
            rows = ts.estimate_temporal(query.time_range)
            if index == "st" and route == "primary" and isinstance(query, STRangeQuery):
                # Fine ST windows push both predicates into the key space.
                rows = ts.estimate_st(query.window, query.time_range) or rows
        windows = (
            None if self._window_source is None
            else self._window_source(query, index, route)
        )
        # Only the secondary routes pay a point get per resolved match.
        gets = matches if route == "secondary" else 0.0
        counters = StatsSnapshot(
            range_scans=1 if windows is None else len(windows),
            rows_scanned=rows + gets,
            rows_returned=matches + gets,
            point_gets=gets,
        )
        return self.cost_model.simulate_ms(counters), rows, windows

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
        costing when it cannot change the head.  The query's estimate is
        asked for once and rides the head plan.
        """
        pairs = self._applicable(query)
        ts = self.table_statistics()
        estimate = self.estimate_candidates(query)
        pinned = (isinstance(query, IDTemporalQuery) and pairs[0][0] == "idt") or (
            isinstance(query, STRangeQuery) and pairs[0] == ("st", "primary")
        )
        rbo = pinned or len(pairs) == 1 or ts is None
        if ts is not None and (cost_all or not rbo):
            costs = [self._cost_candidate(query, i, r, ts, estimate or 0.0) for i, r in pairs]
        else:
            costs = [(None, None, None)] * len(pairs)
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
            cost, rows, _ = costs[head]
            reason = (
                f"CBO: {index}/{route} cheapest of {len(pairs)} routes "
                f"(cost ~{cost:.2f} ms, ~{rows:.0f} rows)"
            )
        cost, rows, windows = costs[head]
        ranked = [PlanCandidate(QueryPlan(index, route, reason, estimate, windows), cost, rows)]
        rest = [
            PlanCandidate(
                QueryPlan(i, r, f"alternative to {index}/{route}"), *costs[k][:2]
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
