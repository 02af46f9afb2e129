"""System-level CBO tests: plan equivalence, learned-statistics refresh,
costed choices (interval vs TR, planner regret) and adaptive mid-query
re-planning.

The equivalence matrix is the optimizer's core safety property: whatever
plan the CBO picks — or the re-planner switches to mid-query — the result
set is bit-identical to every other applicable plan's.
"""

from __future__ import annotations

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.model import MBR, TimeRange
from repro.model.pointblock import PointBlock
from repro.model.trajectory import Trajectory
from repro.query.cost import calibrate
from repro.query.planner import QueryPlan
from repro.query.types import SpatialRangeQuery, STRangeQuery, TemporalRangeQuery

from .conftest import seven_queries

N_TRAJS = 80
SEED = 515


def _make(dataset, **overrides):
    config = TManConfig(
        boundary=TDRIVE_SPEC.boundary,
        max_resolution=12,
        num_shards=2,
        kv_workers=2,
        split_rows=500,
        **overrides,
    )
    tman = TMan(config)
    tman.bulk_load(dataset)
    tman.flush()
    return tman


@pytest.fixture(scope="module")
def dataset():
    return tdrive_like(N_TRAJS, seed=SEED)


@pytest.fixture(scope="module")
def deployments(dataset):
    tmans = {
        "tshape_primary": _make(
            dataset, secondary_indexes=("tr", "idt", "interval")
        ),
        "st_primary": _make(
            dataset,
            primary_index="st",
            secondary_indexes=("tshape", "idt", "interval"),
        ),
    }
    yield tmans
    for tman in tmans.values():
        tman.close()


QUERY_NAMES = ["temporal", "spatial", "st", "idt", "threshold", "topk", "knn"]
DEPLOYMENTS = ["tshape_primary", "st_primary"]


@pytest.mark.parametrize("dname", DEPLOYMENTS)
@pytest.mark.parametrize("qname", QUERY_NAMES)
def test_every_plan_is_equivalent(deployments, dataset, dname, qname):
    """Forced-TR, forced-interval, and every other applicable plan must
    produce the CBO-chosen plan's exact candidate set."""
    tman = deployments[dname]
    q = seven_queries(dataset)[qname]
    base = tman.query(q)
    base_tids = sorted(t.tid for t in base.trajectories)
    candidates = tman.planner.candidate_plans(q)
    assert len(candidates) >= 1
    for cand in candidates:
        forced = tman.query(q, plan=cand.plan)
        assert sorted(t.tid for t in forced.trajectories) == base_tids, (
            f"{qname} via {cand.plan.index}/{cand.plan.route} diverged"
        )
        if base.distances is not None:
            assert sorted(forced.distances) == pytest.approx(
                sorted(base.distances)
            )


@pytest.mark.parametrize("dname", DEPLOYMENTS)
def test_temporal_has_interval_alternative(deployments, dataset, dname):
    q = seven_queries(dataset)["temporal"]
    pairs = [
        (c.plan.index, c.plan.route)
        for c in deployments[dname].planner.candidate_plans(q)
    ]
    assert ("interval", "secondary") in pairs


def test_explain_plans_structure(deployments, dataset):
    tman = deployments["tshape_primary"]
    plans = tman.explain_plans(seven_queries(dataset)["temporal"])
    assert plans[0]["chosen"] is True
    assert all(not p["chosen"] for p in plans[1:])
    for p in plans:
        assert p["index"] and p["route"] and p["reason"]
        assert p["cost"] is not None and p["cost"] >= 0


class TestStatisticsRefresh:
    def test_bulk_load_alone_moves_estimates(self):
        dataset = tdrive_like(40, seed=99)
        config = TManConfig(
            boundary=TDRIVE_SPEC.boundary,
            max_resolution=12,
            num_shards=2,
            kv_workers=1,
            split_rows=5000,
        )
        with TMan(config) as tman:
            assert tman.table_statistics() is None
            tman.bulk_load(dataset[:20])
            first = tman.table_statistics()
            assert first is not None and first.row_count == 20

            span = TimeRange(
                min(t.time_range.start for t in dataset),
                max(t.time_range.end for t in dataset),
            )
            est_before = tman.planner.estimate_candidates(
                TemporalRangeQuery(span)
            )
            assert est_before == pytest.approx(20.0)

            # Second ingest: the writer feeds the statistics, so the
            # planner's estimate moves with no flush or refresh call.
            tman.bulk_load(dataset[20:])
            est_after = tman.planner.estimate_candidates(
                TemporalRangeQuery(span)
            )
            assert est_after == pytest.approx(40.0)
            assert tman.table_statistics().generation > first.generation

    def test_cbo_uses_data_aware_estimate(self):
        """The cell histogram drives the estimate: an empty-region STRQ costs
        the spatial route at ~zero rows, and the costed pick matches the plan
        that is actually cheapest to run (the spatial expansion's window
        count is priced live, so a many-window tshape scan can lose to a
        single-window TR scan even at zero selectivity)."""
        data = tdrive_like(200, seed=35)
        with TMan(TManConfig(boundary=TDRIVE_SPEC.boundary, max_resolution=12,
                             num_shards=1, kv_workers=1)) as tman:
            tman.bulk_load(data)
            b = TDRIVE_SPEC.boundary
            empty_corner = MBR(b.x2 - 0.05, b.y1, b.x2, b.y1 + 0.05)
            wide_time = TimeRange(0, TDRIVE_SPEC.time_span)
            query = STRangeQuery(empty_corner, wide_time)
            candidates = tman.planner.candidate_plans(query)
            spatial = next(
                c for c in candidates if c.plan.index == "tshape"
            )
            assert spatial.est_rows == 0  # the histogram sees the empty corner
            plan = tman.planner.plan(query)
            assert "CBO" in plan.reason
            # The costed pick must be the plan that actually runs cheapest.
            best = min(
                candidates,
                key=lambda c: tman.query(
                    query, plan=QueryPlan(c.plan.index, c.plan.route, "forced")
                ).simulated_ms,
            )
            assert (plan.index, plan.route) == (
                best.plan.index,
                best.plan.route,
            )

    def test_calibrate_costs_noop_without_profiles(self):
        from repro.obs import profile_log

        config = TManConfig(boundary=TDRIVE_SPEC.boundary, kv_workers=1)
        with TMan(config) as tman:
            profile_log().clear()  # isolate from other tests' queries
            before = tman.planner.cost_constants
            assert tman.calibrate_costs() is False
            assert tman.planner.cost_constants == before


HOUR = 3600.0
SPAN_HOURS = 40.0


def _retime(trajs, spans):
    """Stretch each (multi-point) trajectory onto an exact (start, end) span."""
    out = []
    for t, (t0, t1) in zip(trajs, spans):
        ts, xs, ys = t.xy_arrays()
        grid = t0 + (ts - ts[0]) / (ts[-1] - ts[0]) * (t1 - t0)
        out.append(Trajectory(t.oid, t.tid, PointBlock(grid, xs, ys, validate=False)))
    return out


class TestCostedChoices:
    """The CBO's two headline claims on an increasing-ending-time workload.

    Every assertion is on scan counts or ``simulated_ms`` — a pure
    function of the I/O counters — so the numbers repeat exactly.
    """

    N = 150
    MAX_REGRET = 0.15

    @pytest.fixture(scope="class")
    def tman(self):
        """Half-hour trips whose ending times climb over a 40 h span."""
        n = self.N
        raw = sorted(
            tdrive_like(n, seed=11, max_points=40), key=lambda t: t.time_range.end
        )
        starts = [(i / n) * SPAN_HOURS * HOUR for i in range(n)]
        config = TManConfig(
            boundary=TDRIVE_SPEC.boundary,
            max_resolution=10,
            num_shards=2,
            kv_workers=2,
            split_rows=50_000,
            secondary_indexes=("tr", "idt", "interval"),
        )
        with TMan(config) as tman:
            tman.bulk_load(_retime(raw, [(s, s + 0.5 * HOUR) for s in starts]))
            tman.flush()
            yield tman

    def test_interval_opens_two_scans_where_tr_opens_many(self, tman):
        """Recent-window TRQs: the LIT-style interval index answers in two
        range scans, the TR expansion in >= 10x as many, and the CBO picks
        the interval route without being forced."""
        for i in range(3):
            end = (SPAN_HOURS - 0.5 - i * 0.5) * HOUR
            q = TemporalRangeQuery(TimeRange(end - 1.5 * HOUR, end))
            tr = tman.query(q, plan=QueryPlan("tr", "secondary", "forced"))
            interval = tman.query(
                q, plan=QueryPlan("interval", "secondary", "forced")
            )
            assert interval.windows <= 2
            assert tr.windows >= 10 * interval.windows
            assert interval.simulated_ms < tr.simulated_ms
            assert tman.query(q).plan == "interval/secondary"

    def _mixed_workload(self):
        span = TDRIVE_SPEC.boundary
        mid_x = (span.x1 + span.x2) / 2
        mid_y = (span.y1 + span.y2) / 2
        st_window = MBR(span.x1, span.y1, mid_x, mid_y)
        queries = []
        for i in range(3):
            t0 = (i * 6.3) % (SPAN_HOURS - 2.0) * HOUR
            queries.append(TemporalRangeQuery(TimeRange(t0, t0 + 2.0 * HOUR)))
            queries.append(STRangeQuery(st_window, TimeRange(t0, t0 + 3.0 * HOUR)))
        queries.append(
            SpatialRangeQuery(
                MBR(span.x1, span.y1, span.x1 + (span.x2 - span.x1) * 0.3, mid_y)
            )
        )
        return queries

    def test_calibrated_regret_is_bounded(self, tman):
        """Constants fitted to the forced-plan matrix keep the planner within
        15 % of the oracle, and never do worse than the defaults."""
        queries = self._mixed_workload()
        # Every candidate plan of every query, forced: the per-query oracle
        # (cheapest run) and the calibration corpus in one pass.
        forced = [
            [tman.query(q, plan=c.plan) for c in tman.planner.candidate_plans(q)]
            for q in queries
        ]
        oracle_ms = sum(min(r.simulated_ms for r in runs) for runs in forced)

        def regret():
            return sum(tman.query(q).simulated_ms for q in queries) / oracle_ms - 1.0

        defaults = tman.planner.cost_constants
        default_regret = regret()
        # Fit against the simulated cost, the unit regret is in.
        samples = [
            {**r.profile.as_dict(), "elapsed_ms": r.simulated_ms}
            for runs in forced
            for r in runs
        ]
        tman.planner.set_cost_constants(calibrate(samples, defaults=defaults))
        try:
            calibrated_regret = regret()
        finally:
            tman.planner.set_cost_constants(defaults)
        assert calibrated_regret <= self.MAX_REGRET
        assert calibrated_regret <= default_regret + 1e-9


class TestAdaptiveReplan:
    @pytest.fixture()
    def skewed_tman(self):
        """Statistics stale-low: the planner keeps a snapshot taken before a
        large burst, so its estimate diverges from what a query touches."""
        dataset = tdrive_like(120, seed=77)
        config = TManConfig(
            boundary=TDRIVE_SPEC.boundary,
            max_resolution=12,
            num_shards=2,
            kv_workers=1,
            split_rows=5000,
            secondary_indexes=("tr", "idt", "interval"),
            adaptive_replan=True,
            replan_divergence_ratio=1.5,
            replan_min_candidates=0,
        )
        tman = TMan(config)
        # Statistics see only the first sliver of data...
        tman.bulk_load(dataset[:10])
        tman.flush()
        stale = tman.table_statistics()
        # ...the planner is pinned to that snapshot while the bulk arrives.
        tman.bulk_load(dataset[10:])
        tman.planner.set_statistics_provider(lambda: stale)
        yield tman, dataset
        tman.close()

    def _span(self, dataset):
        return TimeRange(
            min(t.time_range.start for t in dataset),
            max(t.time_range.end for t in dataset),
        )

    def test_replan_triggers_and_results_match(self, skewed_tman):
        tman, dataset = skewed_tman
        q = TemporalRangeQuery(self._span(dataset))
        est = tman.planner.estimate_candidates(q)
        assert est is not None and est <= 15  # stale-low prior
        result = tman.query(q)
        assert result.trace is not None
        assert "replanned_from" in result.trace.annotations
        assert result.trace.annotations["replan_observed_rows"] > est
        # The re-planned run returns exactly what a forced clean run does.
        chosen_index = result.plan.split("/")[0]
        forced = tman.query(q, plan=QueryPlan(chosen_index, "secondary", "forced"))
        assert [t.tid for t in result.trajectories] == [
            t.tid for t in forced.trajectories
        ]
        assert sorted(t.tid for t in result.trajectories) == sorted(
            t.tid for t in dataset if t.time_range.intersects(q.time_range)
        )

    def test_forced_plan_never_replans(self, skewed_tman):
        tman, dataset = skewed_tman
        q = TemporalRangeQuery(self._span(dataset))
        plan = tman.planner.plan(q)
        result = tman.query(q, plan=plan)
        assert result.trace is not None
        assert "replanned_from" not in result.trace.annotations
        assert result.plan == f"{plan.index}/{plan.route}"

    def test_disabled_by_default(self, skewed_tman):
        tman, dataset = skewed_tman
        # Same data/skew, replan off: runs to completion on the first plan.
        dataset2 = dataset
        config = TManConfig(
            boundary=TDRIVE_SPEC.boundary,
            max_resolution=12,
            num_shards=2,
            kv_workers=1,
            split_rows=5000,
            secondary_indexes=("tr", "idt", "interval"),
        )
        with TMan(config) as other:
            other.bulk_load(dataset2[:10])
            other.flush()
            stale = other.table_statistics()
            other.bulk_load(dataset2[10:])
            other.planner.set_statistics_provider(lambda: stale)
            result = other.query(TemporalRangeQuery(self._span(dataset2)))
            assert result.trace is not None
            assert "replanned_from" not in result.trace.annotations

    def test_replan_beats_completing_the_stale_plan(self):
        """The stale pick's sunk windows cost less than finishing it.

        Sized so the plan choice is stale: the tail after the query window
        inflates the interval route's estimate past the TR expansion's fixed
        window cost, while the burst the stale snapshot has not seen sits
        at the front of TR's window order so the guard fires early.
        """
        tail_n, burst_n = 450, 250
        raw = tdrive_like(tail_n + burst_n, seed=13, max_points=30)
        tail = _retime(
            raw[:tail_n],
            [
                ((23.0 + i / tail_n * 24.0) * HOUR, (23.4 + i / tail_n * 24.0) * HOUR)
                for i in range(tail_n)
            ],
        )
        burst = _retime(
            raw[tail_n:],
            [
                ((1.0 + i % 3) * HOUR, (20.5 + i / burst_n * 1.5) * HOUR)
                for i in range(burst_n)
            ],
        )
        q = TemporalRangeQuery(TimeRange(20.0 * HOUR, 22.5 * HOUR))
        config = TManConfig(
            boundary=TDRIVE_SPEC.boundary,
            max_resolution=10,
            num_shards=2,
            kv_workers=1,
            split_rows=50_000,
            secondary_indexes=("tr", "idt", "interval"),
            adaptive_replan=True,
            replan_divergence_ratio=2.0,
            replan_min_candidates=32,
        )
        with TMan(config) as tman:
            tman.bulk_load(tail)
            tman.flush()
            prior = tman.table_statistics()
            tman.bulk_load(burst)
            tman.planner.set_statistics_provider(lambda: prior)
            stale = tman.planner.plan(q)
            result = tman.query(q)
            assert "replanned_from" in result.trace.annotations
            assert result.plan != f"{stale.index}/{stale.route}"
            completed = tman.query(
                q, plan=QueryPlan(stale.index, stale.route, "forced")
            )
            assert sorted(t.tid for t in result.trajectories) == sorted(
                t.tid for t in completed.trajectories
            )
            assert result.simulated_ms < completed.simulated_ms
