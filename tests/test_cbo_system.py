"""System-level CBO tests: every plan against brute force, learned-statistics
refresh and costed choices (interval vs TR, planner regret).

The plan matrix is the optimizer's core safety property: whatever plan the
CBO picks or a caller forces, on every index layout, the answer equals a
brute-force pass over the raw trajectories.
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

from .conftest import brute_force_query as oracle, seven_queries

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


# Index layouts: the paper's default, the composite ST primary, a TR primary
# behind a TShape secondary, an ST secondary, and one without a TShape index.
LAYOUTS = {
    "tshape_primary": dict(secondary_indexes=("tr", "idt", "interval")),
    "st_primary": dict(
        primary_index="st", secondary_indexes=("tshape", "idt", "interval")
    ),
    "tr_primary": dict(primary_index="tr", secondary_indexes=("tshape", "idt")),
    "st_secondary": dict(secondary_indexes=("st",)),
    "no_tshape": dict(primary_index="tr", secondary_indexes=("idt",)),
}


@pytest.fixture(scope="module")
def deployments(dataset):
    tmans = {name: _make(dataset, **layout) for name, layout in LAYOUTS.items()}
    yield tmans
    for tman in tmans.values():
        tman.close()


QUERY_NAMES = ["temporal", "spatial", "st", "idt", "threshold", "topk", "knn"]
RANGE_NAMES = ["temporal", "spatial", "st", "idt"]
DEPLOYMENTS = list(LAYOUTS)


@pytest.mark.parametrize("dname", DEPLOYMENTS)
@pytest.mark.parametrize("qname", QUERY_NAMES)
def test_every_plan_is_equivalent(deployments, dataset, dname, qname):
    """Every applicable plan, forced, returns the brute-force answer; a
    temporal or ID-temporal query through an index reads fewer rows than
    the table holds."""
    tman = deployments[dname]
    q = seven_queries(dataset)[qname]
    tids, distances = oracle(dataset, q)
    assert tids
    candidates = tman.planner.candidate_plans(q)
    assert len(candidates) >= 1
    for cand in candidates:
        label = f"{qname} via {cand.plan.index}/{cand.plan.route}"
        forced = tman.query(q, plan=cand.plan)
        if distances is None:
            assert sorted(t.tid for t in forced.trajectories) == tids, label
        else:
            assert [t.tid for t in forced.trajectories] == tids, label
            assert forced.distances == pytest.approx(distances), label
        if qname in ("temporal", "idt") and cand.plan.route != "scan":
            assert forced.candidates < tman.row_count, label


@pytest.mark.parametrize("dname", DEPLOYMENTS)
@pytest.mark.parametrize("qname", RANGE_NAMES)
def test_every_plan_counts_without_decoding(deployments, dataset, dname, qname):
    """A count through any plan equals the query's answer size and parses
    trajectory ids from primary keys: its trace has no decode stage."""
    tman = deployments[dname]
    q = seven_queries(dataset)[qname]
    expected = len(oracle(dataset, q)[0])
    for cand in tman.planner.candidate_plans(q):
        label = f"{qname} via {cand.plan.index}/{cand.plan.route}"
        counted = tman.executor.execute(q, plan=cand.plan, count=True)
        assert counted.count == len(tman.query(q, plan=cand.plan)) == expected, label
        assert "decode" not in counted.profile, label
    assert tman.count(q).count == expected


@pytest.mark.parametrize("qname", ["topk", "knn"])
def test_ring_rounds_follow_the_plan(deployments, dataset, qname):
    """Ring rounds read the plan's table: through a TShape secondary they
    expand exactly the rings the TShape primary does, and without a TShape
    index one scan round answers."""
    q = seven_queries(dataset)[qname]
    rounds = deployments["tshape_primary"].query(q).profile.rounds
    assert rounds > 1
    secondary = QueryPlan("tshape", "secondary", "forced")
    for dname in ("st_primary", "tr_primary"):
        res = deployments[dname].query(q, plan=secondary)
        assert res.profile.rounds == rounds, dname
    res = deployments["no_tshape"].query(q)
    assert res.plan == "scan/scan"
    assert res.profile.rounds == 1


@pytest.mark.parametrize("dname", ["tshape_primary", "st_primary"])
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
            before = tman.planner.cost_model
            assert tman.calibrate_costs() is False
            assert tman.planner.cost_model == before


HOUR = 3600.0
SPAN_HOURS = 40.0


def _retime(trajs, spans):
    """Stretch each (multi-point) trajectory onto an exact (start, end) span."""
    out = []
    for t, (t0, t1) in zip(trajs, spans):
        ts, xs, ys = t.xy_arrays()
        grid = t0 + (ts - ts[0]) / (ts[-1] - ts[0]) * (t1 - t0)
        out.append(Trajectory(t.oid, t.tid, PointBlock(grid, xs, ys)))
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
        """The planner prices plans with the model that prices results, so
        its default picks are within 15 % of the oracle; constants fitted
        to the forced-plan matrix stay there and never do worse."""
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

        defaults = tman.planner.cost_model
        default_regret = regret()
        assert default_regret <= self.MAX_REGRET
        # Fit against the simulated cost, the unit regret is in.
        samples = [
            {**r.profile.as_dict(), "elapsed_ms": r.simulated_ms}
            for runs in forced
            for r in runs
        ]
        tman.planner.cost_model = calibrate(samples, defaults=defaults)
        try:
            calibrated_regret = regret()
        finally:
            tman.planner.cost_model = defaults
        assert calibrated_regret <= self.MAX_REGRET
        assert calibrated_regret <= default_regret + 1e-9
