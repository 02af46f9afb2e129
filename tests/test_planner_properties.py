"""Property suite for the cost-based planner.

Invariants: planning never names an index the deployment did not
configure, and the histogram estimator stays within a bounded factor of
brute-force counting on uniform and skewed data.
"""

from __future__ import annotations

import random

import pytest

from repro import TMan
from repro.model import MBR, TimeRange
from repro.query.planner import QueryPlanner
from repro.query.types import (
    IDTemporalQuery,
    KNNPointQuery,
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
    ThresholdSimilarityQuery,
    TopKSimilarityQuery,
)
from repro.storage.config import VALID_INDEXES, VALID_SECONDARY, TManConfig
from repro.storage.statistics import TableStatisticsBuilder

from .conftest import make_line_trajectory

BOUNDARY = MBR(0.0, 0.0, 16.0, 16.0)
HOUR = 3600.0


def stats_from_rows(rows, boundary=BOUNDARY, period=HOUR, grid=16):
    """The statistics the writer would have fed for (MBR, TimeRange) rows."""
    builder = TableStatisticsBuilder(boundary, period, cell_grid=grid)
    for mbr, tr in rows:
        builder.observe(mbr, tr)
    return builder.snapshot()


def uniform_rows(n, rng):
    rows = []
    for _ in range(n):
        x = rng.uniform(0.5, 15.0)
        y = rng.uniform(0.5, 15.0)
        t = rng.uniform(0.0, 47.0) * HOUR
        rows.append(
            (MBR(x, y, x + 0.5, y + 0.5), TimeRange(t, t + rng.uniform(0.1, 2.5) * HOUR))
        )
    return rows


def skewed_rows(n, rng):
    """90% of rows in one spatial corner and one 4-hour burst window."""
    rows = []
    for i in range(n):
        if i % 10:
            x = rng.uniform(0.5, 3.0)
            y = rng.uniform(0.5, 3.0)
            t = rng.uniform(40.0, 44.0) * HOUR
        else:
            x = rng.uniform(4.0, 15.0)
            y = rng.uniform(4.0, 15.0)
            t = rng.uniform(0.0, 40.0) * HOUR
        rows.append(
            (MBR(x, y, x + 0.3, y + 0.3), TimeRange(t, t + rng.uniform(0.1, 1.5) * HOUR))
        )
    return rows


def random_queries(rng, n=40):
    traj = make_line_trajectory(start=(2.0, 2.0), end=(6.0, 5.0), t0=1000.0)
    out = []
    for _ in range(n):
        t0 = rng.uniform(0.0, 46.0) * HOUR
        tr = TimeRange(t0, t0 + rng.uniform(0.0, 6.0) * HOUR)
        x = rng.uniform(0.0, 12.0)
        y = rng.uniform(0.0, 12.0)
        w = MBR(x, y, x + rng.uniform(0.5, 4.0), y + rng.uniform(0.5, 4.0))
        out.extend(
            [
                TemporalRangeQuery(tr),
                SpatialRangeQuery(w),
                STRangeQuery(w, tr),
                IDTemporalQuery("o", tr),
                ThresholdSimilarityQuery(traj, rng.uniform(0.1, 1.0), "frechet"),
                TopKSimilarityQuery(traj, 3, "frechet"),
                KNNPointQuery(x, y, 3),
            ]
        )
    return out


def random_configs(rng, n=12):
    configs = []
    for _ in range(n):
        primary = rng.choice(VALID_INDEXES)
        pool = [s for s in VALID_SECONDARY if s != primary]
        secondaries = tuple(
            sorted(rng.sample(pool, rng.randrange(0, len(pool) + 1)))
        )
        configs.append(
            TManConfig(
                boundary=BOUNDARY,
                primary_index=primary,
                secondary_indexes=secondaries,
                tr_period_seconds=HOUR,
                tr_max_periods=8,
            )
        )
    return configs


class TestPlannerInvariants:
    def test_never_names_unconfigured_index(self):
        rng = random.Random(21)
        queries = random_queries(rng, n=20)
        stats = stats_from_rows(uniform_rows(300, random.Random(22)))
        for with_stats in (False, True):
            for config in random_configs(random.Random(23)):
                allowed = set(config.available_indexes()) | {"scan"}
                planner = QueryPlanner(config)
                if with_stats:
                    planner.set_statistics_provider(lambda: stats)
                for q in queries:
                    plan = planner.plan(q)
                    assert plan.index in allowed, (config, q, plan)
                    for cand in planner.candidate_plans(q):
                        assert cand.plan.index in allowed


class TestEstimatorAccuracy:
    @pytest.mark.parametrize("make_rows", [uniform_rows, skewed_rows])
    def test_temporal_estimate_bounded(self, make_rows):
        rng = random.Random(41)
        rows = make_rows(800, rng)
        stats = stats_from_rows(rows)
        config = TManConfig(boundary=BOUNDARY, tr_period_seconds=HOUR, tr_max_periods=8)
        planner = QueryPlanner(config)
        planner.set_statistics_provider(lambda: stats)
        for _ in range(30):
            t0 = rng.uniform(0.0, 44.0) * HOUR
            tr = TimeRange(t0, t0 + rng.uniform(0.5, 5.0) * HOUR)
            actual = sum(1 for _, row_tr in rows if row_tr.intersects(tr))
            est = planner.estimate_candidates(TemporalRangeQuery(tr))
            assert est is not None
            # Period-granularity histogram: within a bounded factor either
            # way, modulo a small additive slack for boundary effects.
            assert est <= 6.0 * actual + 48.0
            assert est >= actual / 6.0 - 48.0

    @pytest.mark.parametrize("make_rows", [uniform_rows, skewed_rows])
    def test_spatial_estimate_bounded(self, make_rows):
        rng = random.Random(43)
        rows = make_rows(800, rng)
        stats = stats_from_rows(rows)
        config = TManConfig(boundary=BOUNDARY, tr_period_seconds=HOUR, tr_max_periods=8)
        planner = QueryPlanner(config)
        planner.set_statistics_provider(lambda: stats)
        for _ in range(30):
            x = rng.uniform(0.0, 12.0)
            y = rng.uniform(0.0, 12.0)
            w = MBR(x, y, x + rng.uniform(1.0, 4.0), y + rng.uniform(1.0, 4.0))
            actual = sum(1 for mbr, _ in rows if mbr.intersects(w))
            est = planner.estimate_candidates(SpatialRangeQuery(w))
            assert est is not None
            assert est <= 6.0 * actual + 48.0
            assert est >= actual / 6.0 - 48.0


class TestDegenerateSelectivity:
    def test_instant_window_not_zero(self):
        # A zero-duration TimeRange inside the span must not estimate zero
        # rows: rows covering that instant exist.
        rows = [(MBR(1, 1, 2, 2), TimeRange(i * HOUR, (i + 2) * HOUR)) for i in range(40)]
        stats = stats_from_rows(rows)
        assert stats.estimate_temporal(TimeRange(10.5 * HOUR, 10.5 * HOUR)) >= 2
        assert stats.estimate_temporal(TimeRange(100 * HOUR, 101 * HOUR)) == 0.0


class TestIntervalPlanning:
    def config(self, **kw):
        return TManConfig(
            boundary=BOUNDARY,
            primary_index="tshape",
            secondary_indexes=("tr", "interval", "idt"),
            tr_period_seconds=HOUR,
            tr_max_periods=8,
            **kw,
        )

    def test_no_stats_prefers_tr_priority(self):
        planner = QueryPlanner(self.config())
        plan = planner.plan(TemporalRangeQuery(TimeRange(0.0, HOUR)))
        assert plan.index == "tr"
        assert "RBO" in plan.reason

    def test_cbo_costs_both_temporal_routes(self):
        rng = random.Random(51)
        stats = stats_from_rows(uniform_rows(500, rng))
        planner = QueryPlanner(self.config())
        planner.set_statistics_provider(lambda: stats)
        plan = planner.plan(TemporalRangeQuery(TimeRange(0.0, 2 * HOUR)))
        assert plan.index in ("tr", "interval")
        assert "CBO" in plan.reason

    def test_interval_wins_when_tail_is_empty(self):
        # Recent-window query on increasing-ending-time data: the interval
        # tail covers empty keyspace, so 2 windows beat TR's N.
        rng = random.Random(52)
        rows = []
        for i in range(500):
            t = (i / 500.0) * 40.0 * HOUR
            x = rng.uniform(1.0, 15.0)
            rows.append((MBR(x, 1.0, x + 0.3, 1.3), TimeRange(t, t + 0.5 * HOUR)))
        stats = stats_from_rows(rows)
        # A deployment's planner: each route is priced by the key windows
        # its pipeline would scan.
        with TMan(self.config()) as tman:
            planner = tman.planner
            planner.set_statistics_provider(lambda: stats)
            # Query the most recent hour: everything after has no rows.
            plan = planner.plan(TemporalRangeQuery(TimeRange(39.0 * HOUR, 40.5 * HOUR)))
        assert plan.index == "interval"
