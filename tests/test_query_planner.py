"""Tests for the RBO/CBO query planner."""

import itertools
import json
import random
from pathlib import Path

import pytest

from repro import TMan
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.kvstore.scan import StatsSnapshot
from repro.model import MBR, STPoint, TimeRange, Trajectory
from repro.query.cost import COST_MODEL, CostModel
from repro.query.pipeline import key_windows
from repro.query.planner import QueryPlanner
from repro.query.types import (
    IDTemporalQuery,
    KNNPointQuery,
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
    ThresholdSimilarityQuery,
    TopKSimilarityQuery,
    search_of,
)
from repro.storage.config import VALID_INDEXES, VALID_SECONDARY, TManConfig
from repro.storage.statistics import TableStatisticsBuilder

BOUNDARY = MBR(0, 0, 10, 10)


def planner(primary="tshape", secondaries=("tr", "idt"), stats=None):
    cfg = TManConfig(
        boundary=BOUNDARY, primary_index=primary, secondary_indexes=tuple(secondaries)
    )
    p = QueryPlanner(cfg)
    if stats is not None:
        p.set_statistics_provider(lambda: stats)
    return p


def q_traj():
    return Trajectory("o", "t", [STPoint(0, 1, 1), STPoint(1, 2, 2)])


class TestRBO:
    def test_idt_has_highest_priority(self):
        plan = planner().plan(IDTemporalQuery("o1", TimeRange(0, 10)))
        assert plan.index == "idt" and plan.route == "secondary"

    def test_idt_falls_back_to_temporal(self):
        plan = planner(secondaries=("tr",)).plan(IDTemporalQuery("o1", TimeRange(0, 10)))
        assert plan.index == "tr"

    def test_trq_prefers_primary_tr(self):
        plan = planner(primary="tr", secondaries=("idt",)).plan(
            TemporalRangeQuery(TimeRange(0, 10))
        )
        assert plan.index == "tr" and plan.route == "primary"

    def test_trq_uses_st_prefix_when_primary(self):
        plan = planner(primary="st", secondaries=("idt",)).plan(
            TemporalRangeQuery(TimeRange(0, 10))
        )
        assert plan.index == "st" and plan.route == "primary"

    def test_trq_secondary_route(self):
        plan = planner().plan(TemporalRangeQuery(TimeRange(0, 10)))
        assert plan.index == "tr" and plan.route == "secondary"

    def test_srq_uses_tshape_primary(self):
        plan = planner().plan(SpatialRangeQuery(MBR(1, 1, 2, 2)))
        assert plan.index == "tshape" and plan.route == "primary"

    def test_srq_without_spatial_index_scans(self):
        plan = planner(primary="tr", secondaries=("idt",)).plan(
            SpatialRangeQuery(MBR(1, 1, 2, 2))
        )
        assert plan.route == "scan"

    def test_similarity_uses_tshape(self):
        assert planner().plan(ThresholdSimilarityQuery(q_traj(), 0.1)).index == "tshape"
        assert planner().plan(TopKSimilarityQuery(q_traj(), 5)).index == "tshape"

    def test_strq_st_primary_direct(self):
        plan = planner(primary="st", secondaries=("idt",)).plan(
            STRangeQuery(MBR(1, 1, 2, 2), TimeRange(0, 10))
        )
        assert plan.index == "st" and plan.route == "primary"

    def test_unknown_query_raises(self):
        with pytest.raises(TypeError):
            planner().plan("what")


class TestCBO:
    def _stats(self):
        """2,000 rows uniform over the boundary and over 1e6 seconds."""
        rng = random.Random(5)
        builder = TableStatisticsBuilder(BOUNDARY, 1800.0)
        for _ in range(2000):
            x, y = rng.uniform(0, 9.9), rng.uniform(0, 9.9)
            t = rng.uniform(0, 1_000_000)
            builder.observe(MBR(x, y, x + 0.1, y + 0.1), TimeRange(t, t + 600))
        return builder.snapshot()

    def test_strq_picks_selective_spatial(self):
        p = planner(stats=self._stats())
        plan = p.plan(
            STRangeQuery(MBR(0, 0, 0.1, 0.1), TimeRange(0, 900_000))
        )
        assert plan.index == "tshape"
        assert "CBO" in plan.reason

    def test_strq_picks_selective_temporal(self):
        p = planner(stats=self._stats())
        plan = p.plan(STRangeQuery(MBR(0, 0, 10, 10), TimeRange(0, 100)))
        assert plan.index == "tr"
        assert "CBO" in plan.reason

    def test_secondary_penalty_shifts_choice(self):
        # Equal selectivities: the secondary route pays a point get per
        # match, so the primary (spatial) route wins.
        p = planner(stats=self._stats())
        plan = p.plan(
            STRangeQuery(MBR(0, 0, 3.16, 3.16), TimeRange(0, 100_000))
        )
        assert plan.index == "tshape"

    @pytest.mark.parametrize(
        "model", [COST_MODEL, CostModel(seek_ms=0.5, row_scan_us=9.0, point_get_us=70.0)]
    )
    def test_candidate_cost_is_the_result_model_of_its_counters(self, model):
        """Each candidate costs what the planner's model charges for the
        counters the plan would add, counted as the regions count them."""
        cfg = TManConfig(
            boundary=BOUNDARY, primary_index="tshape",
            secondary_indexes=("tr", "interval"), num_shards=2,
        )
        stats = self._stats()
        with TMan(cfg) as tman:
            p = tman.planner
            p.set_statistics_provider(lambda: stats)
            p.cost_model = model
            query = STRangeQuery(MBR(0, 0, 3.16, 3.16), TimeRange(0, 100_000))
            matches = p.estimate_candidates(query)
            cands = p.candidate_plans(query)
            windows = {
                route: len(key_windows(tman, *route, **search_of(query, BOUNDARY)))
                for route in (("tshape", "primary"), ("tr", "secondary"),
                              ("interval", "secondary"))
            }
        assert {(c.plan.index, c.plan.route) for c in cands} == set(windows)
        for c in cands:
            route = (c.plan.index, c.plan.route)
            gets = matches if c.plan.route == "secondary" else 0.0
            predicted = StatsSnapshot(
                range_scans=windows[route],
                rows_scanned=c.est_rows + gets,
                rows_returned=matches + gets,
                point_gets=gets,
            )
            assert c.cost == model.simulate_ms(predicted), route

    def test_without_stats_primary_wins(self):
        plan = planner().plan(STRangeQuery(MBR(0, 0, 10, 10), TimeRange(0, 1)))
        assert plan.index == "tshape" and "RBO" in plan.reason


# -- golden plan matrix --------------------------------------------------------

GOLDEN = Path(__file__).parent / "data" / "plans_parent.json"


def _matrix_queries(data):
    d = data[0]
    start = d.time_range.start
    wide = TimeRange(0.0, 2 * 86400.0)
    cx, cy = d.mbr.center
    return {
        "trq_narrow": TemporalRangeQuery(TimeRange(start, start + 600.0)),
        "trq_wide": TemporalRangeQuery(wide),
        "srq": SpatialRangeQuery(d.mbr.expanded(0.02)),
        "strq_space": STRangeQuery(MBR(cx, cy, cx + 0.01, cy + 0.01), wide),
        "strq_time": STRangeQuery(
            d.mbr.expanded(0.3), TimeRange(start, start + 600.0)
        ),
        "idt": IDTemporalQuery(d.oid, wide),
        "threshold": ThresholdSimilarityQuery(d, 0.01),
        "topk": TopKSimilarityQuery(d, 5),
        "knn": KNNPointQuery(cx, cy, 5),
    }


def plan_matrix(primary):
    """Candidate plans for every secondary subset x query x {no statistics,
    loaded + flushed deployment} of one primary index.

    The golden file is this function's result dumped when each route was
    first priced by the key windows its pipeline scans: every key's chosen
    plan, candidate order and ``est_rows`` equal the 4215ade dump (the first
    priced by the one :class:`~repro.query.cost.CostModel`, in modeled ms,
    whose ``est_rows`` and candidate sets equal the 5f9e951 and d776ca7
    ones); only the tshape/primary, st/primary and scan/scan costs moved.
    """
    data = tdrive_like(120, seed=19, max_points=24)
    queries = _matrix_queries(data)
    out = {}
    others = [s for s in VALID_SECONDARY if s != primary]
    for r in range(len(others) + 1):
        for secs in itertools.combinations(others, r):
            cfg = TManConfig(
                boundary=TDRIVE_SPEC.boundary, max_resolution=12,
                num_shards=2, kv_workers=1,
                primary_index=primary, secondary_indexes=secs,
            )
            with TMan(cfg) as tman:
                tman.bulk_load(data)
                tman.flush()
                states = (("none", QueryPlanner(cfg)), ("flushed", tman.planner))
                for (state, p), (name, q) in itertools.product(
                    states, queries.items()
                ):
                    cands = p.candidate_plans(q)
                    assert p.plan(q) == cands[0].plan
                    out[f"{primary}|{','.join(secs)}|{state}|{name}"] = [
                        [c.plan.index, c.plan.route, c.cost, c.est_rows]
                        for c in cands
                    ]
    return out


@pytest.mark.parametrize("primary", VALID_INDEXES)
def test_plan_matrix_matches_parent_bit_for_bit(primary):
    """Chosen plan, candidate order, cost and est_rows as dumped."""
    golden = {
        key: plans
        for key, plans in json.loads(GOLDEN.read_text())["plans"].items()
        if key.startswith(primary + "|")
    }
    got = plan_matrix(primary)
    assert got.keys() == golden.keys() and golden
    for key, expected in golden.items():
        assert got[key] == expected, key
