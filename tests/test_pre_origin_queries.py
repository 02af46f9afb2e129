"""Temporal queries reaching back before the timeline origin.

No row starts before ``time_origin`` (indexing one still raises), so a
query range is clamped at the origin: one that straddles it answers like
its post-origin part, one entirely before it answers nothing.  Every
temporal route must agree with the brute-force oracle.
"""

from __future__ import annotations

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC
from repro.model import TimeRange
from repro.query.planner import QueryPlan
from repro.query.types import IDTemporalQuery, STRangeQuery, TemporalRangeQuery

RANGES = {
    "straddles": TimeRange(-7200.0, 4 * 3600.0),
    "ends_at_origin": TimeRange(-1e6, 0.0),
    "before": TimeRange(-5000.0, -1.0),
}


@pytest.fixture(scope="module")
def tman(small_dataset):
    config = TManConfig(
        boundary=TDRIVE_SPEC.boundary, max_resolution=12, num_shards=2, kv_workers=1,
        secondary_indexes=("tr", "idt", "st", "interval"),
    )
    with TMan(config) as t:
        t.bulk_load(small_dataset)
        yield t


def _every_plan(tman, query) -> dict[str, list[str]]:
    out = {}
    for candidate in tman.planner.candidate_plans(query):
        plan = QueryPlan(candidate.plan.index, candidate.plan.route, "forced")
        out[plan.index] = sorted(t.tid for t in tman.query(query, plan=plan).trajectories)
    return out


@pytest.mark.parametrize("name", sorted(RANGES))
def test_trq_and_strq_match_the_oracle(tman, small_dataset, brute, name):
    want = brute.temporal(small_dataset, RANGES[name])
    trq = _every_plan(tman, TemporalRangeQuery(RANGES[name]))
    assert {"tr", "st", "interval"} <= trq.keys()
    strq = _every_plan(tman, STRangeQuery(TDRIVE_SPEC.boundary, RANGES[name]))
    for route, got in {**trq, **{f"strq/{k}": v for k, v in strq.items()}}.items():
        assert got == want, route
    if name == "straddles":
        assert want  # the range reaches real rows past the origin


@pytest.mark.parametrize("name", sorted(RANGES))
def test_idt_matches_the_oracle(tman, small_dataset, brute, name):
    for oid in sorted({t.oid for t in small_dataset})[:5]:
        own = [t for t in small_dataset if t.oid == oid]
        got = _every_plan(tman, IDTemporalQuery(oid, RANGES[name]))
        assert "idt" in got
        for route, tids in got.items():
            assert tids == brute.temporal(own, RANGES[name]), (oid, route)
