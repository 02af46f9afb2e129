"""The planner prices each route by the key windows its pipeline scans.

A cost model that charges only seeks prices a candidate at its range
scans, so every candidate's price must equal the ``range_scans`` a forced
run of that plan reports (single-region tables: one scan per window).  A
plan a caller passes in is scanned over windows generated again, never
over the ones it was priced on.
"""

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.model import MBR, TimeRange
from repro.query.cost import CostModel
from repro.query.pipeline import build_pipeline
from repro.query.types import (
    IDTemporalQuery,
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
)
from repro.storage.config import VALID_SECONDARY

from .conftest import make_line_trajectory

SEEKS_ONLY = CostModel(
    seek_ms=1.0, row_scan_us=0.0, row_transfer_us=0.0, rpc_ms=0.0, point_get_us=0.0
)

LAYOUTS = [
    (primary, tuple(s for s in VALID_SECONDARY if s != primary))
    for primary in ("tshape", "tr", "st")
] + [("tr", ())]  # no spatial index: an SRQ scans


@pytest.fixture(scope="module")
def data():
    return tdrive_like(120, seed=23, max_points=24)


def _queries(data):
    d = data[0]
    start = d.time_range.start
    cx, cy = d.mbr.center
    return [
        TemporalRangeQuery(TimeRange(start, start + 600.0)),
        TemporalRangeQuery(TimeRange(0.0, 2 * 86400.0)),
        SpatialRangeQuery(d.mbr.expanded(0.02)),
        STRangeQuery(MBR(cx, cy, cx + 0.01, cy + 0.01), TimeRange(0.0, 2 * 86400.0)),
        STRangeQuery(d.mbr.expanded(0.3), TimeRange(start, start + 600.0)),
        IDTemporalQuery(d.oid, TimeRange(0.0, 2 * 86400.0)),
    ]


@pytest.mark.parametrize("shards", [2, 3, 4])
@pytest.mark.parametrize("primary,secondaries", LAYOUTS)
def test_priced_windows_equal_observed_range_scans(data, primary, secondaries, shards):
    cfg = TManConfig(
        boundary=TDRIVE_SPEC.boundary, max_resolution=12, num_shards=shards,
        kv_workers=1, primary_index=primary, secondary_indexes=secondaries,
    )
    with TMan(cfg) as tman:
        tman.bulk_load(data)
        tables = [tman.primary_table, *tman.secondary_tables.values()]
        assert all(len(t.regions) == 1 for t in tables)
        tman.planner.cost_model = SEEKS_ONLY
        checked = 0
        for q in _queries(data):
            for c in tman.planner.candidate_plans(q):
                route = f"{c.plan.index}/{c.plan.route}"
                scans = tman.query(q, plan=c.plan).profile.range_scans
                if route == "st/primary" and isinstance(q, STRangeQuery):
                    # The fine ST windows priced may touch; the scan merges them.
                    assert c.cost >= scans > 0, (q, route)
                else:
                    assert c.cost == scans, (q, route)
                checked += 1
        assert checked >= len(_queries(data))


def test_forced_plan_scans_windows_generated_again(data):
    """A plan made before a write, forced after it, finds the new row."""
    cfg = TManConfig(
        boundary=TDRIVE_SPEC.boundary, max_resolution=12, num_shards=2,
        kv_workers=1, secondary_indexes=("tr", "idt"),
    )
    # Empty space: no stored trajectory comes near it.
    window = MBR(112.0, 36.0, 112.2, 36.2)
    q = STRangeQuery(window, TimeRange(0.0, 2 * 86400.0))
    with TMan(cfg) as tman:
        tman.bulk_load(data)
        plan = tman.planner.plan(q)
        assert (plan.index, plan.route) == ("tshape", "primary")
        assert plan.windows is not None  # costed: it carries its windows
        assert tman.query(q, plan=plan).trajectories == []

        late = make_line_trajectory(
            "late-obj", "late-traj", start=(112.05, 36.05), end=(112.1, 36.1), t0=3600.0
        )
        tman.insert([late])
        got = {t.tid for t in tman.query(q, plan=plan).trajectories}
        assert got == {"late-traj"}
        # The windows the plan was priced on predate the insert and miss it.
        stale = build_pipeline(tman, q, plan).run()
        assert "late-traj" not in {t.tid for t in stale}
