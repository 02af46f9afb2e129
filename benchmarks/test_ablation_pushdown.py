"""Ablation A2 — push-down on vs. off (DESIGN.md §5.3).

Same TMan deployment, same index, same windows; only the push-down switch
differs.  With push-down off, every candidate row crosses the storage/client
boundary — the architectural difference between TMan and TrajMesa isolated
from the index designs.
"""

import pytest

from repro import TMan, TManConfig
from benchmarks.harness import ResultTable, run_queries
from repro.datasets import TDRIVE_SPEC
from repro.query.planner import QueryPlan
from repro.query.types import STRangeQuery

from benchmarks.conftest import save_table

HOUR = 3600.0
QUERIES = 8
# "Same index, same windows": the CBO would send STRQ through tr/secondary,
# where every resolved row is a point get and the switch moves no counter.
SAME_INDEX = QueryPlan("tshape", "primary", "forced")


@pytest.fixture(scope="module")
def pushdown_pair(tdrive_data):
    def build(push_down):
        tman = TMan(
            TManConfig(
                boundary=TDRIVE_SPEC.boundary, max_resolution=14,
                num_shards=2, kv_workers=1, push_down=push_down,
            )
        )
        tman.bulk_load(tdrive_data)
        return tman

    on, off = build(True), build(False)
    yield on, off
    on.close()
    off.close()


def test_ablation_pushdown(benchmark, pushdown_pair, tdrive_workload):
    on, off = pushdown_pair
    srq_windows = tdrive_workload.spatial_windows(1.5, QUERIES)
    st_windows = tdrive_workload.st_windows(1.5, 6 * HOUR, QUERIES)

    table = ResultTable(
        "Ablation - push-down on/off (same TShape deployment)",
        ["mode", "query", "median_ms", "modeled_ms", "candidates", "transferred"],
    )
    stats = {}
    for mode, system in (("push-down", on), ("client-side", off)):
        srq = run_queries(system.spatial_range_query, srq_windows)
        strq = run_queries(
            lambda wt, s=system: s.query(STRangeQuery(wt[0], wt[1]), plan=SAME_INDEX),
            st_windows,
        )
        stats[(mode, "SRQ")] = srq
        stats[(mode, "STRQ")] = strq
        for name, s in (("SRQ", srq), ("STRQ", strq)):
            table.add_row(mode, name, s.median_ms, s.median_sim_ms,
                          s.median_candidates, s.median_transferred)
    save_table("ablation_pushdown", table)

    for qtype in ("SRQ", "STRQ"):
        on_s = stats[("push-down", qtype)]
        off_s = stats[("client-side", qtype)]
        # Identical answers and identical candidates (same index/windows)...
        assert on_s.median_results == off_s.median_results
        assert on_s.median_candidates == off_s.median_candidates
        # ...but client-side filtering transfers every candidate row.
        assert off_s.median_transferred >= off_s.median_candidates
        assert on_s.median_transferred <= off_s.median_transferred
        # Modeled cluster latency favors push-down (less data shipped).
        assert on_s.median_sim_ms <= off_s.median_sim_ms + 1e-6

    benchmark.pedantic(
        lambda: [on.spatial_range_query(w) for w in srq_windows[:3]],
        rounds=3, iterations=1,
    )
