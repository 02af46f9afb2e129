"""E4 — Figure 15: effect of α×β on spatial range queries (1.5 km windows).

Paper shape: candidates drop as α×β grows (finer shapes filter more), but
query time is U-shaped — very fine grids scatter index values and spend more
planning time, so mid-size grids (3×3) win on latency.
"""

import pytest

from repro import TMan, TManConfig
from benchmarks.harness import ResultTable, run_queries
from repro.datasets import TDRIVE_SPEC

from benchmarks.conftest import save_table

GRIDS = [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (5, 5)]
QUERIES = 12
WINDOW_KM = 1.5


@pytest.fixture(scope="module")
def systems(tdrive_data):
    built = {}
    for alpha, beta in GRIDS:
        cfg = TManConfig(
            boundary=TDRIVE_SPEC.boundary,
            alpha=alpha,
            beta=beta,
            max_resolution=14,
            num_shards=2,
            kv_workers=1,
        )
        tman = TMan(cfg)
        tman.bulk_load(tdrive_data)
        built[(alpha, beta)] = tman
    yield built
    for tman in built.values():
        tman.close()


def test_fig15_alpha_beta(benchmark, systems, tdrive_workload):
    windows = tdrive_workload.spatial_windows(WINDOW_KM, QUERIES)
    table = ResultTable(
        "Fig 15 - SRQ (1.5km x 1.5km) by alpha x beta",
        ["grid", "median_ms", "median_candidates", "median_results"],
    )
    stats_by_grid = {}
    for (alpha, beta), tman in systems.items():
        stats = run_queries(tman.spatial_range_query, windows)
        stats_by_grid[(alpha, beta)] = stats
        table.add_row(
            f"{alpha}x{beta}", stats.median_ms, stats.median_candidates,
            stats.median_results,
        )
    save_table("fig15_alpha_beta", table)

    # All grids agree on results (same exact query, different index).
    result_counts = {s.median_results for s in stats_by_grid.values()}
    assert len(result_counts) == 1

    # Paper shape: finer grids never need more candidates than 2x2.
    coarsest = stats_by_grid[(2, 2)].median_candidates
    finest = stats_by_grid[(5, 5)].median_candidates
    assert finest <= coarsest

    tman = systems[(3, 3)]
    benchmark.pedantic(
        lambda: [tman.spatial_range_query(w) for w in windows[:4]],
        rounds=3,
        iterations=1,
    )
