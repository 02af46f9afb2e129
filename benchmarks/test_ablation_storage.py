"""Ablation A1 — intact rows vs. VRE-style segment storage (DESIGN.md §5.6).

The paper's §II-1 argument against segment storage: the start-time index
widens every temporal query window, candidates are segment rows (more
numerous than trajectories), and whole results must be reassembled through
extra point-gets.  This ablation quantifies each cost against TMan's
intact-row storage on the same data and windows.
"""

from repro.baselines.vre import VRE
from benchmarks.harness import ResultTable, run_queries

from benchmarks.conftest import save_table

HOUR = 3600.0
WINDOW_HOURS = [1, 6, 12]
QUERIES = 8


def test_ablation_intact_vs_segments(
    benchmark, tman_tdrive_tr_primary, tdrive_data, tdrive_workload
):
    vre = VRE(segment_seconds=1800.0, kv_workers=1)
    vre.bulk_load(tdrive_data)
    try:
        table = ResultTable(
            "Ablation - intact rows (TMan) vs segments (VRE), TRQ",
            ["system", "window", "median_ms", "candidates", "results", "reassembly_gets"],
        )
        window_sets = {
            h: tdrive_workload.temporal_windows(h * HOUR, QUERIES) for h in WINDOW_HOURS
        }
        comparison = {}
        for h in WINDOW_HOURS:
            tman_stats = run_queries(
                tman_tdrive_tr_primary.temporal_range_query, window_sets[h]
            )
            reassembly: list[float] = []

            def vre_query(tr):
                res = vre.temporal_range_query(tr)
                reassembly.append(res.profile.point_gets)
                return res

            vre_stats = run_queries(vre_query, window_sets[h])
            comparison[h] = (tman_stats, vre_stats)
            table.add_row("TMan", f"{h}h", tman_stats.median_ms,
                          tman_stats.median_candidates, tman_stats.median_results, 0)
            table.add_row("VRE", f"{h}h", vre_stats.median_ms,
                          vre_stats.median_candidates, vre_stats.median_results,
                          sorted(reassembly)[len(reassembly) // 2])
        save_table("ablation_storage_model", table)

        # Storage blow-up: VRE keeps one row per segment.
        assert vre.segment_count > len(tdrive_data)
        for h, (tman_stats, vre_stats) in comparison.items():
            # Same answers from both storage models.
            assert tman_stats.median_results == vre_stats.median_results
            # Segment storage touches more rows than intact storage.
            assert vre_stats.median_candidates >= tman_stats.median_candidates

        windows = window_sets[6][:3]
        benchmark.pedantic(
            lambda: [vre.temporal_range_query(w) for w in windows], rounds=3, iterations=1
        )
    finally:
        vre.close()
