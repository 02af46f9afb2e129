"""E7 — Figure 17: temporal range queries across systems (TDrive).

TMan (TR primary, push-down) vs TMan-XZT (same framework, XZT index) vs
TrajMesa (XZT, client-side filtering) vs ST-Hadoop (point slices, scan
jobs).  Paper shape: TMan fastest; TMan-XZT beats TrajMesa thanks to
push-down; STH candidates (points) dwarf everyone by orders of magnitude.
"""

from benchmarks.harness import ResultTable, run_queries

from benchmarks.conftest import save_table

HOUR = 3600.0
WINDOW_HOURS = [0.5, 1, 6, 12, 24]
QUERIES = 8


def test_fig17_trq_systems(
    benchmark,
    tman_tdrive_tr_primary,
    tman_xzt_tdrive,
    trajmesa_tdrive,
    sth_tdrive,
    tdrive_workload,
):
    systems = {
        "TMan": tman_tdrive_tr_primary.temporal_range_query,
        "TMan-XZT": tman_xzt_tdrive.temporal_range_query,
        "TrajMesa": trajmesa_tdrive.temporal_range_query,
        "STH": sth_tdrive.temporal_range_query,
    }
    window_sets = {
        h: tdrive_workload.temporal_windows(h * HOUR, QUERIES) for h in WINDOW_HOURS
    }

    time_table = ResultTable(
        "Fig 17(a) - TRQ median latency (ms) by window length (hours)",
        ["system"] + [f"{h}h" for h in WINDOW_HOURS],
    )
    sim_table = ResultTable(
        "Fig 17(a') - TRQ modeled cluster latency (ms)",
        ["system"] + [f"{h}h" for h in WINDOW_HOURS],
    )
    cand_table = ResultTable(
        "Fig 17(b) - TRQ median candidates (STH counts points)",
        ["system"] + [f"{h}h" for h in WINDOW_HOURS],
    )
    collected = {}
    for name, query in systems.items():
        per_window = [run_queries(query, window_sets[h]) for h in WINDOW_HOURS]
        collected[name] = per_window
        time_table.add_row(name, *[s.median_ms for s in per_window])
        sim_table.add_row(name, *[s.median_sim_ms for s in per_window])
        cand_table.add_row(name, *[s.median_candidates for s in per_window])
    save_table("fig17_trq_times", time_table)
    save_table("fig17_trq_simulated", sim_table)
    save_table("fig17_trq_candidates", cand_table)

    transfer_table = ResultTable(
        "Fig 17(c) - TRQ rows transferred to the client (push-down effect)",
        ["system"] + [f"{h}h" for h in WINDOW_HOURS],
    )
    for name, per_window in collected.items():
        transfer_table.add_row(name, *[s.median_transferred for s in per_window])
    save_table("fig17_trq_transfer", transfer_table)

    # Paper shapes.
    for i in range(len(WINDOW_HOURS)):
        # TMan's TR index needs no more candidates than the XZT retrofit.
        assert collected["TMan"][i].median_candidates <= (
            collected["TMan-XZT"][i].median_candidates
        )
        # STH candidates are points: orders of magnitude above TMan's rows
        # (STH holds a 3x smaller dataset slice, which only understates it).
        assert collected["STH"][i].median_candidates > (
            3 * collected["TMan"][i].median_candidates
        )
        # Push-down: TrajMesa ships every candidate to the client, TMan and
        # the retrofit ship only the rows that pass server-side filters.
        assert collected["TMan"][i].median_transferred <= (
            collected["TrajMesa"][i].median_transferred
        )
        assert collected["TMan-XZT"][i].median_transferred <= (
            collected["TrajMesa"][i].median_transferred
        )
        # STH pays the MapReduce job overhead in modeled latency.
        assert collected["STH"][i].median_sim_ms >= (
            collected["TMan"][i].median_sim_ms
        )

    windows = window_sets[1]
    benchmark.pedantic(
        lambda: [tman_tdrive_tr_primary.temporal_range_query(w) for w in windows[:4]],
        rounds=3,
        iterations=1,
    )
