"""E8 — Figure 18: spatial range queries across systems (TDrive).

Windows sweep 100 m to 2500 m.  TMan (TShape) vs TMan-XZ (XZ-ordering in
TMan's framework) vs TrajMesa (XZ2, client-side) vs ST-Hadoop.  Paper
shape: TMan < TMan-XZ < TrajMesa < STH; TShape cuts candidates vs
XZ-ordering (83% on TDrive in the paper).
"""

from benchmarks.harness import ResultTable, run_queries

from benchmarks.conftest import save_table

WINDOW_KM = [0.1, 0.5, 1.0, 1.5, 2.5]
QUERIES = 8


def test_fig18_srq_systems(
    benchmark,
    tman_tdrive,
    tman_xz_tdrive,
    trajmesa_tdrive,
    sth_tdrive,
    tdrive_workload,
):
    systems = {
        "TMan": tman_tdrive.spatial_range_query,
        "TMan-XZ": tman_xz_tdrive.spatial_range_query,
        "TrajMesa": trajmesa_tdrive.spatial_range_query,
        "STH": sth_tdrive.spatial_range_query,
    }
    # All sizes share the same window centers so the sweep isolates window
    # size (otherwise a small window in the dense core can out-match a large
    # one in the suburbs).
    from repro.geometry.distance import degrees_for_km
    from repro.model import MBR

    base = tdrive_workload.spatial_windows(max(WINDOW_KM), QUERIES)
    centers = [w.center for w in base]
    lat = centers[0][1]
    window_sets = {
        km: [
            MBR(cx - d / 2, cy - d / 2, cx + d / 2, cy + d / 2)
            for cx, cy in centers
            for d in [degrees_for_km(km, at_lat=lat)]
        ]
        for km in WINDOW_KM
    }

    time_table = ResultTable(
        "Fig 18(a) - SRQ median latency (ms) by window side (km)",
        ["system"] + [f"{km}km" for km in WINDOW_KM],
    )
    sim_table = ResultTable(
        "Fig 18(a') - SRQ modeled cluster latency (ms)",
        ["system"] + [f"{km}km" for km in WINDOW_KM],
    )
    cand_table = ResultTable(
        "Fig 18(b) - SRQ median candidates (STH counts points)",
        ["system"] + [f"{km}km" for km in WINDOW_KM],
    )
    collected = {}
    for name, query in systems.items():
        per_window = [run_queries(query, window_sets[km]) for km in WINDOW_KM]
        collected[name] = per_window
        time_table.add_row(name, *[s.median_ms for s in per_window])
        sim_table.add_row(name, *[s.median_sim_ms for s in per_window])
        cand_table.add_row(name, *[s.median_candidates for s in per_window])
    save_table("fig18_srq_times", time_table)
    save_table("fig18_srq_simulated", sim_table)
    save_table("fig18_srq_candidates", cand_table)

    total_tman = sum(s.median_candidates for s in collected["TMan"])
    total_xz = sum(s.median_candidates for s in collected["TMan-XZ"])
    # TShape prunes more than XZ-ordering overall (paper: 83% on TDrive).
    assert total_tman < total_xz
    reduction = 1 - total_tman / max(1, total_xz)
    print(f"\nTShape candidate reduction vs XZ-ordering: {reduction:.0%}")

    # With shared centers, candidates grow with window size for every system.
    for name, per_window in collected.items():
        assert per_window[-1].median_candidates >= per_window[0].median_candidates

    windows = window_sets[1.0]
    benchmark.pedantic(
        lambda: [tman_tdrive.spatial_range_query(w) for w in windows[:4]],
        rounds=3,
        iterations=1,
    )
