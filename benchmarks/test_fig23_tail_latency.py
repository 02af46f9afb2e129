"""E15 — Figure 23: tail latency (p50/p70/p80/p90/p100).

TRQ and SRQ latency percentiles for TMan vs TrajMesa over a larger window
sample.  Paper shape: latencies spread widely toward the tail; TMan stays
best at every percentile on candidates (scale-independent) and competitive
on wall time.
"""

from benchmarks.harness import ResultTable, summarize_ms

from benchmarks.conftest import save_table

HOUR = 3600.0
SAMPLES = 40


def _collect(query_fn, windows):
    out = []
    cands = []
    for w in windows:
        res = query_fn(w)
        out.append(res.elapsed_ms)
        cands.append(res.candidates)
    return out, cands


def test_fig23_tail_latency(
    benchmark, tman_tdrive, tman_tdrive_tr_primary, trajmesa_tdrive, tdrive_workload
):
    trq_windows = tdrive_workload.temporal_windows(6 * HOUR, SAMPLES)
    srq_windows = tdrive_workload.spatial_windows(1.5, SAMPLES)

    rows = {
        ("TMan", "TRQ"): _collect(tman_tdrive_tr_primary.temporal_range_query, trq_windows),
        ("TrajMesa", "TRQ"): _collect(trajmesa_tdrive.temporal_range_query, trq_windows),
        ("TMan", "SRQ"): _collect(tman_tdrive.spatial_range_query, srq_windows),
        ("TrajMesa", "SRQ"): _collect(trajmesa_tdrive.spatial_range_query, srq_windows),
    }

    table = ResultTable(
        "Fig 23 - tail latency percentiles (ms)",
        ["system", "query", "p50", "p70", "p80", "p90", "p100"],
    )
    cand_table = ResultTable(
        "Fig 23(b) - tail candidates percentiles",
        ["system", "query", "p50", "p70", "p80", "p90", "p100"],
    )
    summaries = {}
    for (system, qtype), (ms, cands) in rows.items():
        s = summarize_ms(ms)
        c = summarize_ms(cands)
        summaries[(system, qtype)] = (s, c)
        table.add_row(system, qtype, s["p50"], s["p70"], s["p80"], s["p90"], s["p100"])
        cand_table.add_row(system, qtype, c["p50"], c["p70"], c["p80"], c["p90"], c["p100"])
    save_table("fig23_tail_latency", table)
    save_table("fig23_tail_candidates", cand_table)

    # Percentiles are monotone, and the tail spreads beyond the median.
    for (system, qtype), (s, _) in summaries.items():
        assert s["p50"] <= s["p90"] <= s["p100"]

    # TMan's candidate tail stays below TrajMesa's at every percentile.
    for qtype in ("TRQ", "SRQ"):
        _, tman_c = summaries[("TMan", qtype)]
        _, tm_c = summaries[("TrajMesa", qtype)]
        for p in ("p50", "p90", "p100"):
            assert tman_c[p] <= tm_c[p], (qtype, p)

    benchmark.pedantic(
        lambda: [tman_tdrive_tr_primary.temporal_range_query(w) for w in trq_windows[:5]],
        rounds=3,
        iterations=1,
    )
