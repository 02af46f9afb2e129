"""E13/E14 — Figure 22: scalability and update throughput.

(a) Lorry×i replication (i ∈ {1, 2, 4}): TRQ and SRQ latency as the data
    grows — sub-linear growth for TMan, out-of-memory-style blowup is
    STH's failure mode (represented here by point-count explosion);
(b) batch updates through the buffer shape cache.
"""

import time

import pytest

from repro import TMan, TManConfig
from benchmarks.harness import ResultTable, run_queries
from repro.datasets import LORRY_SPEC, QueryWorkload, lorry_like, replicate_dataset

from benchmarks.conftest import save_table

REPLICAS = [1, 2, 4]
BASE_N = 800
QUERIES = 6
HOUR = 3600.0


@pytest.fixture(scope="module")
def scaled_systems():
    from repro.baselines import TrajMesa

    base = lorry_like(BASE_N, seed=43, max_points=40)
    built = {}
    for i in REPLICAS:
        data = list(replicate_dataset(base, i, LORRY_SPEC))
        # Two TMan deployments so each query type runs on its primary index
        # (comparing a secondary route against TrajMesa's primary-table scan
        # would double-count mapping rows).
        tman_spatial = TMan(
            TManConfig(
                boundary=LORRY_SPEC.boundary, max_resolution=16,
                num_shards=2, kv_workers=1, split_rows=50_000,
            )
        )
        tman_spatial.bulk_load(data)
        tman_temporal = TMan(
            TManConfig(
                boundary=LORRY_SPEC.boundary, max_resolution=16,
                num_shards=2, kv_workers=1, split_rows=50_000,
                primary_index="tr", secondary_indexes=("idt",),
            )
        )
        tman_temporal.bulk_load(data)
        trajmesa = TrajMesa(
            LORRY_SPEC.boundary, max_resolution=16, num_shards=2, kv_workers=1
        )
        trajmesa.bulk_load(data)
        built[i] = (tman_temporal, tman_spatial, trajmesa, data)
    yield built
    for tman_t, tman_s, trajmesa, _ in built.values():
        tman_t.close()
        tman_s.close()
        trajmesa.close()


def test_fig22a_data_size(benchmark, scaled_systems):
    table = ResultTable(
        "Fig 22(a) - TRQ / SRQ candidates and latency vs data size (Lorry x i)",
        ["system", "replicas", "rows", "trq_ms", "trq_cands", "srq_ms", "srq_cands"],
    )
    trq_times = {}
    tm_cands = {}
    for i, (tman_t, tman_s, trajmesa, data) in scaled_systems.items():
        wl = QueryWorkload(LORRY_SPEC, data, seed=17)
        trq_windows = wl.temporal_windows(6 * HOUR, QUERIES)
        srq_windows = wl.spatial_windows(1.5, QUERIES)
        trq = run_queries(tman_t.temporal_range_query, trq_windows)
        srq = run_queries(tman_s.spatial_range_query, srq_windows)
        trq_times[i] = trq
        table.add_row(
            "TMan", f"x{i}", tman_t.row_count, trq.median_ms, trq.median_candidates,
            srq.median_ms, srq.median_candidates,
        )
        tm_trq = run_queries(trajmesa.temporal_range_query, trq_windows)
        tm_srq = run_queries(trajmesa.spatial_range_query, srq_windows)
        tm_cands[i] = (tm_trq, tm_srq)
        table.add_row(
            "TrajMesa", f"x{i}", trajmesa.row_count, tm_trq.median_ms,
            tm_trq.median_candidates, tm_srq.median_ms, tm_srq.median_candidates,
        )
    save_table("fig22a_scalability", table)

    # Candidates grow with data size; latency grows sub-quadratically.
    assert trq_times[4].median_candidates > trq_times[1].median_candidates
    assert trq_times[4].median_ms < trq_times[1].median_ms * 16
    # TMan's advantage holds (and grows) with scale: fewer candidates than
    # TrajMesa at every size (paper: "its advantage becomes more significant
    # as the data grows").
    for i in REPLICAS:
        assert trq_times[i].median_candidates <= tm_cands[i][0].median_candidates

    tman, _, _, data = scaled_systems[1]
    wl = QueryWorkload(LORRY_SPEC, data, seed=18)
    windows = wl.temporal_windows(6 * HOUR, 4)
    benchmark.pedantic(
        lambda: [tman.temporal_range_query(w) for w in windows], rounds=3, iterations=1
    )


def test_fig22b_update(benchmark):
    """Batch-insert throughput through the §IV-C update protocol."""
    history = lorry_like(600, seed=43, max_points=40)
    updates = lorry_like(400, seed=99, max_points=40)
    tman = TMan(
        TManConfig(
            boundary=LORRY_SPEC.boundary, max_resolution=16, num_shards=2,
            kv_workers=1, buffer_shape_threshold=256,
        )
    )
    try:
        tman.bulk_load(history)

        table = ResultTable(
            "Fig 22(b) - batch update throughput",
            ["batch", "rows", "seconds", "rows_per_s", "reencodes"],
        )
        batch_size = 100
        for b in range(4):
            batch = updates[b * batch_size : (b + 1) * batch_size]
            t0 = time.perf_counter()
            report = tman.insert(batch)
            dt = time.perf_counter() - t0
            table.add_row(
                f"batch-{b}", report.rows_written, dt,
                report.rows_written / max(1e-9, dt), report.reencodes_triggered,
            )
        save_table("fig22b_updates", table)

        # Inserted data must be immediately queryable.
        probe = updates[5]
        res = tman.spatial_range_query(probe.mbr)
        assert probe.tid in {t.tid for t in res.trajectories}

        batch = updates[:50]
        benchmark.pedantic(lambda: tman.insert(batch), rounds=3, iterations=1)
    finally:
        tman.close()
