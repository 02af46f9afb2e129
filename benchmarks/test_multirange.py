"""Multi-range scheduler + block cache benchmark.

Times multi-window temporal and spatial queries over a *durable*
deployment (disk SSTables, so block reads are real): windows coalesced,
executed concurrently on the cluster worker pool through the scan
scheduler, secondary rows resolved with batched ``multi_get``.  (The
serial one-window-at-a-time baseline this was once compared against is
retired; its last measured numbers are in ``docs/perf.md``.)

Each workload is timed two ways.  The **local** pass times steady-state
repeats in-process, served from memory and mostly measuring
decode/refine.  The **remote** pass enables
:mod:`repro.kvstore.simlatency`, charging every region scan and point
get the per-RPC latency the repo's ``CostModel`` models for an HBase
deployment — the regime the paper's TMan actually runs in.

Also measures the SSTable block cache: one cold pass (cache cleared)
vs one warm pass of the same workload, by ``kv_blockcache`` miss deltas.

Emits ``benchmarks/results/BENCH_multirange.json`` and
``benchmarks/results/metrics_snapshot_multirange.json`` (schema-checked
in CI, including the ``kv_blockcache_*`` families).  ``BENCH_SMOKE=1``
shrinks the workload so CI can run the full path in seconds.
"""

from __future__ import annotations

import json
import os
import statistics
import time

from benchmarks.conftest import RESULTS_DIR, TDRIVE_N
from repro import TMan, TManConfig, obs
from repro.bench.harness import summarize_ms
from repro.datasets import TDRIVE_SPEC, QueryWorkload, tdrive_like
from repro.kvstore.cluster import Cluster
from repro.kvstore.simlatency import SimulatedRPC, rpc_latency
from repro.obs import validate_snapshot

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
QUERIES = 2 if SMOKE else 6
REPEATS = 1 if SMOKE else 3
SPAN_SECONDS = 6 * 3600  # many TR periods -> many windows pre-coalesce
WINDOW_KM = 2.0
# Scaled down from the CostModel's seek_ms=8/rpc_ms=1 to keep the run short.
REMOTE_RPC = SimulatedRPC(scan_ms=2.0, get_ms=0.2)


def _durable_tman(data_dir, data):
    config = TManConfig(
        boundary=TDRIVE_SPEC.boundary,
        max_resolution=14,
        num_shards=2,
        kv_workers=4,
        split_rows=50_000,
    )
    cluster = Cluster(
        workers=config.kv_workers,
        split_rows=config.split_rows,
        data_dir=data_dir,
        block_cache_bytes=config.block_cache_bytes,
    )
    tman = TMan(config, cluster=cluster)
    tman._owns_cluster = True
    tman.bulk_load(data)
    # Push every row to disk SSTables so scans actually read blocks.
    for name in cluster.table_names():
        for region in cluster.table(name).regions:
            region._store.flush()
    return tman


def _time_queries(run, descriptors):
    samples, windows = [], []
    for _ in range(REPEATS):
        for q in descriptors:
            t0 = time.perf_counter()
            res = run(q)
            samples.append((time.perf_counter() - t0) * 1e3)
            windows.append(res.windows)
    return {
        "p50_ms": round(statistics.median(samples), 3),
        "latency_ms": {k: round(v, 3) for k, v in summarize_ms(samples).items()},
        "p50_windows": statistics.median(windows),
    }


def _miss_pass(tman, spans, mbrs):
    before = tman.cluster.block_cache.stats()
    for tr in spans:
        tman.temporal_range_query(tr)
    for mbr in mbrs:
        tman.spatial_range_query(mbr)
    after = tman.cluster.block_cache.stats()
    return after.misses - before.misses, after.hits - before.hits


def test_multirange_scheduler_and_block_cache(tmp_path_factory):
    n = 300 if SMOKE else TDRIVE_N
    data = tdrive_like(n, seed=42, max_points=50)
    workload = QueryWorkload(TDRIVE_SPEC, data, seed=7)
    spans = workload.temporal_windows(SPAN_SECONDS, QUERIES)
    mbrs = workload.spatial_windows(WINDOW_KM, QUERIES)

    tman = _durable_tman(tmp_path_factory.mktemp("sched"), data)

    report = {
        "queries": QUERIES,
        "repeats": REPEATS,
        "smoke": SMOKE,
        "n": n,
        "remote_rpc_ms": {"scan": REMOTE_RPC.scan_ms, "get": REMOTE_RPC.get_ms},
    }
    try:
        # Warm the deployment once so the timed passes measure steady
        # state, not first-touch disk costs.
        for tr in spans:
            tman.temporal_range_query(tr)
        for mbr in mbrs:
            tman.spatial_range_query(mbr)

        for base, descriptors, run in (
            ("trq", spans, tman.temporal_range_query),
            ("srq", mbrs, tman.spatial_range_query),
        ):
            entry = {"local": _time_queries(run, descriptors)}
            with rpc_latency(REMOTE_RPC):
                entry["remote"] = _time_queries(run, descriptors)
            report[base] = entry

        # Cold vs warm block cache.
        tman.cluster.block_cache.clear()
        cold_misses, _ = _miss_pass(tman, spans, mbrs)
        warm_misses, warm_hits = _miss_pass(tman, spans, mbrs)
        report["block_cache"] = {
            "cold_block_misses": cold_misses,
            "warm_block_misses": warm_misses,
            "warm_block_hits": warm_hits,
            "warm_read_reduction": round(
                1 - warm_misses / max(1, cold_misses), 4
            ),
            "stats": tman.cluster.block_cache.stats().__dict__,
        }
        assert cold_misses > 0
        # Warm passes must cut block reads by at least half.
        assert warm_misses <= cold_misses * 0.5, report["block_cache"]
    finally:
        tman.close()

    snapshot = obs.snapshot()
    assert validate_snapshot(snapshot) == []
    families = {m["name"] for m in snapshot["metrics"]}
    for required in (
        "kv_blockcache_hits_total",
        "kv_blockcache_misses_total",
        "kv_blockcache_evictions_total",
        "kv_multirange_scans_total",
        "kv_multirange_windows_started_total",
        "kv_multiget_batches_total",
    ):
        assert required in families, required

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_multirange.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    snap_out = RESULTS_DIR / "metrics_snapshot_multirange.json"
    snap_out.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print("\n" + json.dumps(report, indent=2, sort_keys=True))
