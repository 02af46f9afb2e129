"""The metric catalog: names, units, directions, bounds and predicted effects.

``END_TO_END`` is the issue's sixteen end-to-end metrics, each with the
workloads that report it and the bound ``python -m benchmarks.spine.compare``
holds it to between two run sets of one seed.  ``DRIVER_BOUNDS`` names the ones
``BENCHMARK.json`` declares: its contract allows a metric entry exactly the keys
name/unit/better/bound, wants every declared metric from every workload, never
zero, and rejects a benchmark whose quartile spread over ten *seeds* exceeds the
bound.  So only metrics every workload has can be declared, and only those that
stay inside a bound whatever the box is doing; the others are printed, written
to the ``--out`` JSON and gated by ``compare``, which can answer
``unresolved``.  ``PER_LAYER`` is declared whole.  ``test_spine_smoke.py``
checks this file against ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = (
    "range_threads",
    "range_processes",
    "similarity_threads",
    "ingest_mixed_durable",
)
RANGE = ("range_threads", "range_processes")
INGEST = ("ingest_mixed_durable",)
SIMILARITY = ("similarity_threads",)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: float = 0.0  # relative worsening that counts as a regression
    workloads: tuple[str, ...] = WORKLOADS
    moves: str = ""  # per-layer only: the end-to-end metric it should move, and where
    what: str = ""

    @property
    def layer(self) -> str:
        """The ``src/repro`` package a per-layer metric belongs to."""
        return self.name.split(".", 1)[0]


END_TO_END = (
    Metric("setup_s", "s", "lower", 0.15,
           what="generate + median of the repeated build/bulk_load/flush + warm-up"),
    Metric("load_trajs_per_s", "1/s", "higher", 0.10,
           what="trajectories per second through bulk_load + flush, fastest repetition"),
    Metric("ops_per_s", "1/s", "higher", 0.10,
           what="API calls of one pass / sum over rounds of the round's fastest pass "
                "(an insert batch is one op)"),
    Metric("query_p95_ms", "ms", "lower", 0.15, RANGE + INGEST,
           what="95th percentile over all timed queries (per-query minimum over passes)"),
    Metric("trq_p50_ms", "ms", "lower", 0.10, RANGE + INGEST),
    Metric("srq_p50_ms", "ms", "lower", 0.10, RANGE + INGEST),
    Metric("strq_p50_ms", "ms", "lower", 0.10, RANGE),
    Metric("idt_p50_ms", "ms", "lower", 0.10, RANGE + INGEST),
    Metric("threshold_p50_ms", "ms", "lower", 0.10, SIMILARITY),
    Metric("topk_p50_ms", "ms", "lower", 0.10, SIMILARITY),
    Metric("knn_p50_ms", "ms", "lower", 0.10, SIMILARITY),
    Metric("insert_trajs_per_s", "1/s", "higher", 0.10, INGEST,
           what="acknowledged trajectories / time inside insert calls"),
    Metric("stored_bytes_per_point", "B", "lower", 0.01,
           what="key+value bytes of a full scan of every table / live points"),
    Metric("write_amp", "ratio", "lower", 0.01, INGEST,
           what="(WAL + flush + compaction bytes) / row value bytes put, timed phase"),
    Metric("peak_rss_mb", "MiB", "lower", 0.10,
           what="coordinator peak RSS at exit, plus the workers' in process mode"),
    Metric("failed_share", "ratio", "lower", 0.0,
           what="ops that raised, disagreed with the oracle or failed the reopen check"),
)

# What BENCHMARK.json declares, with the bound the driver applies across seeds.
# A timing is raw wall time here, and on the shared 2-vCPU box this was written
# on raw wall time of one commit spread 0.05-0.35 over ten runs depending on the
# hour (README, "Host noise"): no timing but the mandatory setup_s (whose spread
# the driver does not gate) can promise to stay inside the contract's largest
# bound, 0.25, on all four workloads, and a spread outside the bound gets the
# whole benchmark refused.  The generated data differs by ~1 % in points per
# trajectory between seeds, hence 0.05 on a metric that repeats exactly for one
# seed, and the peak RSS of similarity_threads is 63 or 78 MiB depending on the
# query trajectories the seed picks, hence 0.25.  failed_share is the driver's
# own failed/attempted.
DRIVER_BOUNDS = {
    "setup_s": 0.25,
    "stored_bytes_per_point": 0.05,
    "peak_rss_mb": 0.25,
}

# Counts of the program's own work: with one client and no timers they repeat
# exactly for one seed, so compare calls any move beyond the bound real,
# whatever the spread.
EXACT = ("stored_bytes_per_point", "write_amp", "failed_share")

_R = "range_*"
_S = "similarity_threads"
_I = "ingest_mixed_durable"

PER_LAYER = (
    # query
    Metric("query.plan_ms", "ms", "lower", moves="idt_p50_ms, trq_p50_ms @ range_threads",
           what="time inside QueryPlanner.plan per query (includes the window probe it makes)"),
    Metric("query.plans_costed", "count", "lower", moves="idt_p50_ms, trq_p50_ms @ range_threads",
           what="estimate_candidates calls made inside QueryPlanner.plan: one per costed plan"),
    Metric("query.coalesce_ms", "ms", "lower", moves=f"srq_p50_ms @ {_R}"),
    Metric("query.coalesce_ratio", "ratio", "lower", moves=f"srq_p50_ms @ {_R}",
           what="windows after coalescing / windows before"),
    Metric("query.filter_ms", "ms", "lower",
           moves="srq_p50_ms, strq_p50_ms @ range_threads (and @ range_processes once "
                 "filters run worker-side)",
           what="time inside push-down predicates, any thread, incl. the decode they trigger"),
    Metric("query.filter_pass_ratio", "ratio", "higher",
           moves="srq_p50_ms, strq_p50_ms @ range_threads"),
    Metric("query.refine_ms", "ms", "lower", moves=f"srq_p50_ms @ {_R}",
           what="self time of the decode/refine pipeline operators"),
    Metric("query.replans", "count", "lower", moves="none expected (adaptive_replan is off)"),
    Metric("query.unattributed_share", "ratio", "lower", moves="every *_p50_ms",
           what="median share of query wall outside every wrapped layer call"),
    Metric("query.self_share", "ratio", "lower", moves="every *_p50_ms",
           what="median share of query wall that is the query layer's own time"),
    # core
    Metric("core.windowgen_ms", "ms", "lower",
           moves=f"srq_p50_ms, strq_p50_ms @ {_R}; topk_p50_ms, knn_p50_ms @ {_S}; "
                 "none on trq/idt"),
    Metric("core.windows_per_query", "count", "lower", moves=f"srq_p50_ms @ {_R}"),
    Metric("core.encode_us_per_traj", "us", "lower",
           moves=f"load_trajs_per_s @ all; insert_trajs_per_s @ {_I}"),
    Metric("core.self_share", "ratio", "lower", moves=f"srq_p50_ms @ {_R}"),
    # cache
    Metric("cache.index_hit_ratio", "ratio", "higher",
           moves=f"srq_p50_ms @ {_R}; topk_p50_ms @ {_S}"),
    Metric("cache.index_lookups_per_query", "count", "lower",
           moves=f"srq_p50_ms @ {_R}; topk_p50_ms @ {_S}"),
    Metric("cache.redis_roundtrips_per_query", "count", "lower",
           moves=f"srq_p50_ms @ {_R}; topk_p50_ms @ {_S}"),
    Metric("cache.index_evictions", "count", "lower", moves=f"topk_p50_ms @ {_S}"),
    Metric("cache.self_share", "ratio", "lower", moves=f"srq_p50_ms @ {_R}; topk_p50_ms @ {_S}"),
    # kvstore, read side
    Metric("kvstore.scan_wait_ms", "ms", "lower", moves="every *_p50_ms @ range_threads",
           what="query thread's self time inside Table scan / multi_get streams"),
    Metric("kvstore.scan_busy_ms", "ms", "lower", moves="every *_p50_ms @ range_threads",
           what="self time inside Region.execute_scan / get_batch, all threads"),
    Metric("kvstore.range_scans_per_query", "count", "lower", moves=f"srq_p50_ms @ {_R}"),
    Metric("kvstore.point_gets_per_query", "count", "lower",
           moves=f"trq_p50_ms, idt_p50_ms @ {_R}"),
    Metric("kvstore.rows_scanned_per_result", "ratio", "lower",
           moves=f"srq_p50_ms, strq_p50_ms @ {_R}"),
    Metric("kvstore.bytes_scanned_per_query", "B", "lower", moves=f"every *_p50_ms @ {_R}"),
    Metric("kvstore.block_reads_per_query", "count", "lower",
           moves=f"query_p95_ms, srq_p50_ms @ {_I}; none @ range_threads (no disk)"),
    Metric("kvstore.blockcache_hit_ratio", "ratio", "higher",
           moves=f"query_p95_ms, srq_p50_ms @ {_I}; none @ range_threads"),
    Metric("kvstore.blockcache_evictions", "count", "lower",
           moves=f"query_p95_ms @ {_I}; none @ range_threads"),
    Metric("kvstore.bloom_reject_ratio", "ratio", "higher", moves=f"idt_p50_ms @ {_I}"),
    Metric("kvstore.retries", "count", "lower", moves="none expected (no faults injected)"),
    Metric("kvstore.self_share", "ratio", "lower", moves="every *_p50_ms @ range_threads"),
    # kvstore, write side (timed-phase counts)
    Metric("kvstore.put_us_per_row", "us", "lower",
           moves=f"load_trajs_per_s @ all; insert_trajs_per_s @ {_I}"),
    Metric("kvstore.flushes", "count", "lower", moves=f"write_amp, query_p95_ms @ {_I}"),
    Metric("kvstore.flush_bytes", "B", "lower", moves=f"write_amp @ {_I}"),
    Metric("kvstore.flush_s", "s", "lower", moves=f"insert_trajs_per_s @ {_I}"),
    Metric("kvstore.compactions", "count", "lower", moves=f"write_amp, query_p95_ms @ {_I}"),
    Metric("kvstore.compaction_bytes", "B", "lower", moves=f"write_amp @ {_I}"),
    Metric("kvstore.compaction_s", "s", "lower", moves=f"insert_trajs_per_s @ {_I}"),
    Metric("kvstore.wal_bytes", "B", "lower", moves=f"write_amp @ {_I}"),
    Metric("kvstore.wal_syncs", "count", "lower", moves=f"insert_trajs_per_s @ {_I}"),
    Metric("kvstore.write_stall_s", "s", "lower", moves=f"insert_trajs_per_s @ {_I}"),
    Metric("kvstore.throttled_writes", "count", "lower", moves=f"insert_trajs_per_s @ {_I}"),
    Metric("kvstore.sstables_final", "count", "lower", moves=f"query_p95_ms @ {_I}"),
    Metric("kvstore.disk_bytes_per_live_byte", "ratio", "lower",
           moves=f"stored_bytes_per_point @ {_I}"),
    # cluster (zero on the three thread-mode workloads)
    Metric("cluster.rpc_calls_per_query", "count", "lower",
           moves="trq_p50_ms, srq_p50_ms, ops_per_s @ range_processes"),
    Metric("cluster.scan_pages_per_query", "count", "lower",
           moves="trq_p50_ms, srq_p50_ms @ range_processes"),
    Metric("cluster.rpc_wait_ms", "ms", "lower",
           moves="trq_p50_ms, srq_p50_ms @ range_processes",
           what="time inside NodeClient.call per query, all threads"),
    Metric("cluster.rpc_p50_ms", "ms", "lower", moves="srq_p50_ms @ range_processes",
           what="median scan_page round trip"),
    Metric("cluster.wire_bytes_per_query", "B", "lower",
           moves="trq_p50_ms, srq_p50_ms @ range_processes"),
    Metric("cluster.wire_bytes_per_result_byte", "ratio", "lower",
           moves="srq_p50_ms @ range_processes",
           what="socket bytes per byte of final result (24 B per returned point)"),
    Metric("cluster.put_rpc_us_per_row", "us", "lower",
           moves="load_trajs_per_s @ range_processes"),
    Metric("cluster.failovers", "count", "lower", moves="none expected (no node is killed)"),
    Metric("cluster.rpc_failures", "count", "lower", moves="none expected"),
    Metric("cluster.hints_queued", "count", "lower", moves="none expected"),
    Metric("cluster.self_share", "ratio", "lower", moves="every *_p50_ms @ range_processes"),
    # storage
    Metric("storage.decode_ms", "ms", "lower",
           moves=f"topk_p50_ms, threshold_p50_ms @ {_S}; small share of trq_p50_ms @ {_R}"),
    Metric("storage.decode_rows_per_query", "count", "lower", moves=f"topk_p50_ms @ {_S}"),
    Metric("storage.decode_us_per_point", "us", "lower", moves=f"topk_p50_ms @ {_S}"),
    Metric("storage.header_decode_us_per_row", "us", "lower",
           moves=f"srq_p50_ms @ {_R}; threshold_p50_ms @ {_S}"),
    Metric("storage.serialize_us_per_traj", "us", "lower",
           moves=f"load_trajs_per_s @ all; insert_trajs_per_s @ {_I}"),
    Metric("storage.writer_encode_s", "s", "lower", moves="load_trajs_per_s @ all"),
    Metric("storage.writer_write_s", "s", "lower",
           moves=f"load_trajs_per_s @ all; insert_trajs_per_s @ {_I}"),
    Metric("storage.reencodes", "count", "lower", moves=f"insert_trajs_per_s @ {_I}"),
    Metric("storage.rows_rewritten", "count", "lower",
           moves=f"insert_trajs_per_s, write_amp @ {_I}"),
    Metric("storage.self_share", "ratio", "lower", moves=f"threshold_p50_ms @ {_S}"),
    # compression
    Metric("compression.encode_us_per_point", "us", "lower", moves="load_trajs_per_s @ all"),
    Metric("compression.decode_us_per_point", "us", "lower", moves=f"topk_p50_ms @ {_S}"),
    Metric("compression.bytes_per_point", "B", "lower", moves="stored_bytes_per_point @ all"),
    Metric("compression.self_share", "ratio", "lower", moves=f"topk_p50_ms @ {_S}"),
    # similarity (zero outside similarity_threads)
    Metric("similarity.kernel_ms", "ms", "lower", moves=f"topk_p50_ms, threshold_p50_ms @ {_S}"),
    Metric("similarity.kernel_calls_per_query", "count", "lower", moves=f"topk_p50_ms @ {_S}"),
    Metric("similarity.prune_ms", "ms", "lower", moves=f"topk_p50_ms, threshold_p50_ms @ {_S}"),
    Metric("similarity.pruned_ratio", "ratio", "higher", moves=f"topk_p50_ms @ {_S}",
           what="1 - exact kernel calls / candidate rows scanned"),
    Metric("similarity.rounds_per_query", "count", "lower", moves=f"topk_p50_ms, knn_p50_ms @ {_S}"),
    Metric("similarity.self_share", "ratio", "lower", moves=f"topk_p50_ms @ {_S}"),
    # obs
    Metric("obs.self_share", "ratio", "lower", moves="idt_p50_ms @ range_threads",
           what="the program's own per-query bookkeeping (profile log, workload stats)"),
    Metric("obs.trace_overhead_share", "ratio", "lower", moves="none (cost of this tracer)",
           what="traced round wall / untraced round wall - 1, rounds alternating in one run"),
)

LAYERS = ("query", "core", "cache", "kvstore", "cluster", "storage", "compression",
          "similarity", "obs")


def end_to_end_for(workload: str) -> tuple[Metric, ...]:
    """The end-to-end metrics ``workload`` reports."""
    return tuple(m for m in END_TO_END if workload in m.workloads)
