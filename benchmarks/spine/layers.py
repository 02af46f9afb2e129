"""Per-layer metrics: derived from the traced ops and the program's public counters.

Span-derived numbers are means over the *traced* queries of the run;
counter-derived numbers (``IOStats``, ``repro.obs.registry()``, index-cache
stats, ``WriteReport``) cover the whole timed phase, traced or not, because
the counters do not depend on the tracer.  Write-path costs per row come from
every traced write: the bulk load of set-up plus any timed inserts.
"""

from __future__ import annotations

import statistics

from benchmarks.spine.catalog import LAYERS, PER_LAYER
from benchmarks.spine.tracing import Tracer
from benchmarks.spine.workloads import QUERY_KINDS

# Registry counters read as timed-phase deltas.
REGISTRY_COUNTERS = (
    "query_replan_total", "kv_retry_total", "kv_blockcache_hits_total",
    "kv_blockcache_misses_total", "kv_blockcache_evictions_total",
    "kv_memtable_flush_total", "kv_memtable_flush_bytes_total", "kv_compaction_total",
    "kv_compaction_bytes_total", "kv_wal_append_bytes_total", "kv_wal_sync_total",
    "cache_redis_roundtrips_total", "cluster_failover_total",
    "cluster_rpc_failure_total", "cluster_hints_queued_total",
)


def registry_counters() -> dict[str, float]:
    """Current totals of the counters above (summed over label sets)."""
    from repro.obs import registry

    out = {}
    for name in REGISTRY_COUNTERS:
        family = registry().get(name)
        out[name] = sum(s["value"] for s in family.samples()) if family else 0.0
    return out


def row_value_bytes() -> float:
    """Encoded value bytes of every row written through ``Region.put`` so far."""
    from repro.obs import registry

    family = registry().get("kv_row_bytes")
    return sum(s["sum"] for s in family.samples()) if family else 0.0


def _ratio(numer: float, denom: float) -> float:
    return numer / denom if denom else 0.0


def _merge(accs) -> dict:
    names: dict[str, list] = {}
    counts: dict[str, float] = {}
    for acc in accs:
        for name, (calls, incl, self_s) in acc["names"].items():
            entry = names.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += incl
            entry[2] += self_s
        for key, value in acc["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return {"names": names, "counts": counts}


def _median_shares(ops: list[dict]) -> dict[str, float]:
    """Median share of op wall per layer (query thread) plus ``unattributed``."""
    if not ops:
        return dict.fromkeys((*LAYERS, "unattributed"), 0.0)
    row = {
        layer: statistics.median(op["self"].get(layer, 0.0) / op["wall_s"] for op in ops)
        for layer in LAYERS
    }
    row["unattributed"] = statistics.median(op["unattributed_s"] / op["wall_s"] for op in ops)
    return row


def shares_by_kind(tracer: Tracer) -> dict[str, dict[str, float]]:
    """The layer shares of every op kind the run traced."""
    timed = [op for op in tracer.ops if op["wall_s"] > 0]
    return {
        kind: _median_shares([op for op in timed if op["kind"] == kind])
        for kind in sorted({op["kind"] for op in timed})
    }


def derive(tracer: Tracer, timed: dict, final: dict) -> dict[str, float]:
    """Every ``PER_LAYER`` metric of one traced run.

    ``timed`` holds the timed-phase totals the harness collected (query and
    result counts, counter deltas, write reports, trace overhead); ``final``
    the end-of-run storage facts (SSTable count, disk and live bytes).
    """
    qops = [op for op in tracer.ops if op["kind"] in QUERY_KINDS and op["wall_s"] > 0]
    nq = len(qops)
    q = _merge(qops)
    writes = _merge(
        [tracer.outside] + [op for op in tracer.ops if op["kind"] not in QUERY_KINDS]
    )
    timed_ops = _merge(tracer.ops)

    def calls(acc, name):
        return acc["names"].get(name, (0, 0.0, 0.0))[0]

    def incl(acc, name):
        return acc["names"].get(name, (0, 0.0, 0.0))[1]

    def self_s(acc, name):
        return acc["names"].get(name, (0, 0.0, 0.0))[2]

    def per_query_ms(seconds):
        return _ratio(seconds * 1000.0, nq)

    shares = _median_shares(qops)

    io, reg, cache = timed["io"], timed["registry"], timed["cache"]
    queries = timed["queries"]
    sim_ops = [op for op in qops if op["kind"] in ("threshold", "topk", "knn")]
    kernel_calls = sum(op["names"].get("similarity.kernel", (0,))[0] for op in sim_ops)
    rows_put = calls(writes, "kvstore.put")
    trajs_put = calls(writes, "storage.encode")
    put_rpc_ms = sum(tracer.samples.get("cluster.put_ms", ()))
    block_lookups = reg["kv_blockcache_hits_total"] + reg["kv_blockcache_misses_total"]
    cache_lookups = cache["hits"] + cache["misses"]

    values = {
        "query.plan_ms": per_query_ms(incl(q, "query.plan")),
        "query.plans_costed": _ratio(q["counts"].get("plans_costed", 0), nq),
        "query.coalesce_ms": per_query_ms(incl(q, "query.coalesce")),
        "query.coalesce_ratio": _ratio(
            q["counts"].get("coalesce_out", 0), q["counts"].get("coalesce_in", 0)
        ),
        "query.filter_ms": per_query_ms(incl(q, "query.filter")),
        "query.filter_pass_ratio": _ratio(
            q["counts"].get("filter_pass", 0), q["counts"].get("filter_evals", 0)
        ),
        "query.refine_ms": per_query_ms(self_s(q, "query.op_refine")),
        "query.replans": reg["query_replan_total"],
        "query.unattributed_share": shares["unattributed"],
        "core.windowgen_ms": per_query_ms(self_s(q, "core.windowgen")),
        "core.windows_per_query": _ratio(q["counts"].get("windows", 0), nq),
        "core.encode_us_per_traj": _ratio(incl(writes, "core.encode") * 1e6, trajs_put),
        "cache.index_hit_ratio": _ratio(cache["hits"], cache_lookups),
        "cache.index_lookups_per_query": _ratio(cache_lookups, queries),
        "cache.redis_roundtrips_per_query": _ratio(
            reg["cache_redis_roundtrips_total"], queries
        ),
        "cache.index_evictions": cache["evictions"],
        "kvstore.scan_wait_ms": per_query_ms(
            sum(op["self"].get("kvstore", 0.0) for op in qops)
        ),
        "kvstore.scan_busy_ms": per_query_ms(
            self_s(q, "kvstore.region_scan") + self_s(q, "kvstore.region_get")
        ),
        "kvstore.range_scans_per_query": _ratio(io["range_scans"], queries),
        "kvstore.point_gets_per_query": _ratio(io["point_gets"], queries),
        "kvstore.rows_scanned_per_result": _ratio(io["rows_scanned"], timed["results"]),
        "kvstore.bytes_scanned_per_query": _ratio(io["bytes_transferred"], queries),
        "kvstore.block_reads_per_query": _ratio(io["block_reads"], queries),
        "kvstore.blockcache_hit_ratio": _ratio(reg["kv_blockcache_hits_total"], block_lookups),
        "kvstore.blockcache_evictions": reg["kv_blockcache_evictions_total"],
        "kvstore.bloom_reject_ratio": _ratio(io["bloom_rejects"], io["point_gets"]),
        "kvstore.retries": reg["kv_retry_total"],
        "kvstore.put_us_per_row": _ratio(incl(writes, "kvstore.put") * 1e6, rows_put),
        "kvstore.flushes": reg["kv_memtable_flush_total"],
        "kvstore.flush_bytes": reg["kv_memtable_flush_bytes_total"],
        "kvstore.flush_s": self_s(timed_ops, "kvstore.flush"),
        "kvstore.compactions": reg["kv_compaction_total"],
        "kvstore.compaction_bytes": reg["kv_compaction_bytes_total"],
        "kvstore.compaction_s": incl(timed_ops, "kvstore.compact"),
        "kvstore.wal_bytes": reg["kv_wal_append_bytes_total"],
        "kvstore.wal_syncs": reg["kv_wal_sync_total"],
        "kvstore.write_stall_s": timed["stall_s"],
        "kvstore.throttled_writes": timed["throttled"],
        "kvstore.sstables_final": final["sstables"],
        "kvstore.disk_bytes_per_live_byte": _ratio(final["disk_bytes"], final["live_bytes"]),
        "cluster.rpc_calls_per_query": _ratio(q["counts"].get("rpc_calls", 0), nq),
        "cluster.scan_pages_per_query": _ratio(q["counts"].get("scan_pages", 0), nq),
        "cluster.rpc_wait_ms": per_query_ms(incl(q, "cluster.rpc")),
        "cluster.rpc_p50_ms": (
            statistics.median(tracer.samples["cluster.scan_page_ms"])
            if tracer.samples.get("cluster.scan_page_ms") else 0.0
        ),
        "cluster.wire_bytes_per_query": _ratio(q["counts"].get("wire_bytes", 0), nq),
        "cluster.wire_bytes_per_result_byte": _ratio(
            q["counts"].get("wire_bytes", 0), sum(op.get("result_bytes", 0) for op in qops)
        ),
        "cluster.put_rpc_us_per_row": _ratio(put_rpc_ms * 1000.0, rows_put),
        "cluster.failovers": reg["cluster_failover_total"],
        "cluster.rpc_failures": reg["cluster_rpc_failure_total"],
        "cluster.hints_queued": reg["cluster_hints_queued_total"],
        "storage.decode_ms": per_query_ms(incl(q, "storage.decode")),
        "storage.decode_rows_per_query": _ratio(calls(q, "storage.decode"), nq),
        "storage.decode_us_per_point": _ratio(
            incl(q, "storage.decode") * 1e6, q["counts"].get("decode_points", 0)
        ),
        "storage.header_decode_us_per_row": _ratio(
            incl(q, "storage.header") * 1e6, calls(q, "storage.header")
        ),
        "storage.serialize_us_per_traj": _ratio(incl(writes, "storage.encode") * 1e6, trajs_put),
        "storage.writer_encode_s": timed["writer_encode_s"],
        "storage.writer_write_s": timed["writer_write_s"],
        "storage.reencodes": timed["reencodes"],
        "storage.rows_rewritten": timed["rows_rewritten"],
        "compression.encode_us_per_point": _ratio(
            incl(writes, "compression.encode") * 1e6, writes["counts"].get("codec_points_in", 0)
        ),
        "compression.decode_us_per_point": _ratio(
            incl(q, "compression.decode") * 1e6, q["counts"].get("codec_points_out", 0)
        ),
        "compression.bytes_per_point": _ratio(
            writes["counts"].get("codec_bytes_out", 0), writes["counts"].get("codec_points_in", 0)
        ),
        "similarity.kernel_ms": _ratio(
            sum(op["names"].get("similarity.kernel", (0, 0.0))[1] for op in sim_ops) * 1000.0,
            len(sim_ops),
        ),
        "similarity.kernel_calls_per_query": _ratio(kernel_calls, len(sim_ops)),
        "similarity.prune_ms": _ratio(
            sum(op["names"].get("similarity.prune", (0, 0.0))[1] for op in sim_ops) * 1000.0,
            len(sim_ops),
        ),
        "similarity.pruned_ratio": (
            1.0 - _ratio(kernel_calls, sum(op.get("candidates", 0) for op in sim_ops))
            if sim_ops else 0.0
        ),
        "similarity.rounds_per_query": _ratio(
            sum(op.get("rounds", 0) for op in sim_ops), len(sim_ops)
        ),
        "obs.trace_overhead_share": timed["trace_overhead_share"],
    }
    for layer in LAYERS:
        values[f"{layer}.self_share"] = shares[layer]
    missing = {m.name for m in PER_LAYER} - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not derived: {sorted(missing)}")
    return {m.name: float(values[m.name]) for m in PER_LAYER}
