"""``repro top`` — a live text dashboard over the observability layer.

:func:`render_dashboard` is a pure function from (registry snapshot,
deployment health, recent profiles) to a fixed-width text frame, so it is
unit-testable without a terminal and reusable in CI via ``repro top
--once``.  QPS is computed from the delta between two snapshots when the
caller provides the previous one; with a single snapshot the cumulative
totals are shown instead.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

WIDTH = 78


def _metric(snapshot: dict, name: str) -> Optional[dict]:
    for metric in snapshot.get("metrics", ()):
        if metric.get("name") == name:
            return metric
    return None


def _samples_by_type(metric: Optional[dict]) -> dict[str, dict]:
    """Map the ``type`` label to the sample (last one wins per label set)."""
    out: dict[str, dict] = {}
    if metric is None:
        return out
    for sample in metric.get("samples", ()):
        labels = sample.get("labels", {})
        out[labels.get("type", "")] = sample
    return out


def _scalar(snapshot: dict, name: str) -> float:
    metric = _metric(snapshot, name)
    if metric is None:
        return 0.0
    return float(sum(s.get("value", 0.0) for s in metric.get("samples", ())))


def _rate(current: float, previous: Optional[float], interval_s: Optional[float]):
    if previous is None or not interval_s or interval_s <= 0:
        return None
    return max(0.0, current - previous) / interval_s


def _fmt_ms(value) -> str:
    if value is None:
        return "-"
    return f"{value:.1f}"


def _hit_rate(hits: float, misses: float) -> str:
    total = hits + misses
    if total <= 0:
        return "-"
    return f"{100.0 * hits / total:.1f}%"


def _rule(title: str) -> str:
    pad = WIDTH - len(title) - 4
    return f"-- {title} " + "-" * max(0, pad)


SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _sparkline(values: Sequence[float], width: int = 16) -> str:
    """Render recent estimate ratios as a sparkline; 1.0 sits mid-scale.

    Ratios are observed/estimated candidates, so the interesting range is
    roughly [0, 2]: values are clamped there and 2+ renders full-height.
    """
    if not values:
        return ""
    tail = list(values)[-width:]
    out = []
    for v in tail:
        clamped = min(2.0, max(0.0, v))
        idx = min(len(SPARK_BLOCKS) - 1, int(clamped / 2.0 * len(SPARK_BLOCKS)))
        out.append(SPARK_BLOCKS[idx])
    return "".join(out)


def render_dashboard(
    snapshot: dict,
    health: Optional[dict] = None,
    profiles: Iterable = (),
    prev_snapshot: Optional[dict] = None,
    interval_s: Optional[float] = None,
    top_n: int = 5,
    title: str = "repro top",
    workload: Optional[dict] = None,
) -> str:
    """Render one dashboard frame as fixed-width text.

    ``snapshot`` (and optionally ``prev_snapshot``) are
    :meth:`MetricsRegistry.snapshot` documents; ``health`` is
    :meth:`TMan.health` output; ``profiles`` an iterable of
    :class:`~repro.obs.profile.QueryProfile` to rank by attributed cost;
    ``workload`` a :meth:`WorkloadStatsCollector.snapshot` document that
    feeds the plan-choice panel (omitted when ``None``).
    """
    lines: list[str] = [title.ljust(WIDTH)]

    # -- queries ---------------------------------------------------------------
    lines.append(_rule("queries"))
    totals = _samples_by_type(_metric(snapshot, "query_total"))
    prev_totals = (
        _samples_by_type(_metric(prev_snapshot, "query_total"))
        if prev_snapshot is not None else {}
    )
    latencies = _samples_by_type(_metric(snapshot, "query_latency_ms"))
    overall = sum(s.get("value", 0.0) for s in totals.values())
    prev_overall = (
        sum(s.get("value", 0.0) for s in prev_totals.values())
        if prev_snapshot is not None else None
    )
    qps = _rate(overall, prev_overall, interval_s)
    head = f"queries total={overall:.0f}"
    if qps is not None:
        head += f"  qps={qps:.1f}"
    head += (
        f"  slow={_scalar(snapshot, 'query_slow_total'):.0f}"
        f"  deadline_exceeded={_scalar(snapshot, 'query_deadline_exceeded_total'):.0f}"
    )
    lines.append(head)
    lines.append(
        f"{'type':<28}{'count':>8}{'qps':>8}{'p50 ms':>10}{'p99 ms':>10}"
    )
    for qtype in sorted(totals):
        count = totals[qtype].get("value", 0.0)
        prev = prev_totals.get(qtype, {}).get("value") if prev_totals else None
        type_qps = _rate(count, prev, interval_s)
        lat = latencies.get(qtype, {})
        lines.append(
            f"{qtype:<28}{count:>8.0f}"
            f"{(f'{type_qps:.1f}' if type_qps is not None else '-'):>8}"
            f"{_fmt_ms(lat.get('p50')):>10}{_fmt_ms(lat.get('p99')):>10}"
        )
    if not totals:
        lines.append("  (no queries observed)")

    # -- caches ----------------------------------------------------------------
    lines.append(_rule("caches"))
    block_hits = _scalar(snapshot, "kv_blockcache_hits_total")
    block_misses = _scalar(snapshot, "kv_blockcache_misses_total")
    index_hits = _scalar(snapshot, "cache_index_hits")
    index_misses = _scalar(snapshot, "cache_index_misses")
    lines.append(
        f"block cache hit={_hit_rate(block_hits, block_misses)} "
        f"({block_hits:.0f}h/{block_misses:.0f}m)   "
        f"index cache hit={_hit_rate(index_hits, index_misses)} "
        f"({index_hits:.0f}h/{index_misses:.0f}m)   "
        f"redis roundtrips={_scalar(snapshot, 'cache_redis_roundtrips_total'):.0f}"
    )

    # -- runtime ---------------------------------------------------------------
    lines.append(_rule("runtime"))
    if health:
        write = health.get("write", {}) or {}
        memtable = write.get("memtable_bytes", 0)
        soft = write.get("soft_bytes") or 0
        pressure = f"{100.0 * memtable / soft:.0f}% of soft" if soft else "n/a"
        regions = sum(t["regions"] for t in health.get("tables", {}).values())
        admission = health.get("admission")
        if isinstance(admission, dict):
            shed = admission.get("shed_queue_full", 0) + admission.get(
                "shed_queue_timeout", 0
            )
            adm = (
                f"inflight={admission.get('inflight', 0)}"
                f"/{admission.get('max_inflight', 0)} "
                f"queued={admission.get('queued', 0)} shed={shed}"
            )
        else:
            adm = "off"
        lines.append(
            f"memtable={memtable}B ({pressure})   "
            f"regions={regions}   "
            f"admission {adm}"
        )
    else:
        lines.append(
            f"retries={_scalar(snapshot, 'kv_retry_total'):.0f}   "
            f"shed={_scalar(snapshot, 'admission_shed_total'):.0f}   "
            f"write stalls={_scalar(snapshot, 'kv_write_stall_total'):.0f}"
        )

    # -- plan choices (CBO) ----------------------------------------------------
    if workload is not None:
        lines.append(_rule("plans"))
        groups = [g for g in workload.get("groups", ()) if g.get("count")]
        if groups:
            lines.append(
                f"{'type':<19}{'plan':<22}{'count':>7}{'ratio':>8}  est ratio (recent)"
            )
            for group in groups:
                est = group.get("estimate_ratio", {}) or {}
                mean = est.get("mean")
                recent = est.get("recent") or ()
                lines.append(
                    f"{group.get('query_type', '?'):<19}"
                    f"{group.get('plan', '?'):<22}"
                    f"{group.get('count', 0):>7}"
                    f"{(f'{mean:.2f}' if mean is not None else '-'):>8}"
                    f"  {_sparkline(recent)}"
                )
        else:
            lines.append("  (no plan choices observed)")

    # -- top queries by attributed cost ---------------------------------------
    lines.append(_rule(f"top {top_n} queries by elapsed"))
    ranked = sorted(profiles, key=lambda p: p.elapsed_ms, reverse=True)[:top_n]
    if ranked:
        lines.append(
            f"{'id':<10}{'type':<26}{'ms':>8}{'rows':>8}{'blocks':>8}{'attr ms':>9}"
        )
        for profile in ranked:
            lines.append(
                f"{profile.query_id:<10}{profile.query_type:<26}"
                f"{profile.elapsed_ms:>8.1f}{profile.rows_scanned:>8}"
                f"{profile.block_reads:>8}{profile.attributed_ms:>9.1f}"
            )
    else:
        lines.append("  (profile log empty)")

    return "\n".join(line[: WIDTH + 10] for line in lines)


def dashboard_frame(
    tman,
    prev_snapshot: Optional[dict] = None,
    interval_s: Optional[float] = None,
    top_n: int = 5,
) -> tuple[str, dict]:
    """Render a frame for a live deployment; returns (text, snapshot).

    The returned snapshot feeds the next call's ``prev_snapshot`` so QPS
    is a true rate over the refresh interval.
    """
    import repro.obs as obs

    snap = obs.snapshot()
    text = render_dashboard(
        snap,
        health=tman.health(),
        profiles=obs.profile_log().entries(),
        prev_snapshot=prev_snapshot,
        interval_s=interval_s,
        top_n=top_n,
        workload=obs.workload_stats().snapshot(),
    )
    return text, snap
