"""Exporters: registry snapshots as Prometheus text and JSON, and query
profiles as a Chrome trace.

The snapshot exporters consume :meth:`MetricsRegistry.snapshot` output, so
they never hold metric locks longer than the snapshot itself.
:func:`validate_snapshot` is the schema contract CI enforces against the
benchmark-emitted snapshot — exporter drift (renamed keys, missing
percentiles, non-cumulative buckets) fails the build instead of silently
producing unreadable dashboards.  :func:`chrome_trace` renders finished
:class:`~repro.obs.profile.QueryProfile` records; load its output in
``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from typing import Optional

from repro.obs.metrics import (
    HISTOGRAM_QUANTILES,
    SNAPSHOT_SCHEMA,
    MetricsRegistry,
)
from repro.obs.profile import QueryProfile

_VALID_TYPES = ("counter", "gauge", "histogram")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _label_str(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in sorted(labels.items())
    )
    return "{" + body + "}"


def _merge_labels(labels: dict, extra: dict) -> dict:
    out = dict(labels)
    out.update(extra)
    return out


def to_prometheus(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    lines: list[str] = []
    for metric in registry.snapshot()["metrics"]:
        name, kind = metric["name"], metric["type"]
        if metric["help"]:
            lines.append(f"# HELP {name} {metric['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for sample in metric["samples"]:
            labels = sample["labels"]
            if kind in ("counter", "gauge"):
                lines.append(f"{name}{_label_str(labels)} {sample['value']:g}")
                continue
            cumulative = 0
            for bound, count in sample["buckets"]:
                cumulative += count
                le = _merge_labels(labels, {"le": f"{bound:g}"})
                lines.append(f"{name}_bucket{_label_str(le)} {cumulative}")
            inf = _merge_labels(labels, {"le": "+Inf"})
            lines.append(f"{name}_bucket{_label_str(inf)} {sample['count']}")
            lines.append(f"{name}_sum{_label_str(labels)} {sample['sum']:g}")
            lines.append(f"{name}_count{_label_str(labels)} {sample['count']}")
    return "\n".join(lines) + "\n"


def to_json(registry: MetricsRegistry, indent: Optional[int] = 2) -> str:
    """Serialize the registry snapshot as JSON text."""
    return json.dumps(registry.snapshot(), indent=indent, sort_keys=True) + "\n"


def validate_snapshot(doc: object) -> list[str]:
    """Validate a snapshot document; returns a list of schema violations.

    An empty list means the document is schema-valid.  Checked invariants:
    the schema tag, metric entry shape, sample shape per metric type,
    label/labelname consistency, sorted positive histogram bucket bounds,
    bucket counts summing to ``count``, and percentile keys present.
    """
    errors: list[str] = []

    def err(msg: str) -> None:
        errors.append(msg)

    if not isinstance(doc, dict):
        return [f"snapshot must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != SNAPSHOT_SCHEMA:
        err(f"schema tag must be {SNAPSHOT_SCHEMA!r}, got {doc.get('schema')!r}")
    if not isinstance(doc.get("enabled"), bool):
        err("'enabled' must be a boolean")
    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        return errors + ["'metrics' must be a list"]

    seen: set[str] = set()
    for i, metric in enumerate(metrics):
        where = f"metrics[{i}]"
        if not isinstance(metric, dict):
            err(f"{where}: must be an object")
            continue
        name = metric.get("name")
        if not isinstance(name, str) or not name:
            err(f"{where}: missing name")
            name = f"<{i}>"
        where = f"metrics[{i}] ({name})"
        if name in seen:
            err(f"{where}: duplicate metric name")
        seen.add(name)
        kind = metric.get("type")
        if kind not in _VALID_TYPES:
            err(f"{where}: bad type {kind!r}")
            continue
        labelnames = metric.get("labelnames")
        if not isinstance(labelnames, list):
            err(f"{where}: 'labelnames' must be a list")
            labelnames = []
        samples = metric.get("samples")
        if not isinstance(samples, list):
            err(f"{where}: 'samples' must be a list")
            continue
        for j, sample in enumerate(samples):
            swhere = f"{where}.samples[{j}]"
            if not isinstance(sample, dict):
                err(f"{swhere}: must be an object")
                continue
            labels = sample.get("labels")
            if not isinstance(labels, dict) or set(labels) != set(labelnames):
                err(f"{swhere}: labels must cover exactly {labelnames}")
            if kind in ("counter", "gauge"):
                if not isinstance(sample.get("value"), (int, float)):
                    err(f"{swhere}: missing numeric 'value'")
                continue
            count = sample.get("count")
            if not isinstance(count, int) or count < 0:
                err(f"{swhere}: missing non-negative 'count'")
                continue
            if not isinstance(sample.get("sum"), (int, float)):
                err(f"{swhere}: missing numeric 'sum'")
            for key in ("min", "max") + tuple(
                f"p{q:g}" for q in HISTOGRAM_QUANTILES
            ):
                value = sample.get(key, "absent")
                ok = (
                    isinstance(value, (int, float))
                    if count
                    else value is None
                )
                if not ok:
                    err(f"{swhere}: bad {key!r} for count={count}")
            buckets = sample.get("buckets")
            if not isinstance(buckets, list):
                err(f"{swhere}: 'buckets' must be a list")
                continue
            total = 0
            prev_bound = 0.0
            for k, bucket in enumerate(buckets):
                if (
                    not isinstance(bucket, list)
                    or len(bucket) != 2
                    or not isinstance(bucket[0], (int, float))
                    or not isinstance(bucket[1], int)
                ):
                    err(f"{swhere}.buckets[{k}]: must be [bound, count]")
                    continue
                bound, bcount = bucket
                if bound <= prev_bound:
                    err(f"{swhere}.buckets[{k}]: bounds must be sorted ascending")
                prev_bound = bound
                if bcount <= 0:
                    err(f"{swhere}.buckets[{k}]: counts must be positive")
                total += bcount
            if total != count:
                err(f"{swhere}: bucket counts sum to {total}, 'count' is {count}")
    return errors


def _complete_event(name: str, start_s: float, dur_ms: float, lane: int, args: dict) -> dict:
    return {
        "name": name, "ph": "X", "ts": round(start_s * 1e6, 3),
        "dur": round(dur_ms * 1e3, 3), "pid": 1, "tid": lane, "args": args,
    }


def chrome_trace(profiles: Iterable[QueryProfile]) -> dict:
    """The Chrome ``trace_event`` document of finished query profiles.

    Each query is a ``query.execute`` event (``query.count`` when its sink
    counted) carrying its type and plan; inside it, one ``pipeline.run``
    event per round; inside each round, its ``stage.*`` events laid
    back-to-back — a self-time flame chart, not a true timeline (volcano
    stages interleave row by row).  Complete ("X") events, microseconds
    rebased to the earliest query start, one Chrome ``tid`` lane per query.
    A profile the executor never finished (a query shed at admission) has
    no start and no rounds, and is left out.
    """
    started = [p for p in profiles if p.started is not None]
    epoch = min((p.started for p in started), default=0.0)
    events: list[dict] = []
    for lane, profile in enumerate(started, 1):
        rounds = profile.round_records
        # A count's sink is the Count operator, named "count".
        counted = bool(rounds) and rounds[-1][1][-1][0] == "count"
        events.append(_complete_event(
            "query.count" if counted else "query.execute",
            profile.started - epoch, profile.elapsed_ms, lane,
            {"type": profile.query_type, "plan": profile.plan},
        ))
        for round_start, stages in rounds:
            names = " -> ".join(stage[0] for stage in stages)
            events.append(_complete_event(
                "pipeline.run", round_start - epoch,
                sum(stage[4] for stage in stages), lane,
                {"pipeline": f"{profile.plan}: {names}"},
            ))
            cursor = round_start - epoch
            for name, rows_in, rows_out, bytes_out, ms in stages:
                events.append(_complete_event(
                    f"stage.{name}", cursor, ms, lane,
                    {"rows_in": rows_in, "rows_out": rows_out, "bytes_out": bytes_out},
                ))
                cursor += ms / 1e3
    return {"traceEvents": events, "displayTimeUnit": "ms"}
