"""``repro.obs`` — the unified observability layer.

One process-wide :class:`~repro.obs.metrics.MetricsRegistry`, one
:class:`~repro.obs.tracing.Tracer`, and one
:class:`~repro.obs.slowlog.SlowQueryLog` serve the whole stack; the
kvstore, cache, query, and storage layers register their instruments
against these singletons at import time, so a deployment is observable
with zero configuration and a dashboardable snapshot is one
``repro.obs.snapshot()`` away.  ``set_metrics_enabled(False)`` turns every
instrument into a flag check for overhead-free production of benchmarks.

See ``docs/observability.md`` for the metric catalog and span hierarchy.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.export import to_json, to_prometheus, validate_snapshot
from repro.obs.metrics import (
    CounterFamily,
    GaugeFamily,
    HistogramFamily,
    MetricError,
    MetricsRegistry,
)
from repro.obs.profile import (
    ProfileLog,
    QueryProfile,
    current_profile,
    profile_scope,
    query_profile,
    run_with_profile,
)
from repro.obs.slowlog import SlowQueryEntry, SlowQueryLog
from repro.obs.stats import (
    WORKLOAD_STATS_SCHEMA,
    WorkloadStatsCollector,
    validate_workload_stats,
)
from repro.obs.tracing import SpanRecord, Tracer, spans_from_export

__all__ = [
    "MetricsRegistry",
    "MetricError",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "Tracer",
    "SpanRecord",
    "spans_from_export",
    "SlowQueryLog",
    "SlowQueryEntry",
    "to_prometheus",
    "to_json",
    "validate_snapshot",
    "registry",
    "tracer",
    "slow_query_log",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
    "set_metrics_enabled",
    "metrics_enabled",
    "set_slow_query_ms",
    "reset_all",
    "QueryProfile",
    "ProfileLog",
    "current_profile",
    "profile_scope",
    "query_profile",
    "run_with_profile",
    "profile_log",
    "WorkloadStatsCollector",
    "WORKLOAD_STATS_SCHEMA",
    "validate_workload_stats",
    "workload_stats",
]

REGISTRY = MetricsRegistry()
TRACER = Tracer()
SLOW_QUERY_LOG = SlowQueryLog()
PROFILE_LOG = ProfileLog()
WORKLOAD_STATS = WorkloadStatsCollector()


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return REGISTRY


def tracer() -> Tracer:
    """The process-wide span tracer."""
    return TRACER


def slow_query_log() -> SlowQueryLog:
    """The process-wide slow-query log."""
    return SLOW_QUERY_LOG


def profile_log() -> ProfileLog:
    """The process-wide ring of recently finished query profiles."""
    return PROFILE_LOG


def workload_stats() -> WorkloadStatsCollector:
    """The process-wide workload statistics collector."""
    return WORKLOAD_STATS


def counter(name: str, help: str = "", labelnames=()) -> CounterFamily:
    """Get-or-create a counter on the global registry."""
    return REGISTRY.counter(name, help, labelnames)


def gauge(name: str, help: str = "", labelnames=(), callback=None) -> GaugeFamily:
    """Get-or-create a gauge on the global registry."""
    return REGISTRY.gauge(name, help, labelnames, callback=callback)


def histogram(name: str, help: str = "", labelnames=(), **kwargs) -> HistogramFamily:
    """Get-or-create a log-bucketed histogram on the global registry."""
    return REGISTRY.histogram(name, help, labelnames, **kwargs)


def snapshot() -> dict:
    """JSON-ready snapshot of the global registry."""
    return REGISTRY.snapshot()


def set_metrics_enabled(enabled: bool) -> None:
    """Toggle the global registry and tracer together (the cheap off switch)."""
    REGISTRY.set_enabled(enabled)
    TRACER.set_enabled(enabled)


def metrics_enabled() -> bool:
    """Whether the global registry is recording."""
    return REGISTRY.enabled


def set_slow_query_ms(threshold_ms: Optional[float]) -> None:
    """Configure the global slow-query threshold (``None`` disables)."""
    SLOW_QUERY_LOG.set_threshold(threshold_ms)


def reset_all() -> None:
    """Zero metrics, drop spans and slow-query entries (test isolation)."""
    REGISTRY.reset()
    TRACER.clear()
    SLOW_QUERY_LOG.clear()
    PROFILE_LOG.clear()
    WORKLOAD_STATS.clear()
