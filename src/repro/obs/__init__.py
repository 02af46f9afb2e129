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

from repro._lazy import lazy_exports
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

TYPE_CHECKING = False
if TYPE_CHECKING:
    from repro.obs.slowlog import SlowQueryLog
    from repro.obs.stats import WorkloadStatsCollector
    from repro.obs.tracing import Tracer

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
PROFILE_LOG = ProfileLog()

# The exporters, the tracer, the slow-query log and the workload statistics
# load on first access (PEP 562), each singleton with its module: the engine
# modules import this package for ``counter`` alone, and a region-server
# worker must not pay for the rest.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.obs.export": ("to_json", "to_prometheus", "validate_snapshot"),
        "repro.obs.slowlog": ("SlowQueryEntry", "SlowQueryLog", "SLOW_QUERY_LOG"),
        "repro.obs.stats": (
            "WORKLOAD_STATS_SCHEMA",
            "WorkloadStatsCollector",
            "validate_workload_stats",
            "WORKLOAD_STATS",
        ),
        "repro.obs.tracing": ("SpanRecord", "Tracer", "spans_from_export", "TRACER"),
    },
)


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return REGISTRY


def tracer() -> Tracer:
    """The process-wide span tracer."""
    from repro.obs.tracing import TRACER

    return TRACER


def slow_query_log() -> SlowQueryLog:
    """The process-wide slow-query log."""
    from repro.obs.slowlog import SLOW_QUERY_LOG

    return SLOW_QUERY_LOG


def profile_log() -> ProfileLog:
    """The process-wide ring of recently finished query profiles."""
    return PROFILE_LOG


def workload_stats() -> WorkloadStatsCollector:
    """The process-wide workload statistics collector."""
    from repro.obs.stats import WORKLOAD_STATS

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
    tracer().set_enabled(enabled)


def metrics_enabled() -> bool:
    """Whether the global registry is recording."""
    return REGISTRY.enabled


def set_slow_query_ms(threshold_ms: float | None) -> None:
    """Configure the global slow-query threshold (``None`` disables)."""
    slow_query_log().set_threshold(threshold_ms)


def reset_all() -> None:
    """Zero metrics, drop spans and slow-query entries (test isolation)."""
    REGISTRY.reset()
    tracer().clear()
    slow_query_log().clear()
    PROFILE_LOG.clear()
    workload_stats().clear()
