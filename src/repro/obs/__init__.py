"""``repro.obs`` — the unified observability layer.

One process-wide :class:`~repro.obs.metrics.MetricsRegistry` serves the
whole stack; the kvstore, cache, query, and storage layers register their
instruments against it at import time, so a deployment is observable with
zero configuration and a dashboardable snapshot is one
``repro.obs.snapshot()`` away.  Each query's own record is its
:class:`~repro.obs.profile.QueryProfile`; ``chrome_trace([result.profile])``
renders it as a Chrome trace.  Finished, it goes to the record of finished
queries, :func:`repro.obs.finished.publish`.

See ``docs/observability.md`` for the metric catalog and the query trace.
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
    from repro.obs.finished import SlowQueryLog
    from repro.obs.stats import WorkloadStatsCollector

__all__ = [
    "MetricsRegistry",
    "MetricError",
    "CounterFamily",
    "GaugeFamily",
    "HistogramFamily",
    "SlowQueryLog",
    "SlowQueryEntry",
    "to_prometheus",
    "to_json",
    "validate_snapshot",
    "chrome_trace",
    "registry",
    "slow_query_log",
    "counter",
    "gauge",
    "histogram",
    "snapshot",
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

# The exporters, the record of finished queries and the workload statistics
# load on first access (PEP 562), each singleton with its module: the engine
# modules import this package for ``counter`` alone, and a region-server
# worker must not pay for the rest.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.obs.export": (
            "chrome_trace", "to_json", "to_prometheus", "validate_snapshot"
        ),
        "repro.obs.finished": ("SlowQueryEntry", "SlowQueryLog", "SLOW_QUERY_LOG"),
        "repro.obs.stats": (
            "WORKLOAD_STATS_SCHEMA",
            "WorkloadStatsCollector",
            "validate_workload_stats",
            "WORKLOAD_STATS",
        ),
    },
)


def registry() -> MetricsRegistry:
    """The process-wide metrics registry."""
    return REGISTRY


def slow_query_log() -> SlowQueryLog:
    """The process-wide slow-query log."""
    from repro.obs.finished import SLOW_QUERY_LOG

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


def set_slow_query_ms(threshold_ms: float | None) -> None:
    """Configure the global slow-query threshold (``None`` disables)."""
    slow_query_log().threshold_ms = threshold_ms


def reset_all() -> None:
    """Zero metrics, drop slow-query entries and profiles (test isolation)."""
    REGISTRY.reset()
    slow_query_log().clear()
    PROFILE_LOG.clear()
    workload_stats().clear()
