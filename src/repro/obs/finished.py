"""The record of finished queries.

Every finished TMan query's :class:`~repro.obs.profile.QueryProfile` goes
to :func:`publish` and nowhere else: the profile log keeps a slim copy,
the workload statistics fold it in (its candidates against the estimate
its plan was costed with; a hand-built plan has none), the registry counts it,
and past the slow threshold the slow-query log keeps the profile itself,
so a tail latency spike (the paper's Fig. 23 subject) can be diagnosed
from what the query kept.  Nothing stores a second shape of its facts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs import PROFILE_LOG, counter, histogram
from repro.obs.profile import BoundedLog, QueryProfile
from repro.obs.stats import WORKLOAD_STATS

_QUERY_TOTAL = counter("query_total", "Queries executed", labelnames=("type",))
_QUERY_MS = histogram("query_latency_ms", "End-to-end query wall time", labelnames=("type",))
_QUERY_CANDIDATES = histogram(
    "query_candidates", "Candidate rows touched per query (scanned + point gets)",
    labelnames=("type",),
)
_QUERY_SLOW = counter("query_slow_total", "Queries captured by the slow-query log")


@dataclass
class SlowQueryEntry:
    """One captured slow query: its ``repr``, its profile, and when it ended."""

    query: str
    profile: QueryProfile
    wall_time: float = field(default_factory=time.time)

    def render(self) -> str:
        """The head line, the query, the profile's stage table and dump."""
        p = self.profile
        head = (
            f"[slow-query +{p.elapsed_ms:.1f} ms] plan={p.plan} "
            f"candidates={p.candidates} transferred={p.rows_returned}"
        )
        return "\n".join(
            [head, f"  {self.query}", p.render(), f"  profile: {p.as_dict()}"]
        )

    def as_dict(self) -> dict:
        """JSON-ready rendering."""
        p = self.profile
        return {
            "query": self.query,
            "plan": p.plan,
            "elapsed_ms": round(p.elapsed_ms, 3),
            "candidates": p.candidates,
            "transferred_rows": p.rows_returned,
            "trace": p.render(),
            "wall_time": self.wall_time,
            "profile": p.as_dict(),
        }


class SlowQueryLog(BoundedLog):
    """The newest ``capacity`` finished queries slower than ``threshold_ms``
    (``None``, the library default, disables capture)."""

    def __init__(self, threshold_ms: float | None = None, capacity: int = 128):
        super().__init__(capacity)
        self.threshold_ms = threshold_ms

    def maybe_record(self, query: object, profile: QueryProfile) -> bool:
        """Keep ``repr(query)`` and the finished ``profile`` when its wall
        time crosses the threshold; returns whether it did."""
        threshold = self.threshold_ms
        if threshold is None or profile.elapsed_ms < threshold:
            return False
        self._append(SlowQueryEntry(repr(query), profile))
        return True


# The process-wide slow-query log, ``repro.obs.slow_query_log()``.
SLOW_QUERY_LOG = SlowQueryLog()


def publish(query: object, profile: QueryProfile, period_seconds: float, boundary) -> None:
    """Hand a finished TMan query's profile to the record; the workload
    statistics tally it per period and per cell of the deployment's
    ``boundary`` MBR."""
    qtype, exemplar = profile.query_type, profile.query_id
    PROFILE_LOG.record(profile)
    time_range = getattr(query, "time_range", None)
    window = getattr(query, "window", None)
    WORKLOAD_STATS.record(
        profile,
        time_range=None if time_range is None else (time_range.start, time_range.end),
        window=None if window is None else window.as_tuple(),
        period_seconds=period_seconds,
        boundary=boundary.as_tuple(),
    )
    estimate = profile.estimated_candidates
    if estimate:
        WORKLOAD_STATS.record_estimate(qtype, profile.plan, profile.candidates, estimate)
    _QUERY_TOTAL.labels(type=qtype).inc()
    _QUERY_MS.labels(type=qtype).observe(profile.elapsed_ms, exemplar=exemplar)
    _QUERY_CANDIDATES.labels(type=qtype).observe(profile.candidates, exemplar=exemplar)
    if SLOW_QUERY_LOG.maybe_record(query, profile):
        _QUERY_SLOW.inc()
