"""A LIT-style two-tier interval index over trajectory time ranges.

Alternative :class:`~repro.core.temporal.TemporalIndex` to the paper's TR
encoding, after "Disk-Based Interval Indexes Under the Increasing Ending
Time Assumption" (LIT): most interval workloads append rows whose *ending*
times increase monotonically, so keying rows by end period clusters fresh
data at the tail of the keyspace and lets a temporal range query over a
recent window run as a **single contiguous scan**.

Layout (``N = max_periods``, ``P = period_seconds``):

- **main tier** — rows spanning fewer than ``N`` periods (every row TMan's
  writer produces, since the primary TR value enforces the same cap):

      value = e * N + (e - s)

  where ``s``/``e`` are the start/end periods.  Values are ordered by end
  period first, span second, so all rows ending inside a query window are
  one dense run.

- **long tier** — rows spanning ``N`` or more periods (the case the TR
  encoding rejects with ``TimeBinOverflowError``) live above
  ``LONG_TIER_BASE`` keyed by end period alone; their unknown start means
  a query must scan every long row ending after the query start.

Query expansion for query periods ``[qi, qj]`` returns **two** inclusive
value intervals (vs. the TR index's ``N``):

1. ``[qi*N, (qj+N-1)*N + (N-1)]`` — every row ending in ``[qi, qj]``
   (all genuine period-granularity matches) plus the *tail*: rows ending
   in ``(qj, qj+N-1]`` whose span may reach back to ``qj``.  The tail is
   deliberately over-approximated to keep the run contiguous; the exact
   push-down :class:`~repro.query.filters.TemporalFilter` refines it.
   Under increasing ending times a recent-window query has ``qj`` at or
   past the newest end period, so the tail covers empty keyspace and the
   scan degenerates to the single productive run.
2. the long tier above ``LONG_TIER_BASE + qi``.

Trade-off vs. TR: TR is exact at period granularity but opens ``N``
scattered windows; the interval index opens 2 windows (1 contiguous run)
at the price of tail false positives — which is why plan choice between
them belongs to the cost-based optimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.temporal import DEFAULT_MAX_PERIODS, DEFAULT_PERIOD_SECONDS
from repro.model.timerange import TimeRange

# Main-tier values are at most max_periods * (max_end_period + 1); anything
# at or above this base is a long-tier row.  Leaves headroom below 2**64 so
# values still fit the u64 big-endian rowkey encoding.
LONG_TIER_BASE = 1 << 48

# Inclusive upper bound of the long tier (end periods are far below this).
LONG_TIER_MAX = (1 << 49) - 1


@dataclass(frozen=True)
class IntervalIndex:
    """End-period-keyed two-tier interval index (a ``TemporalIndex``)."""

    period_seconds: float = DEFAULT_PERIOD_SECONDS
    max_periods: int = DEFAULT_MAX_PERIODS
    origin: float = 0.0

    def __post_init__(self) -> None:
        if self.period_seconds <= 0:
            raise ValueError(f"period_seconds must be positive: {self.period_seconds}")
        if self.max_periods <= 0:
            raise ValueError(f"max_periods must be positive: {self.max_periods}")

    # -- period arithmetic ---------------------------------------------------

    def period_of(self, t: float) -> int:
        """Index of the time period containing instant ``t``."""
        p = math.floor((t - self.origin) / self.period_seconds)
        if p < 0:
            raise ValueError(
                f"instant {t} precedes the timeline origin {self.origin}"
            )
        return p

    # -- encoding ------------------------------------------------------------

    def index_time_range(self, tr: TimeRange) -> int:
        """Index value of a row's time range (never overflows: long rows
        that the TR encoding rejects land in the long tier)."""
        s = self.period_of(tr.start)
        e = self.period_of(tr.end)
        if e < s:
            raise ValueError(f"end period {e} before start {s}")
        span = e - s
        if span < self.max_periods:
            return e * self.max_periods + span
        return LONG_TIER_BASE + e

    def decode(self, value: int) -> tuple[Optional[int], int]:
        """Inverse of :meth:`index_time_range`: value -> (start, end) periods.

        Long-tier values carry only the end period; start is ``None``.
        """
        if value < 0:
            raise ValueError(f"interval values are non-negative, got {value}")
        if value >= LONG_TIER_BASE:
            return None, value - LONG_TIER_BASE
        e, span = divmod(value, self.max_periods)
        return e - span, e

    # -- query expansion ------------------------------------------------------

    def query_ranges(self, tr: TimeRange) -> list[tuple[int, int]]:
        """Candidate value intervals (inclusive): one main run + long tier.

        The main run covers every row ending in the query window plus the
        over-approximated tail of rows ending up to ``N-1`` periods later
        (whose span may reach back into the window); the exact push-down
        temporal filter removes tail false positives.  The query is clamped
        at the origin: a range ending before it yields no intervals.
        """
        if tr.end < self.origin:
            return []
        qi = self.period_of(max(tr.start, self.origin))
        qj = self.period_of(tr.end)
        n = self.max_periods
        main = (qi * n, (qj + n - 1) * n + (n - 1))
        long_tier = (LONG_TIER_BASE + qi, LONG_TIER_MAX)
        return [main, long_tier]

    def value_matches(self, value: int, tr: TimeRange) -> bool:
        """Coarse period-granularity overlap test (exact for main tier)."""
        qi = self.period_of(tr.start)
        qj = self.period_of(tr.end)
        s, e = self.decode(value)
        if s is None:  # long tier: unknown start, assume it reaches back
            return e >= qi
        return s <= qj and e >= qi

    # -- analysis helpers (cost-model inputs) ---------------------------------

    def expected_fraction_retrieved(self, query_periods: int) -> float:
        """Period-equivalents retrieved per unit density (cf. TR's
        ``(N - 1 + 2Q) / 2``): all ``Q`` query periods plus the full
        ``N - 1``-period over-approximated tail."""
        return float(query_periods + self.max_periods - 1)
