"""The TR index (§IV-A1 of the paper).

The timeline (anchored at the UNIX epoch) is divided into fixed-length *time
periods*.  A trajectory whose time range starts in period ``i`` and ends in
period ``j`` is represented by the *time bin* ``TB(i, j)`` and encoded as

    TR(TB(i, j)) = i * N + (j - i)                                (Eq. 1)

where ``N`` caps the number of periods a bin may span.  The encoding is
unique, adjacent bins get adjacent values (Lemmas 1-2), and a temporal range
query expands to exactly ``N`` contiguous value intervals (Lemma 5 /
Algorithm 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.model.timerange import TimeRange

DEFAULT_PERIOD_SECONDS = 1800.0  # 30 minutes
DEFAULT_MAX_PERIODS = 48


class TimeBinOverflowError(ValueError):
    """Raised when a time range spans more periods than the configured N."""


@runtime_checkable
class TemporalIndex(Protocol):
    """The pluggable temporal-index contract.

    A temporal index maps a trajectory's time range to a single integer
    index value (the secondary rowkey component) and expands a temporal
    range query into inclusive value intervals whose union covers every
    possibly-matching row.  Implementations may over-approximate — the
    pipeline always refines with the exact push-down
    :class:`~repro.query.filters.TemporalFilter` — but must never miss a
    row whose time range intersects the query.

    Conformers: :class:`TRIndex` (the paper's time-bin encoding) and
    :class:`repro.core.interval.IntervalIndex` (a LIT-style two-tier
    layout).
    """

    period_seconds: float
    max_periods: int
    origin: float

    def index_time_range(self, tr: TimeRange) -> int:
        """Index value a row with time range ``tr`` is stored under."""
        ...

    def query_ranges(self, tr: TimeRange) -> list[tuple[int, int]]:
        """Inclusive candidate value intervals for a temporal range query."""
        ...

    def value_matches(self, value: int, tr: TimeRange) -> bool:
        """Coarse test: may the row behind ``value`` overlap the query?"""
        ...


@dataclass(frozen=True)
class TRIndex:
    """Encoder/decoder for time bins plus the TRQ range calculator.

    ``origin`` is the timeline anchor (UNIX epoch in the paper); making it
    explicit keeps synthetic datasets reproducible and tests simple.
    """

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

    def period_range(self, p: int) -> TimeRange:
        """The half-open span of period ``p`` (returned as a closed range)."""
        start = self.origin + p * self.period_seconds
        return TimeRange(start, start + self.period_seconds)

    # -- encoding (Eq. 1) -----------------------------------------------------

    def encode_bin(self, i: int, j: int) -> int:
        """Index value of time bin TB(i, j)."""
        if j < i:
            raise ValueError(f"time bin end period {j} before start {i}")
        if j - i >= self.max_periods:
            raise TimeBinOverflowError(
                f"bin TB({i},{j}) spans {j - i + 1} periods; N={self.max_periods}"
            )
        return i * self.max_periods + (j - i)

    def decode(self, value: int) -> tuple[int, int]:
        """Inverse of :meth:`encode_bin`: value -> (i, j)."""
        if value < 0:
            raise ValueError(f"TR values are non-negative, got {value}")
        i, span = divmod(value, self.max_periods)
        return i, i + span

    def index_time_range(self, tr: TimeRange) -> int:
        """TR index value of a trajectory's time range."""
        return self.encode_bin(self.period_of(tr.start), self.period_of(tr.end))

    def bin_span(self, value: int) -> TimeRange:
        """The temporal extent covered by the bin behind ``value``."""
        i, j = self.decode(value)
        start = self.origin + i * self.period_seconds
        end = self.origin + (j + 1) * self.period_seconds
        return TimeRange(start, end)

    # -- query expansion (Algorithm 1) ----------------------------------------

    def query_ranges(self, tr: TimeRange) -> list[tuple[int, int]]:
        """Candidate TR value intervals (inclusive) for a temporal range query.

        Implements Algorithm 1: for each start period ``k`` in
        ``[i-N+1, i)`` the interval ``[TR(k,i), TR(k,k+N-1)]``, then the
        single run ``[TR(i,i), TR(j,j+N-1)]`` covering start periods
        ``i..j``.  Every bin in the returned intervals intersects the query
        at period granularity (Lemma 5); exact refinement happens in the
        push-down filter.  No row starts before the origin, so the query is
        clamped there: a range ending before it yields no intervals.
        """
        if tr.end < self.origin:
            return []
        i = self.period_of(max(tr.start, self.origin))
        j = self.period_of(tr.end)
        n = self.max_periods
        ranges: list[tuple[int, int]] = []
        for k in range(max(0, i - n + 1), i):
            ranges.append((self.encode_bin(k, i), self.encode_bin(k, k + n - 1)))
        ranges.append((self.encode_bin(i, i), self.encode_bin(j, j + n - 1)))
        return ranges

    def value_matches(self, value: int, tr: TimeRange) -> bool:
        """Coarse test: does the bin behind ``value`` overlap the query?"""
        return self.bin_span(value).intersects(tr)

    # -- analysis helpers (the paper's §V-B discussion) -------------------------

    def candidate_bin_count(self, tr: TimeRange) -> int:
        """Number of candidate bins Algorithm 1 touches for ``tr``."""
        return sum(hi - lo + 1 for lo, hi in self.query_ranges(tr))

    def expected_fraction_retrieved(self, query_periods: int) -> float:
        """The paper's closed-form estimate ``(N - 1 + 2Q) / (2T)`` over T=1.

        Returns the fraction of a uniformly distributed dataset retrieved per
        covered period; multiply by D/T externally.
        """
        n = self.max_periods
        return (n - 1 + 2 * query_periods) / 2.0
