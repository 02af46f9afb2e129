"""Closed time ranges ``[start, end]`` measured in UNIX seconds."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class TimeRange:
    """A closed time interval; ``start <= end`` is enforced."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"end ({self.end}) before start ({self.start})")

    @property
    def duration(self) -> float:
        """Length of the range in seconds."""
        return self.end - self.start

    def intersects(self, other: "TimeRange") -> bool:
        """True when the two closed ranges share at least one instant."""
        return self.start <= other.end and other.start <= self.end

    def contains(self, other: "TimeRange") -> bool:
        """True when ``other`` lies entirely inside this range."""
        return self.start <= other.start and other.end <= self.end

    def intersection(self, other: "TimeRange") -> "TimeRange | None":
        """Return the overlap of two ranges, or ``None`` when disjoint."""
        lo = max(self.start, other.start)
        hi = min(self.end, other.end)
        if lo > hi:
            return None
        return TimeRange(lo, hi)

    def union_hull(self, other: "TimeRange") -> "TimeRange":
        """Return the smallest range covering both inputs."""
        return TimeRange(min(self.start, other.start), max(self.end, other.end))

    def shifted(self, dt: float) -> "TimeRange":
        """Return a copy offset by ``dt`` seconds."""
        return TimeRange(self.start + dt, self.end + dt)
