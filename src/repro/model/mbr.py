"""Minimum bounding rectangles in longitude/latitude space."""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True, order=True)
class MBR:
    """An axis-aligned rectangle ``(x1, y1) .. (x2, y2)`` with ``x = lng``.

    Degenerate rectangles (zero width or height) are allowed: a single point
    trajectory has a degenerate MBR.
    """

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(f"inverted MBR: {(self.x1, self.y1, self.x2, self.y2)}")

    @classmethod
    def of_points(cls, points: Iterable[tuple[float, float]]) -> "MBR":
        """Build the tight bounding rectangle of ``(x, y)`` pairs."""
        it = iter(points)
        try:
            x, y = next(it)
        except StopIteration:
            raise ValueError("cannot build an MBR from zero points") from None
        x1 = x2 = x
        y1 = y2 = y
        for x, y in it:
            if x < x1:
                x1 = x
            elif x > x2:
                x2 = x
            if y < y1:
                y1 = y
            elif y > y2:
                y2 = y
        return cls(x1, y1, x2, y2)

    @property
    def width(self) -> float:
        """Width of the rectangle (x extent)."""
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        """Height of the rectangle (y extent)."""
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        """Area of the rectangle."""
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        """Center point ``(x, y)`` of the rectangle."""
        return ((self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0)

    def intersects(self, other: "MBR") -> bool:
        """True when the closed rectangles share at least one point."""
        return (
            self.x1 <= other.x2
            and other.x1 <= self.x2
            and self.y1 <= other.y2
            and other.y1 <= self.y2
        )

    def contains(self, other: "MBR") -> bool:
        """True when ``other`` lies entirely inside this rectangle."""
        return (
            self.x1 <= other.x1
            and other.x2 <= self.x2
            and self.y1 <= other.y1
            and other.y2 <= self.y2
        )

    def contains_point(self, x: float, y: float) -> bool:
        """True when the closed rectangle contains the point."""
        return self.x1 <= x <= self.x2 and self.y1 <= y <= self.y2

    def intersection(self, other: "MBR") -> "MBR | None":
        """Return the overlapping rectangle, or ``None`` when disjoint."""
        x1 = max(self.x1, other.x1)
        y1 = max(self.y1, other.y1)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x1 > x2 or y1 > y2:
            return None
        return MBR(x1, y1, x2, y2)

    def union_hull(self, other: "MBR") -> "MBR":
        """Return the smallest rectangle covering both inputs."""
        return MBR(
            min(self.x1, other.x1),
            min(self.y1, other.y1),
            max(self.x2, other.x2),
            max(self.y2, other.y2),
        )

    def expanded(self, margin: float) -> "MBR":
        """Return the rectangle grown by ``margin`` on every side."""
        return MBR(self.x1 - margin, self.y1 - margin, self.x2 + margin, self.y2 + margin)

    def min_distance(self, other: "MBR") -> float:
        """Euclidean distance between the two rectangles (0 when they touch)."""
        dx = max(self.x1 - other.x2, other.x1 - self.x2, 0.0)
        dy = max(self.y1 - other.y2, other.y1 - self.y2, 0.0)
        return math.hypot(dx, dy)

    def min_distance_point(self, x: float, y: float) -> float:
        """Euclidean distance from a point to the rectangle (0 when inside)."""
        dx = max(self.x1 - x, x - self.x2, 0.0)
        dy = max(self.y1 - y, y - self.y2, 0.0)
        return math.hypot(dx, dy)

    def as_tuple(self) -> tuple[float, float, float, float]:
        """The rectangle as an ``(x1, y1, x2, y2)`` tuple."""
        return (self.x1, self.y1, self.x2, self.y2)

