"""Spatio-temporal points."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class STPoint:
    """A single GPS fix: longitude/latitude in degrees, UNIX timestamp in seconds.

    Ordering is by ``(t, lng, lat)`` so that a sequence of points sorted by
    time is also sorted as ``STPoint`` values, which several codecs rely on.
    """

    t: float
    lng: float
    lat: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.t):
            raise ValueError(f"non-finite timestamp: {self.t}")
        if not (-180.0 <= self.lng <= 180.0):
            raise ValueError(f"longitude out of range: {self.lng}")
        if not (-90.0 <= self.lat <= 90.0):
            raise ValueError(f"latitude out of range: {self.lat}")

    @property
    def xy(self) -> tuple[float, float]:
        """Return the point as an ``(x, y) = (lng, lat)`` pair."""
        return (self.lng, self.lat)

    def shifted(self, dt: float = 0.0, dlng: float = 0.0, dlat: float = 0.0) -> "STPoint":
        """Return a copy offset in time and/or space (used by dataset scaling)."""
        return STPoint(self.t + dt, self.lng + dlng, self.lat + dlat)
