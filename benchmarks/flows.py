"""Flow analytics over query results (an extension): OD matrices, visit
heatmaps, speed profiles."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.geometry.distance import haversine_km
from repro.model.mbr import MBR
from repro.model.trajectory import Trajectory


@dataclass(frozen=True)
class GridSpec:
    """A uniform analysis grid over a spatial boundary."""

    boundary: MBR
    cols: int
    rows: int

    def __post_init__(self) -> None:
        if self.cols <= 0 or self.rows <= 0:
            raise ValueError("grid dimensions must be positive")
        if self.boundary.width <= 0 or self.boundary.height <= 0:
            raise ValueError("grid boundary must have positive area")

    @property
    def cell_count(self) -> int:
        """Cell count."""
        return self.cols * self.rows

    def cell_of(self, lng: float, lat: float) -> int:
        """Flat cell index of a point (clamped to the boundary)."""
        cx = int((lng - self.boundary.x1) / self.boundary.width * self.cols)
        cy = int((lat - self.boundary.y1) / self.boundary.height * self.rows)
        cx = min(self.cols - 1, max(0, cx))
        cy = min(self.rows - 1, max(0, cy))
        return cy * self.cols + cx

    def cell_center(self, cell: int) -> tuple[float, float]:
        """Geographic center of a flat cell index."""
        if not 0 <= cell < self.cell_count:
            raise ValueError(f"cell {cell} out of range")
        cy, cx = divmod(cell, self.cols)
        return (
            self.boundary.x1 + (cx + 0.5) * self.boundary.width / self.cols,
            self.boundary.y1 + (cy + 0.5) * self.boundary.height / self.rows,
        )


def od_matrix(trajs: Iterable[Trajectory], grid: GridSpec) -> np.ndarray:
    """Origin-destination counts: ``M[o, d]`` trips from cell o to cell d.

    Origin is each trajectory's first fix, destination its last.
    """
    matrix = np.zeros((grid.cell_count, grid.cell_count), dtype=np.int64)
    for traj in trajs:
        o = grid.cell_of(traj.start.lng, traj.start.lat)
        d = grid.cell_of(traj.end.lng, traj.end.lat)
        matrix[o, d] += 1
    return matrix


def heatmap(trajs: Iterable[Trajectory], grid: GridSpec,
            distinct: bool = True) -> np.ndarray:
    """Visit intensity per cell as a ``(rows, cols)`` array.

    ``distinct=True`` counts each trajectory at most once per cell (how many
    trips touched the cell); ``False`` counts raw fixes (dwell-weighted).
    """
    counts = np.zeros(grid.cell_count, dtype=np.int64)
    for traj in trajs:
        if distinct:
            for cell in {grid.cell_of(p.lng, p.lat) for p in traj.points}:
                counts[cell] += 1
        else:
            for p in traj.points:
                counts[grid.cell_of(p.lng, p.lat)] += 1
    return counts.reshape(grid.rows, grid.cols)


def speed_profile(
    trajs: Iterable[Trajectory], bucket_seconds: float = 3600.0
) -> dict[int, tuple[float, int]]:
    """Mean speed (km/h) per time-of-bucket: ``{bucket: (mean_kmh, samples)}``.

    Each trajectory segment contributes one sample at the bucket of its
    start fix.  Zero-duration segments are skipped.
    """
    if bucket_seconds <= 0:
        raise ValueError(f"bucket_seconds must be positive: {bucket_seconds}")
    sums: dict[int, float] = {}
    counts: dict[int, int] = {}
    for traj in trajs:
        for a, b in traj.segments():
            dt_h = (b.t - a.t) / 3600.0
            if dt_h <= 0:
                continue
            kmh = haversine_km(a.lng, a.lat, b.lng, b.lat) / dt_h
            bucket = int(a.t // bucket_seconds)
            sums[bucket] = sums.get(bucket, 0.0) + kmh
            counts[bucket] = counts.get(bucket, 0) + 1
    return {
        bucket: (sums[bucket] / counts[bucket], counts[bucket])
        for bucket in sorted(sums)
    }
