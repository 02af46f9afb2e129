"""Per-table statistics for the CBO, fed by the write path.

The :class:`TableStatisticsBuilder` is the planner's only statistics source.
:class:`~repro.storage.writer.StorageWriter` — which runs coordinator-side in
every cluster mode — calls :meth:`~TableStatisticsBuilder.observe` for each
row it writes and :meth:`~TableStatisticsBuilder.forget` for each row it
deletes (a re-encode moves a row to a new key without changing it, so it
touches nothing here), and ``TMan.rebuild_statistics`` refeeds the builder
from a header scan when a saved deployment is reopened.  The counts are
therefore exact at every moment, with no flush or compaction needed, and the
same in thread and process mode.  The planner pulls a :class:`TableStatistics`
snapshot — a period histogram, a ``cell_grid`` x ``cell_grid`` spatial
histogram and the row count — once per plan.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro.model.mbr import MBR
from repro.model.timerange import TimeRange

CELL_GRID = 16
# Hard bound on histogram iteration for degenerate huge queries.
MAX_QUERY_PERIODS = 8192


@dataclass(frozen=True)
class TableStatistics:
    """Immutable merged snapshot the planner estimates from.

    ``period_hist`` counts rows per covered time period (a row spanning k
    periods contributes to each, so sums are clamped to ``row_count``);
    ``cell_hist`` counts rows by MBR-center cell on a ``cell_grid`` grid
    over ``boundary``.  ``time_span`` and ``mbr`` are the hull of every row
    observed since the last rebuild; a delete does not shrink them.
    """

    row_count: int
    period_hist: dict[int, int]
    cell_hist: dict[tuple[int, int], int]
    time_span: Optional[TimeRange]
    mbr: Optional[MBR]
    boundary: MBR
    period_seconds: float
    origin: float
    cell_grid: int = CELL_GRID
    generation: int = 0

    # -- estimators ----------------------------------------------------------

    def _period(self, t: float) -> int:
        return max(0, int((t - self.origin) // self.period_seconds))

    def estimate_temporal(self, tr: TimeRange) -> float:
        """Estimated rows whose time range intersects ``tr``."""
        if self.row_count <= 0:
            return 0.0
        first = self._period(tr.start)
        last = max(first, self._period(tr.end))
        last = min(last, first + MAX_QUERY_PERIODS - 1)
        est = sum(self.period_hist.get(p, 0) for p in range(first, last + 1))
        return float(min(est, self.row_count))

    def _cell_bounds(self, gx: int, gy: int) -> tuple[float, float, float, float]:
        b = self.boundary
        sx = (b.x2 - b.x1) / self.cell_grid
        sy = (b.y2 - b.y1) / self.cell_grid
        return (b.x1 + gx * sx, b.y1 + gy * sy, b.x1 + (gx + 1) * sx, b.y1 + (gy + 1) * sy)

    def estimate_spatial(self, window: MBR) -> float:
        """Estimated rows intersecting ``window`` (overlap-area weighting)."""
        if self.row_count <= 0:
            return 0.0
        est = 0.0
        for (gx, gy), count in self.cell_hist.items():
            cx1, cy1, cx2, cy2 = self._cell_bounds(gx, gy)
            ox = min(cx2, window.x2) - max(cx1, window.x1)
            oy = min(cy2, window.y2) - max(cy1, window.y1)
            if ox <= 0 or oy <= 0:
                continue
            area = (cx2 - cx1) * (cy2 - cy1)
            frac = (ox * oy) / area if area > 0 else 1.0
            est += count * min(1.0, frac)
        return float(min(est, self.row_count))

    def estimate_st(self, window: MBR, tr: TimeRange) -> float:
        """Independence product of the temporal and spatial estimates."""
        if self.row_count <= 0:
            return 0.0
        t = self.estimate_temporal(tr) / self.row_count
        s = self.estimate_spatial(window) / self.row_count
        return float(self.row_count * t * s)

    def cell_count_at(self, x: float, y: float) -> int:
        """Rows whose MBR center falls in the cell containing ``(x, y)``."""
        return self.cell_hist.get(_cell_of(self.boundary, self.cell_grid, x, y), 0)


def _cell_of(boundary: MBR, grid: int, x: float, y: float) -> tuple[int, int]:
    """The histogram cell containing ``(x, y)``, clamped onto the grid."""
    sx = max(boundary.x2 - boundary.x1, 1e-12)
    sy = max(boundary.y2 - boundary.y1, 1e-12)
    gx = min(grid - 1, max(0, int((x - boundary.x1) / sx * grid)))
    gy = min(grid - 1, max(0, int((y - boundary.y1) / sy * grid)))
    return gx, gy


def _bump(hist: dict, key, sign: int) -> None:
    """Add ``sign`` to one bucket, dropping buckets that reach zero."""
    count = hist.get(key, 0) + sign
    if count > 0:
        hist[key] = count
    else:
        hist.pop(key, None)


class TableStatisticsBuilder:
    """Accumulates the histograms from the rows the writer reports.

    Thread-safe: concurrent writers and planning queries share one builder.
    """

    def __init__(
        self,
        boundary: MBR,
        period_seconds: float,
        origin: float = 0.0,
        cell_grid: int = CELL_GRID,
    ):
        self.boundary = boundary
        self.period_seconds = period_seconds
        self.origin = origin
        self.cell_grid = cell_grid
        self._lock = threading.Lock()
        self._generation = 0
        self._clear()

    def _clear(self) -> None:
        self._generation += 1
        self._snapshot: Optional[TableStatistics] = None  # rebuilt on demand
        self._row_count = 0
        self._period_hist: dict[int, int] = {}
        self._cell_hist: dict[tuple[int, int], int] = {}
        self._time_span: Optional[TimeRange] = None
        self._mbr: Optional[MBR] = None

    # -- write side -----------------------------------------------------------

    def observe(self, mbr: MBR, time_range: TimeRange) -> None:
        """Count one newly written row."""
        with self._lock:
            self._add(mbr, time_range, 1)
            self._time_span = (
                time_range
                if self._time_span is None
                else self._time_span.union_hull(time_range)
            )
            self._mbr = mbr if self._mbr is None else self._mbr.union_hull(mbr)

    def forget(self, mbr: MBR, time_range: TimeRange) -> None:
        """Uncount one deleted row (the arguments it was observed with)."""
        with self._lock:
            self._add(mbr, time_range, -1)

    def reset(self) -> None:
        """Drop everything observed (a rebuild refeeds from a scan)."""
        with self._lock:
            self._clear()

    def _add(self, mbr: MBR, tr: TimeRange, sign: int) -> None:
        self._generation += 1
        self._snapshot = None
        self._row_count += sign
        first = max(0, int((tr.start - self.origin) // self.period_seconds))
        last = max(first, int((tr.end - self.origin) // self.period_seconds))
        for p in range(first, min(last, first + MAX_QUERY_PERIODS - 1) + 1):
            _bump(self._period_hist, p, sign)
        cx, cy = mbr.center
        _bump(self._cell_hist, _cell_of(self.boundary, self.cell_grid, cx, cy), sign)

    # -- read side ------------------------------------------------------------

    @property
    def row_count(self) -> int:
        """Live rows: observed minus forgotten."""
        with self._lock:
            return self._row_count

    def snapshot(self) -> Optional[TableStatistics]:
        """The current statistics (cached until the next write).

        Returns ``None`` while the table holds no rows.
        """
        with self._lock:
            if self._snapshot is None and self._row_count > 0:
                self._snapshot = TableStatistics(
                    row_count=self._row_count,
                    period_hist=dict(self._period_hist),
                    cell_hist=dict(self._cell_hist),
                    time_span=self._time_span,
                    mbr=self._mbr,
                    boundary=self.boundary,
                    period_seconds=self.period_seconds,
                    origin=self.origin,
                    cell_grid=self.cell_grid,
                    generation=self._generation,
                )
            return self._snapshot
