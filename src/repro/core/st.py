"""The ST index (§IV-A4): TR value concatenated with the TShape value.

``ST(T) = TR(TB(i, j)) :: TShape(code(E), s)`` serves spatio-temporal range
queries.  Query planning composes the two underlying planners; because the
TR component is the key prefix, the planner either enumerates per-TR-value
windows (precise, when the product of candidates is small) or falls back to
TR-interval scans with the spatial predicate pushed down (cheap to plan,
slightly more rows scanned).  The choice is the CBO decision of §V.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.core.temporal import TRIndex
from repro.core.tshape import TShapeIndex
from repro.model.mbr import MBR
from repro.model.timerange import TimeRange
from repro.model.trajectory import Trajectory

DEFAULT_WINDOW_BUDGET = 4096


@dataclass(frozen=True)
class STWindow:
    """One composite query window: a TR value span × a TShape value span.

    ``tr_lo``/``tr_hi`` are inclusive TR values; ``shape_ranges`` is either a
    list of half-open TShape value ranges (fine windows) or ``None``, meaning
    the whole TShape space is scanned and spatial filtering happens in the
    push-down filter (coarse windows).
    """

    tr_lo: int
    tr_hi: int
    shape_ranges: Optional[tuple[tuple[int, int], ...]]


class STIndex:
    """Composes the TR and TShape planners into spatio-temporal windows."""

    def __init__(
        self,
        tr: TRIndex,
        tshape: TShapeIndex,
        window_budget: int = DEFAULT_WINDOW_BUDGET,
    ):
        self.tr = tr
        self.tshape = tshape
        self.window_budget = window_budget

    def index(self, traj: Trajectory) -> tuple[int, "object"]:
        """Return ``(TR value, TShapeKey)`` for a trajectory."""
        return self.tr.index_time_range(traj.time_range), self.tshape.index_trajectory(traj)

    def query_windows(
        self,
        time_range: TimeRange,
        spatial_range: MBR,
        shapes_of: Optional[Callable[[int], Optional[dict[int, int]]]] = None,
        use_cache: bool = True,
        shape_ranges: Optional[Sequence[tuple[int, int]]] = None,
    ) -> list[STWindow]:
        """Plan composite windows for an STRQ.

        Fine windows pair every candidate TR value with the TShape candidate
        ranges; they are exact but their count is the product of candidates.
        When that product exceeds ``window_budget`` the planner emits one
        coarse window per TR interval instead (CBO fallback).  A caller that
        already expanded ``spatial_range`` passes its ``shape_ranges``.
        """
        tr_ranges = self.tr.query_ranges(time_range)
        if shape_ranges is None:
            shape_ranges = self.tshape.query_ranges(spatial_range, shapes_of, use_cache)
        shape_ranges = tuple(shape_ranges)
        n_tr_values = sum(hi - lo + 1 for lo, hi in tr_ranges)
        if shape_ranges and n_tr_values * len(shape_ranges) <= self.window_budget:
            return [
                STWindow(v, v, shape_ranges)
                for lo, hi in tr_ranges
                for v in range(lo, hi + 1)
            ]
        return [STWindow(lo, hi, None) for lo, hi in tr_ranges]
