"""The refinement ladder behind every push-down filter (§V-G(2)) and both
ring refiners (§V-F).

A row predicate bounds the row's *distance* to the query on three rungs,
each reading a deeper section of the row: ``on_header`` (time range, MBR,
ids) and ``on_feature`` (the DP feature — the polyline lies inside the union
of its span boxes, so box tests are sound both ways) return an interval
``(lower, upper)``; ``on_points`` is exact and returns the distance itself.
:meth:`Ladder.walk` decodes each section at most once: it drops the row as
soon as a lower bound exceeds its ``bound``, keeps it once every upper bound
is within it, and otherwise goes one rung down.  Temporal, id and spatial
predicates have distance 0 or inf and are walked with bound 0; threshold
similarity with bound θ; the top-k and kNN refiners
(:mod:`repro.query.operators`) with their sink's moving k-th distance,
asking for the exact distance.  ``a & b`` is a conjunction: its distance is
the larger of its conjuncts', so one walk decides both and reads the header
once.  The walk is the one place that tallies the point decodes
(``decode_rows`` / ``decode_ms``) and exact similarity kernels
(``similarity_rows`` / ``similarity_ms``) a decision needs, for the profile.
"""

from __future__ import annotations

import copy
from threading import get_ident
from time import perf_counter
from typing import Optional

from repro.compression.traj_codec import COORD_SCALE
from repro.geometry.relations import polyline_intersects_rect_arrays
from repro.kvstore.filters import Filter
from repro.model.mbr import MBR
from repro.model.pointblock import PointBlock, PointsLike
from repro.model.timerange import TimeRange
from repro.obs.profile import current_profile
from repro.similarity.measures import distance_by_name
from repro.similarity.pruning import (
    boxes_lower_bound,
    dp_lower_bound,
    dp_upper_bound,
    endpoint_lower_bound,
    mbr_lower_bound,
)
from repro.storage.serializer import RowSerializer

INF = float("inf")
MATCH = (0.0, 0.0)
MISS = (INF, INF)
UNKNOWN = (0.0, INF)

# Half a coordinate quantum: decoded points sit within this distance of
# the (full-precision) originals the row was built from.
_COORD_EPS = 0.5 / COORD_SCALE
# A whole quantum: the header MBR grown by it holds every decoded point.
_QUANTUM = 1.0 / COORD_SCALE


class Ladder:
    """A row predicate's rungs, and the walk over them: ``on_header``, plus
    ``on_feature`` and ``on_points`` when the header can leave a row open.
    ``serializer`` decodes the points; ``kernel`` marks an exact similarity
    kernel on the points rung."""

    serializer: Optional[RowSerializer] = None
    kernel = False
    _more: tuple["Ladder", ...] = ()  # the conjuncts after this one

    def __init__(self):
        # Per thread: [rows, decode s, points-rung s] walked to the points
        # since the last flush (one filter serves every region run).
        self._tallies: dict[int, list] = {}

    def __and__(self, other: Filter) -> Filter:
        """The conjunction: a copy of ``self`` (same class and ``test``) that
        walks ``other``'s conjuncts after its own.  Any other filter chains."""
        if not isinstance(other, Ladder):
            return Filter.__and__(self, other)
        both = copy.copy(self)
        both._more = self._more + (other,) + other._more
        both.serializer = self.serializer or other.serializer
        both._tallies = {}
        return both

    def walk(self, value: bytes, bound: float, exact: bool = False):
        """Decide one row: ``None`` when its distance exceeds ``bound``, else
        ``(distance, trajectory)`` — the points' distance and the decoded
        trajectory when the walk reached them, ``(bound, None)`` when a rung
        above kept the row.  With ``exact`` no upper bound keeps a row and
        the points' distance is returned even past ``bound``."""
        header = RowSerializer.decode_header(value)
        # The first conjunct alone decides most rows: no bookkeeping for it.
        lower, upper = self.on_header(header)
        if lower > bound or lower == INF:
            return None
        open_ = [self] if exact or upper > bound else []
        if self._more:
            more = _narrow(self._more, bound, exact, "on_header", header)
            if more is None:
                return None
            open_ += more
        if open_:
            feature = RowSerializer.decode_feature(value, header)
            open_ = _narrow(open_, bound, exact, "on_feature", header, feature)
        if not open_:
            return None if open_ is None else (bound, None)
        t0 = perf_counter()
        trajectory = self.serializer.decode_trajectory(value, header).trajectory
        t1 = perf_counter()
        distance = max(pred.on_points(header, trajectory.block) for pred in open_)
        tally = self._tallies.get(get_ident())
        if tally is None:
            tally = self._tallies[get_ident()] = [0, 0.0, 0.0]
        tally[0] += 1
        tally[1] += t1 - t0
        tally[2] += perf_counter() - t1
        return (distance, trajectory) if exact or distance <= bound else None

    def flush(self) -> None:
        """Add the tallied decodes and kernels to the current profile.

        The walk tallies them instead of adding each row, so profiling costs
        three clock reads per points-rung row, not a locked profile update.
        ``Pipeline.run`` flushes every ladder of a round once its stages
        closed, when no pool thread walks rows for them any more.
        """
        tallies, self._tallies = self._tallies, {}
        profile = current_profile()
        if not tallies or profile is None:
            return
        rows, decode_s, points_s = (sum(column) for column in zip(*tallies.values()))
        profile.add(
            decode_rows=rows, decode_ms=decode_s * 1000.0,
            similarity_rows=rows if self.kernel else 0,
            similarity_ms=points_s * 1000.0 if self.kernel else 0.0,
        )


def _narrow(preds, bound, exact, rung, *section) -> Optional[list]:
    """The predicates ``rung`` leaves open (an upper bound past ``bound``, or
    ``exact``), or None once one is past it (an infinite distance is past
    every bound)."""
    still = []
    for pred in preds:
        lower, upper = getattr(pred, rung)(*section)
        if lower > bound or lower == INF:
            return None
        if exact or upper > bound:
            still.append(pred)
    return still


class TemporalFilter(Ladder, Filter):
    """Exact temporal predicate from the row header."""

    def __init__(self, time_range: TimeRange):
        super().__init__()
        self.time_range = time_range

    def on_header(self, header):
        return MATCH if header.time_range.intersects(self.time_range) else MISS

    def test(self, key: bytes, value: bytes) -> bool:
        """Return True to keep the row (push-down predicate)."""
        return self.walk(value, 0.0) is not None


class IdFilter(Ladder, Filter):
    """Keeps rows produced by one moving object."""

    def __init__(self, oid: str):
        super().__init__()
        self.oid = oid

    def on_header(self, header):
        return MATCH if header.oid == self.oid else MISS

    def test(self, key: bytes, value: bytes) -> bool:
        """Return True to keep the row (push-down predicate)."""
        return self.walk(value, 0.0) is not None


class SpatialFilter(Ladder, Filter):
    """Exact spatial intersection: the polyline meets the window."""

    def __init__(self, window: MBR, serializer: RowSerializer):
        super().__init__()
        self.window = window
        self.serializer = serializer
        # Decoded coordinates are quantized; a polyline grazing the window
        # edge can land half a quantum outside it.  The points rung tests
        # the window grown by that band: inside it the header MBR, which
        # keeps full precision and met the window on the first rung, decides.
        self._grown = window.expanded(_COORD_EPS)

    def on_header(self, header):
        if not header.mbr.intersects(self.window):
            return MISS
        return MATCH if self.window.contains(header.mbr) else UNKNOWN

    def on_feature(self, header, feature):
        wx1, wy1, wx2, wy2 = self.window.as_tuple()
        touching = [
            (x1, y1, x2, y2)
            for x1, y1, x2, y2 in zip(*feature.box_columns)
            if x1 <= wx2 and wx1 <= x2 and y1 <= wy2 and wy1 <= y2
        ]
        if not touching:
            # The polyline lives inside the span boxes; none touch the window.
            return MISS
        rep_xs, rep_ys = feature.rep_columns
        if any(
            wx1 <= x1 and x2 <= wx2 and wy1 <= y1 and y2 <= wy2 for x1, y1, x2, y2 in touching
        ) or any(wx1 <= x <= wx2 and wy1 <= y <= wy2 for x, y in zip(rep_xs, rep_ys)):
            return MATCH
        return UNKNOWN

    def on_points(self, header, block) -> float:
        return 0.0 if polyline_intersects_rect_arrays(block.xs, block.ys, self._grown) else INF

    def test(self, key: bytes, value: bytes) -> bool:
        """Return True to keep the row (push-down predicate)."""
        return self.walk(value, 0.0) is not None


class SimilarityFilter(Ladder, Filter):
    """Exact threshold similarity: the row's distance to the query is <= θ.

    The header and DP-feature bounds decide most candidates without the
    exact measure (the paper's global pruning + local filter); only Fréchet
    and Hausdorff have a DP upper bound.  The top-k refiner walks the same
    lower bounds (:meth:`header_lower`, :meth:`feature_lower`) against its
    moving bound.
    """

    kernel = True

    def __init__(
        self,
        query: PointsLike,
        threshold: float,
        measure: str,
        serializer: RowSerializer,
    ):
        super().__init__()
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        # the query trajectory's block: its columns and MBR are what every
        # bound reads
        self.query_points = PointBlock.from_points(query)
        self.query_mbr = self.query_points.mbr
        self.threshold = threshold
        self.measure = measure
        self.aggregate = "sum" if measure == "dtw" else "max"
        self._distance = distance_by_name(measure)
        self.serializer = serializer

    def header_lower(self, header, bound: float) -> float:
        """MBR to MBR in O(1); when that cannot reject, every query point to
        the MBR (grown by a quantum, so it holds the decoded points)."""
        lower = mbr_lower_bound(self.query_mbr, header.mbr)
        if lower > bound:
            return lower
        m = header.mbr
        box = (m.x1 - _QUANTUM, m.y1 - _QUANTUM, m.x2 + _QUANTUM, m.y2 + _QUANTUM)
        return max(lower, boxes_lower_bound(self.query_points, box, self.aggregate))

    def feature_lower(self, feature, bound: float) -> float:
        """The endpoint bound first (Fréchet and DTW: the first and last
        representatives are the decoded end points), then the span boxes."""
        lower = 0.0
        if self.measure != "hausdorff":
            lower = endpoint_lower_bound(self.query_points, feature, self.aggregate)
            if lower > bound:
                return lower
        return max(lower, dp_lower_bound(self.query_points, feature, self.aggregate))

    def on_header(self, header):
        return self.header_lower(header, self.threshold), INF

    def on_feature(self, header, feature):
        lower = self.feature_lower(feature, self.threshold)
        if lower > self.threshold or self.measure not in ("frechet", "hausdorff"):
            return lower, INF
        return lower, dp_upper_bound(self.query_points, feature, self._distance)

    def on_points(self, header, block) -> float:
        return self._distance(self.query_points, block)

    def test(self, key: bytes, value: bytes) -> bool:
        """Return True to keep the row (push-down predicate)."""
        return self.walk(value, self.threshold) is not None
