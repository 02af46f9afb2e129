"""Trajectory-aware push-down filters (§V-G(2)).

Each filter decodes as little of the row as its decision needs — a
refinement ladder:

1. the fixed header (time range, MBR) decides most rows;
2. DP-features decide most of the rest (the polyline is contained in the
   union of span boxes, so box-level tests are sound both ways);
3. only truly ambiguous rows pay full point decompression.

Filters compose with :class:`repro.kvstore.filters.FilterChain`, giving the
paper's temporal + spatial + similarity filter chains.
"""

from __future__ import annotations

from typing import Sequence

from repro.compression.traj_codec import COORD_SCALE
from repro.geometry.relations import polyline_intersects_rect_arrays
from repro.kvstore.filters import Filter
from repro.model.mbr import MBR

# Half a coordinate quantum: decoded points sit within this distance of
# the (full-precision) originals the row was built from.
_COORD_EPS = 0.5 / COORD_SCALE
from repro.model.point import STPoint
from repro.model.pointblock import PointBlock
from repro.model.timerange import TimeRange
from repro.similarity.measures import distance_by_name
from repro.similarity.pruning import dp_lower_bound, dp_upper_bound, mbr_lower_bound
from repro.storage.serializer import RowSerializer


class TemporalFilter(Filter):
    """Exact temporal predicate from the row header."""

    def __init__(self, time_range: TimeRange):
        self.time_range = time_range

    def test(self, key: bytes, value: bytes) -> bool:
        """Return True to keep the row (push-down predicate)."""
        header = RowSerializer.decode_header(value)
        return header.time_range.intersects(self.time_range)


class IdFilter(Filter):
    """Keeps rows produced by one moving object."""

    def __init__(self, oid: str):
        self.oid = oid

    def test(self, key: bytes, value: bytes) -> bool:
        """Return True to keep the row (push-down predicate)."""
        return RowSerializer.decode_header(value).oid == self.oid


class SpatialFilter(Filter):
    """Exact spatial intersection via the header/feature/points ladder."""

    def __init__(self, window: MBR, serializer: RowSerializer):
        self.window = window
        self._serializer = serializer
        # Ladder statistics, useful for ablation reporting.
        self.decided_by_header = 0
        self.decided_by_feature = 0
        self.decided_by_points = 0

    def test(self, key: bytes, value: bytes) -> bool:
        """Return True to keep the row (push-down predicate)."""
        header = RowSerializer.decode_header(value)
        if not header.mbr.intersects(self.window):
            self.decided_by_header += 1
            return False
        if self.window.contains(header.mbr):
            self.decided_by_header += 1
            return True

        feature = RowSerializer.decode_feature(value, header)
        wx1, wy1, wx2, wy2 = self.window.as_tuple()
        touching = [
            (x1, y1, x2, y2)
            for x1, y1, x2, y2 in zip(*feature.box_columns)
            if x1 <= wx2 and wx1 <= x2 and y1 <= wy2 and wy1 <= y2
        ]
        if not touching:
            # The polyline lives inside the span boxes; none touch the window.
            self.decided_by_feature += 1
            return False
        _, rep_xs, rep_ys = feature.rep_columns
        if any(
            wx1 <= x1 and x2 <= wx2 and wy1 <= y1 and y2 <= wy2 for x1, y1, x2, y2 in touching
        ) or any(wx1 <= x <= wx2 and wy1 <= y <= wy2 for x, y in zip(rep_xs, rep_ys)):
            self.decided_by_feature += 1
            return True

        self.decided_by_points += 1
        block = self._serializer.decode_trajectory(value, header).trajectory.block
        if polyline_intersects_rect_arrays(block.xs, block.ys, self.window):
            return True
        # Decoded coordinates are quantized; a polyline grazing the window
        # edge can land half a quantum outside it.  Inside that ambiguity
        # band, decide with the header MBR, which keeps full precision.
        inflated = MBR(
            self.window.x1 - _COORD_EPS,
            self.window.y1 - _COORD_EPS,
            self.window.x2 + _COORD_EPS,
            self.window.y2 + _COORD_EPS,
        )
        if not polyline_intersects_rect_arrays(block.xs, block.ys, inflated):
            return False
        return header.mbr.intersects(self.window)


class SimilarityFilter(Filter):
    """Exact threshold-similarity predicate with bound short-circuits.

    Keeps a row iff its exact distance to the query is <= ``threshold``.
    MBR and DP-feature bounds decide most candidates without computing the
    exact measure (the paper's global pruning + local filter).
    """

    def __init__(
        self,
        query_points: Sequence[STPoint],
        threshold: float,
        measure: str,
        serializer: RowSerializer,
    ):
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        # a PointBlock caches the coordinate columns every bound reuses
        self.query_points = PointBlock.from_points(list(query_points))
        self.query_mbr = MBR.of_points(p.xy for p in self.query_points)
        self.threshold = threshold
        self.measure = measure
        self._distance = distance_by_name(measure)
        self._serializer = serializer
        self.pruned_by_mbr = 0
        self.pruned_by_feature = 0
        self.accepted_by_feature = 0
        self.exact_computations = 0

    def test(self, key: bytes, value: bytes) -> bool:
        """Return True to keep the row (push-down predicate)."""
        header = RowSerializer.decode_header(value)
        if mbr_lower_bound(self.query_mbr, header.mbr) > self.threshold:
            self.pruned_by_mbr += 1
            return False

        feature = RowSerializer.decode_feature(value, header)
        aggregate = "sum" if self.measure == "dtw" else "max"
        if dp_lower_bound(self.query_points, feature, aggregate) > self.threshold:
            self.pruned_by_feature += 1
            return False
        if self.measure in ("frechet", "hausdorff"):
            if dp_upper_bound(self.query_points, feature, self._distance) <= self.threshold:
                self.accepted_by_feature += 1
                return True

        self.exact_computations += 1
        stored = self._serializer.decode_trajectory(value, header)
        return self._distance(self.query_points, stored.trajectory.block) <= self.threshold
