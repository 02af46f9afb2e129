"""Tests for the extension queries: index-only counts and kNN-point."""


import pytest

from repro.geometry.distance import point_to_polyline, point_to_segment
from repro.query.types import (
    IDTemporalQuery,
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
    ThresholdSimilarityQuery,
)


class TestPointToPolyline:
    def test_point_on_segment_is_zero(self):
        assert point_to_segment(1, 0, 0, 0, 2, 0) == 0.0

    def test_perpendicular_foot(self):
        assert point_to_segment(1, 3, 0, 0, 2, 0) == pytest.approx(3.0)

    def test_beyond_endpoint_uses_endpoint(self):
        assert point_to_segment(5, 4, 0, 0, 2, 0) == pytest.approx(5.0)

    def test_polyline_takes_min_over_segments(self):
        line = [(0, 0), (2, 0), (2, 2)]
        assert point_to_polyline(2.5, 1.0, line) == pytest.approx(0.5)

    def test_single_point_polyline(self):
        assert point_to_polyline(3, 4, [(0, 0)]) == pytest.approx(5.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            point_to_polyline(0, 0, [])


class TestCountQueries:
    def test_temporal_count_matches_query(self, loaded_tman, workload):
        for tr in workload.temporal_windows(3600, 4):
            full = loaded_tman.temporal_range_query(tr)
            counted = loaded_tman.count(TemporalRangeQuery(tr))
            assert counted.count == len(full)
            assert counted.trajectories == []

    def test_spatial_count_matches_query(self, loaded_tman, workload):
        for window in workload.spatial_windows(2.0, 4):
            full = loaded_tman.spatial_range_query(window)
            counted = loaded_tman.count(SpatialRangeQuery(window))
            assert counted.count == len(full)

    def test_st_count_matches_query(self, loaded_tman, workload):
        for window, tr in workload.st_windows(3.0, 7200, 3):
            full = loaded_tman.st_range_query(window, tr)
            counted = loaded_tman.count(STRangeQuery(window, tr))
            assert counted.count == len(full)

    def test_idt_count(self, loaded_tman, small_dataset):
        target = small_dataset[0]
        counted = loaded_tman.count(IDTemporalQuery(target.oid, target.time_range))
        full = loaded_tman.id_temporal_query(target.oid, target.time_range)
        assert counted.count == len(full)

    def test_unsupported_count_raises(self, loaded_tman, small_dataset):
        with pytest.raises(TypeError):
            loaded_tman.count(
                ThresholdSimilarityQuery(small_dataset[0], 0.1, "frechet")
            )

    def test_count_accounting_present(self, loaded_tman, workload):
        (tr,) = workload.temporal_windows(3600, 1)
        res = loaded_tman.count(TemporalRangeQuery(tr))
        assert res.windows > 0


class TestKNNPointQuery:
    def _brute(self, dataset, x, y, k):
        scored = sorted(
            (point_to_polyline(x, y, [p.xy for p in t.points]), t.tid)
            for t in dataset
        )
        return [tid for _, tid in scored[:k]]

    def test_matches_brute_force(self, loaded_tman, small_dataset):
        x, y = small_dataset[0].points[0].xy
        res = loaded_tman.knn_point_query(x, y, 5)
        assert [t.tid for t in res.trajectories] == self._brute(small_dataset, x, y, 5)

    def test_distances_sorted_and_correct(self, loaded_tman, small_dataset):
        x, y = 116.40, 39.92
        res = loaded_tman.knn_point_query(x, y, 8)
        assert res.distances == sorted(res.distances)
        for traj, d in zip(res.trajectories, res.distances):
            exact = point_to_polyline(x, y, [p.xy for p in traj.points])
            assert d == pytest.approx(exact)

    def test_k_exceeding_dataset(self, loaded_tman, small_dataset):
        x, y = 116.40, 39.92
        res = loaded_tman.knn_point_query(x, y, len(small_dataset) + 5)
        assert len(res) == len(small_dataset)

    def test_far_corner_point(self, loaded_tman, small_dataset):
        """A query far from all data still terminates and is exact."""
        b = loaded_tman.config.boundary
        x, y = b.x2 - 0.01, b.y1 + 0.01
        res = loaded_tman.knn_point_query(x, y, 3)
        assert [t.tid for t in res.trajectories] == self._brute(small_dataset, x, y, 3)

    @pytest.mark.parametrize("side", ["west", "east", "south", "north", "south_west"])
    def test_point_outside_the_boundary(self, loaded_tman, small_dataset, side):
        """Rings that miss the boundary hold no row: they are skipped, not
        clamped into an inverted window, and the radius keeps doubling."""
        b = loaded_tman.config.boundary
        mid_x, mid_y = (b.x1 + b.x2) / 2, (b.y1 + b.y2) / 2
        x, y = {
            "west": (b.x1 - 0.5, mid_y),
            "east": (b.x2 + 0.5, mid_y),
            "south": (mid_x, b.y1 - 0.5),
            "north": (mid_x, b.y2 + 0.5),
            "south_west": (b.x1 - 0.5, b.y1 - 0.5),
        }[side]
        res = loaded_tman.knn_point_query(x, y, 4)
        assert [t.tid for t in res.trajectories] == self._brute(small_dataset, x, y, 4)

    def test_rejects_bad_k(self, loaded_tman):
        with pytest.raises(ValueError):
            loaded_tman.knn_point_query(116.0, 39.0, 0)
