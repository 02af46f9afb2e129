"""Tests for the flows extension (``benchmarks/flows.py``)."""

import pytest

from benchmarks.flows import GridSpec, heatmap, od_matrix, speed_profile
from repro.model import MBR, STPoint, Trajectory

BOUNDARY = MBR(0.0, 0.0, 10.0, 10.0)


def traj(coords, t0=0.0, dt=60.0, oid="o", tid="t"):
    return Trajectory(oid, tid, [
        STPoint(t0 + i * dt, x, y) for i, (x, y) in enumerate(coords)
    ])


class TestGridSpec:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            GridSpec(BOUNDARY, 0, 5)

    def test_cell_of_corners(self):
        g = GridSpec(BOUNDARY, 10, 10)
        assert g.cell_of(0.0, 0.0) == 0
        assert g.cell_of(9.99, 9.99) == 99

    def test_clamps_outside(self):
        g = GridSpec(BOUNDARY, 10, 10)
        assert g.cell_of(-5.0, -5.0) == 0
        assert g.cell_of(50.0, 50.0) == 99

    def test_cell_center_roundtrip(self):
        g = GridSpec(BOUNDARY, 4, 4)
        for cell in range(g.cell_count):
            cx, cy = g.cell_center(cell)
            assert g.cell_of(cx, cy) == cell

    def test_cell_center_out_of_range(self):
        with pytest.raises(ValueError):
            GridSpec(BOUNDARY, 2, 2).cell_center(4)


class TestODMatrix:
    def test_counts_origin_destination(self):
        g = GridSpec(BOUNDARY, 2, 2)
        trips = [
            traj([(1, 1), (9, 1)], tid="t1"),  # cell 0 -> cell 1
            traj([(1, 1), (9, 1)], tid="t2"),
            traj([(9, 9), (1, 1)], tid="t3"),  # cell 3 -> cell 0
        ]
        m = od_matrix(trips, g)
        assert m[0, 1] == 2
        assert m[3, 0] == 1
        assert m.sum() == 3

    def test_self_loops_on_diagonal(self):
        g = GridSpec(BOUNDARY, 2, 2)
        m = od_matrix([traj([(1, 1), (2, 2)])], g)
        assert m[0, 0] == 1

    def test_empty(self):
        g = GridSpec(BOUNDARY, 3, 3)
        assert od_matrix([], g).sum() == 0


class TestHeatmap:
    def test_distinct_counts_trips_not_points(self):
        g = GridSpec(BOUNDARY, 2, 2)
        t = traj([(1, 1), (1.1, 1.1), (1.2, 1.2)])  # 3 fixes, one cell
        h = heatmap([t], g, distinct=True)
        assert h[0, 0] == 1

    def test_raw_counts_points(self):
        g = GridSpec(BOUNDARY, 2, 2)
        t = traj([(1, 1), (1.1, 1.1), (1.2, 1.2)])
        h = heatmap([t], g, distinct=False)
        assert h[0, 0] == 3

    def test_shape(self):
        g = GridSpec(BOUNDARY, 5, 3)
        h = heatmap([traj([(1, 1)])], g)
        assert h.shape == (3, 5)

    def test_total_conserved(self):
        g = GridSpec(BOUNDARY, 4, 4)
        trips = [traj([(i, i), (9 - i, 9 - i)], tid=f"t{i}") for i in range(5)]
        h = heatmap(trips, g, distinct=False)
        assert h.sum() == sum(len(t) for t in trips)


class TestSpeedProfile:
    def test_constant_speed(self):
        # ~111 km per degree at the equator; 0.1 deg in 360 s ≈ 111 km/h.
        t = traj([(0.0, 0.0), (0.1, 0.0), (0.2, 0.0)], dt=360.0)
        profile = speed_profile([t], bucket_seconds=3600)
        (mean, samples), = profile.values()
        assert samples == 2
        assert mean == pytest.approx(111.19, rel=0.02)

    def test_buckets_by_start_time(self):
        a = traj([(0, 0), (0.1, 0)], t0=0.0, dt=360)
        b = traj([(0, 0), (0.1, 0)], t0=7200.0, dt=360, tid="t2")
        profile = speed_profile([a, b], bucket_seconds=3600)
        assert set(profile) == {0, 2}

    def test_zero_duration_segments_skipped(self):
        t = Trajectory("o", "t", [STPoint(0, 1, 1), STPoint(0, 2, 2)])
        assert speed_profile([t]) == {}

    def test_rejects_bad_bucket(self):
        with pytest.raises(ValueError):
            speed_profile([], bucket_seconds=0)


class TestWithTManResults:
    def test_analytics_over_query_results(self):
        """Analytics compose with the query API end to end."""
        from repro import TMan, TManConfig
        from repro.datasets import TDRIVE_SPEC, tdrive_like
        from repro.model import TimeRange

        data = tdrive_like(60, seed=22)
        with TMan(TManConfig(boundary=TDRIVE_SPEC.boundary, max_resolution=12,
                             num_shards=1, kv_workers=1)) as tman:
            tman.bulk_load(data)
            res = tman.temporal_range_query(TimeRange(0, TDRIVE_SPEC.time_span))
            grid = GridSpec(TDRIVE_SPEC.boundary, 8, 8)
            m = od_matrix(res.trajectories, grid)
            assert m.sum() == len(data)
            h = heatmap(res.trajectories, grid)
            assert h.sum() >= len(data)
