"""Unit tests for Trajectory."""

import numpy as np
import pytest

from repro.model import MBR, STPoint, TimeRange, Trajectory
from repro.compression.traj_codec import TIME_SCALE
from repro.model.pointblock import MAX_ABS_TIME, PointBlock
from repro.model.trajectory import concat_trajectories


def make(points):
    return Trajectory("obj", "trip", points)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            make([])

    def test_rejects_time_disorder(self):
        with pytest.raises(ValueError):
            make([STPoint(2, 0, 0), STPoint(1, 0, 0)])

    def test_equal_timestamps_allowed(self):
        t = make([STPoint(1, 0, 0), STPoint(1, 1, 1)])
        assert len(t) == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_rejects_non_finite_values(self, bad, column):
        """Both constructors refuse such a fix; it used to be accepted and
        fail deep inside ``bulk_load`` (a 60-bit overflow for NaN, an int
        conversion for inf)."""
        rows = [[0.0, 116.3, 39.9], [5.0, 116.31, 39.91], [10.0, 116.32, 39.92]]
        rows[1][column] = bad
        ts, xs, ys = (np.array(col) for col in zip(*rows))
        with pytest.raises(ValueError, match="trajectory trip: non-finite"):
            make(PointBlock(ts, xs, ys))
        with pytest.raises(ValueError):  # the STPoint is rejected first
            make([STPoint(*row) for row in rows])

    @pytest.mark.parametrize("t0", [1e16, 9.3e15, -1e16, 1.7e18, MAX_ABS_TIME + 0.002])
    def test_rejects_times_beyond_the_millisecond_grid(self, t0):
        """Stored rows quantize times to int64 milliseconds; such times used
        to be accepted and then decode as -9.2e15 s (varint, pfor) or fail
        the row encoder (simple8b's, before row version 6)."""
        ts = t0 + np.array([0.0, 10.0, 20.0])
        with pytest.raises(ValueError, match="trajectory trip: timestamps"):
            make(PointBlock(ts, np.full(3, 116.0), np.full(3, 39.0)))

    def test_times_at_the_bound_are_accepted(self):
        assert MAX_ABS_TIME == 2**53 / TIME_SCALE
        ts = np.array([-MAX_ABS_TIME, 0.0, MAX_ABS_TIME])
        assert len(make(PointBlock(ts, np.zeros(3), np.zeros(3)))) == 3

    def test_sequence_is_not_retained(self):
        t = make([STPoint(0, 1, 2), STPoint(1, 3, 4)])
        assert t.block._points is None
        assert t.points == (STPoint(0, 1, 2), STPoint(1, 3, 4))

    def test_single_point(self):
        t = make([STPoint(5, 1, 2)])
        assert t.time_range == TimeRange(5, 5)
        assert t.mbr == MBR(1, 2, 1, 2)


class TestDerivedProperties:
    def test_mbr_tight(self):
        t = make([STPoint(0, 1, 1), STPoint(1, 3, 0), STPoint(2, 2, 4)])
        assert t.mbr == MBR(1, 0, 3, 4)

    def test_time_range_endpoints(self):
        t = make([STPoint(10, 0, 0), STPoint(20, 0, 0), STPoint(35, 0, 0)])
        assert t.time_range == TimeRange(10, 35)

    def test_mbr_cached_object(self):
        t = make([STPoint(0, 1, 1), STPoint(1, 2, 2)])
        assert t.mbr is t.mbr

    def test_segments(self):
        t = make([STPoint(0, 0, 0), STPoint(1, 1, 0), STPoint(2, 2, 0)])
        segs = list(t.segments())
        assert len(segs) == 2
        assert segs[0] == (t[0], t[1])

    def test_xy_arrays_parallel(self):
        t = make([STPoint(0, 1, 2), STPoint(1, 3, 4)])
        ts, lngs, lats = t.xy_arrays()
        assert isinstance(ts, np.ndarray) and ts.dtype == np.float64
        assert ts.tolist() == [0, 1]
        assert lngs.tolist() == [1, 3] and lats.tolist() == [2, 4]

    def test_xy_arrays_cached(self):
        t = make([STPoint(0, 1, 2), STPoint(1, 3, 4)])
        first = t.xy_arrays()
        second = t.xy_arrays()
        assert all(a is b for a, b in zip(first, second))


class TestOperations:
    def test_shifted_offsets_everything(self):
        t = make([STPoint(0, 1, 1), STPoint(1, 2, 2)])
        s = t.shifted(dt=10, dlng=0.5, dlat=-0.5, tid="new")
        assert s.tid == "new" and s.oid == t.oid
        assert s.time_range == TimeRange(10, 11)
        assert s.mbr == MBR(1.5, 0.5, 2.5, 1.5)

    def test_slice_time(self):
        t = make([STPoint(i, float(i), 0) for i in range(10)])
        part = t.slice_time(TimeRange(3, 6))
        assert part is not None
        assert [p.t for p in part.points] == [3, 4, 5, 6]

    def test_slice_time_empty_is_none(self):
        t = make([STPoint(0, 0, 0), STPoint(1, 1, 1)])
        assert t.slice_time(TimeRange(5, 6)) is None

    def test_equality_and_hash(self):
        pts = [STPoint(0, 0, 0), STPoint(1, 1, 1)]
        assert make(pts) == make(pts)
        assert hash(make(pts)) == hash(make(pts))

    def test_inequality_different_points(self):
        assert make([STPoint(0, 0, 0)]) != make([STPoint(0, 1, 1)])


class TestConcat:
    def test_reassembles_segments_in_order(self):
        pts = [STPoint(i, float(i) / 10, 0) for i in range(10)]
        whole = make(pts)
        a = whole.slice_time(TimeRange(0, 4))
        b = whole.slice_time(TimeRange(5, 9))
        rebuilt = concat_trajectories([b, a])
        assert [p.t for p in rebuilt.points] == [p.t for p in pts]

    def test_deduplicates_shared_boundary_points(self):
        pts = [STPoint(i, float(i) / 10, 0) for i in range(6)]
        whole = make(pts)
        a = whole.slice_time(TimeRange(0, 3))
        b = whole.slice_time(TimeRange(3, 5))  # shares point t=3
        rebuilt = concat_trajectories([a, b])
        assert [p.t for p in rebuilt.points] == [0, 1, 2, 3, 4, 5]

    def test_rejects_mixed_tids(self):
        a = Trajectory("o", "t1", [STPoint(0, 0, 0)])
        b = Trajectory("o", "t2", [STPoint(1, 0, 0)])
        with pytest.raises(ValueError):
            concat_trajectories([a, b])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            concat_trajectories([])
