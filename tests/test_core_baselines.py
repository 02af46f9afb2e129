"""Tests for the baseline index structures (XZT, XZ2, XZ*, bins, start-time)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.comparators.indexes import (
    FixedBinIndex,
    StartTimeSegmentIndex,
    XZ2Index,
    XZStarIndex,
    XZTIndex,
    XZTOverflowError,
)
from repro.core.quadtree import QuadTreeGrid
from repro.model import MBR, STPoint, TimeRange, Trajectory

DAY = 24 * 3600.0
WEEK = 7 * DAY
BOUNDARY = MBR(0.0, 0.0, 10.0, 10.0)


class TestXZT:
    def test_xelement_covers_indexed_range(self):
        xzt = XZTIndex(period_seconds=WEEK, max_level=12)
        tr = TimeRange(3 * DAY, 3 * DAY + 7200)
        value = xzt.index_time_range(tr)
        assert xzt.xelement_span(value).contains(tr)

    def test_longer_ranges_get_shallower_elements(self):
        xzt = XZTIndex(period_seconds=WEEK, max_level=12)
        short = xzt.xelement_span(xzt.index_time_range(TimeRange(1000, 1300)))
        long = xzt.xelement_span(xzt.index_time_range(TimeRange(1000, 2 * DAY)))
        assert long.duration > short.duration

    def test_overflow_raises(self):
        xzt = XZTIndex(period_seconds=3600.0)
        with pytest.raises(XZTOverflowError):
            xzt.index_time_range(TimeRange(100.0, 100.0 + 3 * 3600))

    def test_dead_region_can_approach_half(self):
        """The XZT weakness the TR index fixes: up to 1/2 dead region."""
        xzt = XZTIndex(period_seconds=WEEK, max_level=14)
        # A range slightly longer than an element forces the next level up.
        tr = TimeRange(0.0, WEEK / 8 + 1)
        span = xzt.xelement_span(xzt.index_time_range(tr))
        assert span.duration >= 2 * (WEEK / 8)

    @given(st.floats(0, 4 * WEEK), st.floats(0, WEEK))
    @settings(max_examples=150, deadline=None)
    def test_query_completeness(self, start, duration):
        """A stored value is always found by queries its range intersects."""
        xzt = XZTIndex(period_seconds=WEEK, max_level=10)
        tr = TimeRange(start, start + duration)
        value = xzt.index_time_range(tr)
        # Any query overlapping the trajectory's actual range must find it.
        query = TimeRange(start + duration / 3, start + duration / 2 + 1)
        ranges = xzt.query_ranges(query)
        assert any(lo <= value <= hi for lo, hi in ranges)

    def test_candidates_refinable(self):
        xzt = XZTIndex(period_seconds=WEEK, max_level=10)
        query = TimeRange(DAY, DAY + 3600)
        far_value = xzt.index_time_range(TimeRange(5 * DAY, 5 * DAY + 60))
        assert not xzt.value_matches(far_value, query)

    def test_sequence_code_roundtrip(self):
        xzt = XZTIndex(period_seconds=WEEK, max_level=8)
        for bits in [(), (0,), (1,), (0, 1, 1), (1, 0, 1, 0)]:
            code = xzt._sequence_code(bits)
            assert xzt._decode_sequence(code) == bits

    def test_candidate_count_larger_than_tr(self):
        """XZT retrieves more candidate bins than TR for the same query
        (the paper's headline comparison)."""
        from repro.core.temporal import TRIndex

        xzt = XZTIndex(period_seconds=WEEK, max_level=16)
        tr_index = TRIndex(period_seconds=1800.0, max_periods=48)
        query = TimeRange(10 * DAY, 10 * DAY + 6 * 3600)
        assert xzt.candidate_bin_count(query) > 0
        assert tr_index.candidate_bin_count(query) > 0


class TestXZ2:
    def test_element_covers_mbr(self):
        xz2 = XZ2Index(QuadTreeGrid(BOUNDARY, 10))
        mbr = MBR(1.2, 3.4, 2.8, 4.1)
        code = xz2.index_mbr(mbr)
        assert code >= 0

    @given(
        st.floats(0.05, 9.0),
        st.floats(0.05, 9.0),
        st.floats(0.01, 4.0),
        st.floats(0.01, 4.0),
    )
    @settings(max_examples=150)
    def test_query_completeness(self, x, y, w, h):
        xz2 = XZ2Index(QuadTreeGrid(BOUNDARY, 8))
        mbr = MBR(x, y, min(10.0, x + w), min(10.0, y + h))
        code = xz2.index_mbr(mbr)
        # Any window overlapping the MBR must produce the code as candidate.
        window = MBR(mbr.x1, mbr.y1, mbr.x1 + 0.01, mbr.y1 + 0.01)
        ranges = xz2.query_ranges(window)
        assert any(lo <= code < hi for lo, hi in ranges)

    def test_whole_space_query_is_one_range(self):
        xz2 = XZ2Index(QuadTreeGrid(BOUNDARY, 6))
        ranges = xz2.query_ranges(BOUNDARY)
        assert len(ranges) == 1 and ranges[0][0] == 0


class TestXZStar:
    def _traj(self, pts):
        return Trajectory("o", "t", [STPoint(i, x, y) for i, (x, y) in enumerate(pts)])

    def test_shape_has_at_most_4_bits(self):
        xs = XZStarIndex(QuadTreeGrid(BOUNDARY, 8))
        key = xs.index_trajectory(self._traj([(1.0, 1.0), (1.5, 1.2), (2.0, 1.9)]))
        assert 0 < key.raw_shape < 16

    def test_query_completeness(self):
        xs = XZStarIndex(QuadTreeGrid(BOUNDARY, 8))
        traj = self._traj([(1.0, 1.0), (2.0, 2.0)])
        key = xs.index_trajectory(traj)
        value = xs.index_value(key)
        ranges = xs.query_ranges(MBR(0.9, 0.9, 1.1, 1.1))
        assert any(lo <= value < hi for lo, hi in ranges)

    def test_finer_than_xz2_on_lshapes(self):
        """XZ* can rule out windows that only touch unused sub-quads."""
        xs = XZStarIndex(QuadTreeGrid(BOUNDARY, 8))
        # An L missing its upper-left quadrant region.
        traj = self._traj([(0.2, 0.2), (2.3, 0.2), (2.3, 2.3)])
        key = xs.index_trajectory(traj)
        value = xs.index_value(key)
        # Window in the unused upper-left of the element.
        ranges = xs.query_ranges(MBR(0.1, 2.2, 0.3, 2.4))
        in_ranges = any(lo <= value < hi for lo, hi in ranges)
        assert bin(key.raw_shape).count("1") <= 3
        if bin(key.raw_shape).count("1") == 3:
            assert not in_ranges


class TestFixedBins:
    def test_replication(self):
        idx = FixedBinIndex(period_seconds=3600.0)
        tr = TimeRange(1800.0, 3 * 3600.0 + 100)
        assert idx.bins_for_range(tr) == [0, 1, 2, 3]
        assert idx.replication_factor(tr) == 4

    def test_query_equals_storage_bins(self):
        idx = FixedBinIndex(period_seconds=600.0)
        tr = TimeRange(0.0, 1800.0)
        assert idx.query_bins(tr) == idx.bins_for_range(tr)

    def test_bin_span(self):
        idx = FixedBinIndex(period_seconds=100.0, origin=50.0)
        assert idx.bin_span(2) == TimeRange(250.0, 350.0)

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            FixedBinIndex(period_seconds=0)


class TestStartTimeSegments:
    def _traj(self):
        return Trajectory(
            "o", "t", [STPoint(i * 100.0, i * 0.01, 0.0) for i in range(20)]
        )

    def test_split_covers_all_points(self):
        idx = StartTimeSegmentIndex(segment_seconds=500.0)
        segments = idx.split(self._traj())
        total = sum(len(s) for s in segments)
        assert total == 20

    def test_segments_respect_duration(self):
        idx = StartTimeSegmentIndex(segment_seconds=500.0)
        for seg in idx.split(self._traj()):
            assert seg.time_range.duration < 500.0

    def test_query_window_extends_left(self):
        """Figure 1(a): the scan starts at floor(ts/d)*d."""
        idx = StartTimeSegmentIndex(segment_seconds=600.0)
        window = idx.query_window(TimeRange(700.0, 900.0))
        assert window.start == 600.0 and window.end == 900.0

    def test_reassembly_recovers_trajectory(self):
        from benchmarks.comparators.vre import concat_trajectories

        traj = self._traj()
        idx = StartTimeSegmentIndex(segment_seconds=450.0)
        rebuilt = concat_trajectories(idx.split(traj))
        assert [p.t for p in rebuilt.points] == [p.t for p in traj.points]
