"""Unit tests for TimeRange (and ST-Hadoop's instant test on it)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model import TimeRange

from benchmarks.comparators.sthadoop import contains_instant

times = st.floats(0, 1e9, allow_nan=False)


def ranges():
    return st.tuples(times, times).map(lambda ab: TimeRange(min(ab), max(ab)))


class TestConstruction:
    def test_rejects_inverted(self):
        with pytest.raises(ValueError):
            TimeRange(10.0, 5.0)

    def test_degenerate_allowed(self):
        assert TimeRange(5.0, 5.0).duration == 0.0

    def test_duration(self):
        assert TimeRange(100.0, 160.0).duration == 60.0


class TestRelations:
    def test_intersects_overlap(self):
        assert TimeRange(0, 10).intersects(TimeRange(5, 15))

    def test_intersects_touching_endpoints(self):
        assert TimeRange(0, 10).intersects(TimeRange(10, 20))

    def test_disjoint(self):
        assert not TimeRange(0, 10).intersects(TimeRange(10.1, 20))

    def test_contains(self):
        assert TimeRange(0, 100).contains(TimeRange(10, 20))
        assert not TimeRange(10, 20).contains(TimeRange(0, 100))

    def test_contains_instant(self):
        tr = TimeRange(5, 10)
        assert contains_instant(tr, 5) and contains_instant(tr, 10)
        assert not contains_instant(tr, 4.999)

    def test_intersection(self):
        assert TimeRange(0, 10).intersection(TimeRange(5, 20)) == TimeRange(5, 10)

    def test_intersection_disjoint_is_none(self):
        assert TimeRange(0, 1).intersection(TimeRange(2, 3)) is None

    def test_union_hull(self):
        assert TimeRange(0, 1).union_hull(TimeRange(5, 6)) == TimeRange(0, 6)

    def test_shifted(self):
        assert TimeRange(0, 10).shifted(5) == TimeRange(5, 15)


class TestProperties:
    @given(ranges(), ranges())
    def test_intersects_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(ranges(), ranges())
    def test_intersection_consistent_with_intersects(self, a, b):
        inter = a.intersection(b)
        assert (inter is not None) == a.intersects(b)
        if inter is not None:
            assert a.contains(inter) and b.contains(inter)

    @given(ranges(), ranges())
    def test_union_hull_contains_both(self, a, b):
        hull = a.union_hull(b)
        assert hull.contains(a) and hull.contains(b)

    @given(ranges())
    def test_contains_reflexive(self, a):
        assert a.contains(a)
