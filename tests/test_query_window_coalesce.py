"""Unit tests for the pure window-coalescing helpers."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.query.windows import (
    coalesce_inclusive_ranges,
    coalesce_windows,
    subtract_inclusive_ranges,
)


def b(n: int) -> bytes:
    return n.to_bytes(4, "big")


class TestCoalesceInclusiveRanges:
    def test_empty(self):
        assert coalesce_inclusive_ranges([]) == []

    def test_single(self):
        assert coalesce_inclusive_ranges([(3, 7)]) == [(3, 7)]

    def test_adjacent_merge(self):
        # Algorithm 1's typical output: hi + 1 == next lo.
        assert coalesce_inclusive_ranges([(0, 4), (5, 9), (10, 12)]) == [(0, 12)]

    def test_overlapping_merge(self):
        assert coalesce_inclusive_ranges([(0, 6), (4, 9)]) == [(0, 9)]

    def test_gap_preserved(self):
        assert coalesce_inclusive_ranges([(0, 4), (6, 9)]) == [(0, 4), (6, 9)]

    def test_unsorted_input(self):
        assert coalesce_inclusive_ranges([(10, 12), (0, 4), (5, 9)]) == [(0, 12)]

    def test_duplicates_collapse(self):
        assert coalesce_inclusive_ranges([(2, 5), (2, 5), (2, 5)]) == [(2, 5)]

    def test_contained_range_swallowed(self):
        assert coalesce_inclusive_ranges([(0, 100), (10, 20)]) == [(0, 100)]

    def test_empty_ranges_dropped(self):
        assert coalesce_inclusive_ranges([(5, 4), (7, 2)]) == []

    def test_covered_set_preserved_randomized(self):
        rng = random.Random(1234)
        for _ in range(50):
            ranges = [
                (lo, lo + rng.randrange(0, 8))
                for lo in (rng.randrange(0, 64) for _ in range(rng.randrange(0, 10)))
            ]
            merged = coalesce_inclusive_ranges(ranges)
            covered = {v for lo, hi in ranges for v in range(lo, hi + 1)}
            covered_after = {v for lo, hi in merged for v in range(lo, hi + 1)}
            assert covered_after == covered
            # Output is sorted and strictly non-adjacent.
            for (alo, ahi), (blo, bhi) in zip(merged, merged[1:]):
                assert ahi + 1 < blo


ranges_strategy = st.lists(
    st.tuples(st.integers(0, 80), st.integers(-2, 12)).map(lambda r: (r[0], r[0] + r[1])),
    max_size=8,
)


def covered(ranges) -> set[int]:
    return {v for lo, hi in ranges for v in range(lo, hi + 1)}


def assert_canonical(ranges) -> None:
    """Sorted, non-empty and strictly non-adjacent."""
    assert all(lo <= hi for lo, hi in ranges)
    for (_, ahi), (blo, _) in zip(ranges, ranges[1:]):
        assert ahi + 1 < blo


class TestRangeSetArithmetic:
    """The ring loop's bookkeeping: what a round adds is ``wanted - scanned``,
    and the scanned union grows by it."""

    @given(ranges_strategy, ranges_strategy)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_difference_and_union_match_set_arithmetic(self, wanted, scanned):
        fresh = subtract_inclusive_ranges(wanted, scanned)
        assert covered(fresh) == covered(wanted) - covered(scanned)
        assert_canonical(fresh)
        union = coalesce_inclusive_ranges(scanned + fresh)
        assert covered(union) == covered(wanted) | covered(scanned)
        assert_canonical(union)

    def test_examples(self):
        assert subtract_inclusive_ranges([(0, 9)], [(3, 4), (8, 20)]) == [(0, 2), (5, 7)]
        assert subtract_inclusive_ranges([(0, 9)], []) == [(0, 9)]
        assert subtract_inclusive_ranges([(0, 9)], [(0, 9)]) == []
        assert subtract_inclusive_ranges([(5, 6), (0, 1)], [(1, 5)]) == [(0, 0), (6, 6)]


class TestCoalesceWindows:
    def test_empty(self):
        assert coalesce_windows([]) == []

    def test_abutting_merge(self):
        # Half-open windows that abut exactly merge into one.
        assert coalesce_windows([(b(0), b(5)), (b(5), b(9))]) == [(b(0), b(9))]

    def test_gap_preserved(self):
        wins = [(b(0), b(4)), (b(6), b(9))]
        assert coalesce_windows(wins) == wins

    def test_unsorted_and_duplicate(self):
        wins = [(b(6), b(9)), (b(0), b(4)), (b(0), b(4))]
        assert coalesce_windows(wins) == [(b(0), b(4)), (b(6), b(9))]

    def test_overlap_merge(self):
        assert coalesce_windows([(b(0), b(7)), (b(3), b(9))]) == [(b(0), b(9))]

    def test_empty_window_dropped(self):
        assert coalesce_windows([(b(5), b(5)), (b(7), b(3))]) == []

    def test_none_start_sorts_first(self):
        assert coalesce_windows([(b(2), b(4)), (None, b(2))]) == [(None, b(4))]

    def test_none_stop_swallows_rest(self):
        assert coalesce_windows([(b(1), None), (b(3), b(9))]) == [(b(1), None)]

    def test_full_scan_window(self):
        assert coalesce_windows([(None, None), (b(3), b(9))]) == [(None, None)]

    def test_deterministic_output(self):
        wins = [(b(8), b(10)), (b(0), b(2)), (b(2), b(5))]
        assert coalesce_windows(wins) == coalesce_windows(reversed(wins))
