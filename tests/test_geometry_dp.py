"""Unit tests for Douglas-Peucker and DP-features."""

import math
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.dp import douglas_peucker, dp_keep_mask, extract_dp_feature
from repro.model import STPoint
from tests import ingest_reference as ref


def line(n, noise=0.0):
    return [STPoint(i, i * 0.01, i * 0.01 * (1 + noise * ((-1) ** i))) for i in range(n)]


class TestDouglasPeucker:
    def test_empty(self):
        assert douglas_peucker([], 0.1) == []

    def test_two_points_kept(self):
        pts = [STPoint(0, 0, 0), STPoint(1, 1, 1)]
        assert douglas_peucker(pts, 0.001) == [0, 1]

    def test_straight_line_collapses(self):
        pts = line(50)
        assert douglas_peucker(pts, 1e-6) == [0, 49]

    def test_sharp_corner_kept(self):
        pts = [STPoint(0, 0, 0), STPoint(1, 1, 0), STPoint(2, 1, 1)]
        assert douglas_peucker(pts, 0.1) == [0, 1, 2]

    def test_epsilon_monotone(self):
        pts = [STPoint(i, i * 0.1, math.sin(i) * 0.1) for i in range(30)]
        loose = douglas_peucker(pts, 0.2)
        tight = douglas_peucker(pts, 0.0001)
        assert len(loose) <= len(tight)

    def test_endpoints_always_kept(self):
        pts = [STPoint(i, i * 0.1, (i % 3) * 0.05) for i in range(20)]
        idxs = douglas_peucker(pts, 0.02)
        assert idxs[0] == 0 and idxs[-1] == 19

    @given(st.integers(3, 40), st.floats(0.0001, 1.0))
    def test_deviation_bound_holds(self, n, eps):
        pts = [
            STPoint(i, (i * 37 % 11) * 0.1, (i * 53 % 7) * 0.1) for i in range(n)
        ]
        pts = sorted(pts, key=lambda p: p.t)
        idxs = douglas_peucker(pts, eps)
        # Every dropped point must be within eps of its simplified segment.
        from tests.ingest_reference import perpendicular_distance

        for lo, hi in zip(idxs, idxs[1:]):
            ax, ay = pts[lo].xy
            bx, by = pts[hi].xy
            for i in range(lo + 1, hi):
                assert perpendicular_distance(pts[i].lng, pts[i].lat, ax, ay, bx, by) <= eps + 1e-12


def zigzag(n):
    """x = k * 0.001, y alternating 0 / 0.01: every interior point of a
    level chord ties for farthest."""
    return np.arange(n) * 0.001, np.where(np.arange(n) % 2, 0.01, 0.0)


def test_zigzag_ties_split_near_the_middle():
    # Splitting at the first of the tied points peeled one point per
    # level, which made the pass quadratic in the trajectory's length.
    xs, ys = zigzag(20_000)
    t0 = time.perf_counter()
    keep = dp_keep_mask(xs, ys, (0, len(xs)), 0.002)
    assert time.perf_counter() - t0 < 2.0
    kept = np.flatnonzero(keep)
    assert kept[0] == 0 and kept[-1] == len(xs) - 1
    for lo, hi in zip(kept.tolist(), kept[1:].tolist()):
        for i in range(lo + 1, hi):
            assert ref.perpendicular_distance(xs[i], ys[i], xs[lo], ys[lo], xs[hi], ys[hi]) <= 0.002


def test_zigzag_matches_the_scalar_reference():
    xs, ys = zigzag(1_001)
    got = np.flatnonzero(dp_keep_mask(xs, ys, (0, len(xs)), 0.002)).tolist()
    assert got == ref.douglas_peucker(xs.tolist(), ys.tolist(), 0.002)


class TestDPFeature:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            extract_dp_feature([], 0.1)

    def test_single_point(self):
        f = extract_dp_feature([STPoint(0, 1, 2)], 0.1)
        assert len(f.span_boxes) == 1
        assert f.span_boxes[0].contains_point(1, 2)

    def test_boxes_cover_all_points(self):
        pts = [STPoint(i, i * 0.01, math.sin(i * 0.7) * 0.05) for i in range(60)]
        f = extract_dp_feature(pts, 0.01)
        for p in pts:
            assert any(b.contains_point(p.lng, p.lat) for b in f.span_boxes)

    def test_mbr_equals_union_of_boxes(self):
        pts = [STPoint(i, i * 0.01, (i % 5) * 0.02) for i in range(40)]
        f = extract_dp_feature(pts, 0.005)
        mbr = f.mbr
        for box in f.span_boxes:
            assert mbr.contains(box)

    def test_min_distance_lower_bounds_point_distances(self):
        pts = [STPoint(i, i * 0.01, 0.0) for i in range(30)]
        f = extract_dp_feature(pts, 0.001)
        qx, qy = 0.15, 0.1
        exact = min(math.hypot(p.lng - qx, p.lat - qy) for p in pts)
        assert f.min_distance_to_point(qx, qy) <= exact + 1e-12

    def test_rep_points_subset_of_raw(self):
        pts = [STPoint(i, i * 0.01, (i % 7) * 0.03) for i in range(25)]
        f = extract_dp_feature(pts, 0.01)
        assert list(zip(*f.rep_columns)) == [pts[i].xy for i in f.rep_indexes]
