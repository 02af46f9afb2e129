"""Tests for the TShape index: Lemmas 3-4, Eq. 3, shape codes, Algorithm 2."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.quadtree import QuadTreeGrid
from repro.core.tshape import TShapeIndex
from repro.geometry.relations import polyline_intersects_rect
from repro.model import MBR, STPoint, Trajectory

BOUNDARY = MBR(0.0, 0.0, 10.0, 10.0)


@pytest.fixture
def index():
    return TShapeIndex(QuadTreeGrid(BOUNDARY, 10), alpha=3, beta=3)


def traj_from_norm(norm_points, t0=0.0):
    """Build a trajectory whose normalized coordinates equal norm_points."""
    pts = [
        STPoint(t0 + i, BOUNDARY.x1 + nx * BOUNDARY.width, BOUNDARY.y1 + ny * BOUNDARY.height)
        for i, (nx, ny) in enumerate(norm_points)
    ]
    return Trajectory("o", "t", pts)


class TestConfigValidation:
    def test_rejects_small_alpha(self):
        grid = QuadTreeGrid(BOUNDARY, 8)
        with pytest.raises(ValueError):
            TShapeIndex(grid, alpha=1, beta=3)

    def test_rejects_64bit_overflow(self):
        grid = QuadTreeGrid(BOUNDARY, 28)
        with pytest.raises(ValueError):
            TShapeIndex(grid, alpha=4, beta=4)  # 57 + 16 > 64

    def test_boundary_ok_case(self):
        # 2g + 1 + a*b = 2*27 + 1 + 9 = 64 exactly.
        TShapeIndex(QuadTreeGrid(BOUNDARY, 27), alpha=3, beta=3)


class TestPacking:
    def test_pack_unpack_roundtrip(self, index):
        for code in [0, 5, 1000]:
            for shape in [0, 1, 0b111111111]:
                value = index.pack(code, shape)
                assert index.unpack(value) == (code, shape)

    def test_pack_rejects_oversized_shape(self, index):
        with pytest.raises(ValueError):
            index.pack(0, 1 << 9)

    def test_pack_preserves_element_order(self, index):
        # Values of element e are all below values of element e+1.
        assert index.pack(5, 0b111111111) < index.pack(6, 0)


class TestResolutionSelection:
    def test_large_mbr_resolution_1(self, index):
        assert index.resolution_for(MBR(0.0, 0.0, 0.9, 0.9)) == 1

    def test_point_mbr_max_resolution(self, index):
        assert index.resolution_for(MBR(0.3, 0.3, 0.3, 0.3)) == index.grid.max_resolution

    def test_lemma3_bound(self, index):
        """r is never deeper than l = floor(log0.5(max(w/alpha, h/beta)))."""
        import math

        for w, h in [(0.1, 0.05), (0.02, 0.3), (0.24, 0.24)]:
            mbr = MBR(0.31, 0.41, 0.31 + w, 0.41 + h)
            l = math.floor(math.log(max(w / 3, h / 3), 0.5))
            r = index.resolution_for(mbr)
            assert r in (min(l, 10), min(l, 10) - 1) or r == 1

    @given(
        st.floats(0.0, 0.95),
        st.floats(0.0, 0.95),
        st.floats(0.0001, 0.5),
        st.floats(0.0001, 0.5),
    )
    @settings(max_examples=200)
    def test_element_always_covers_mbr(self, x1, y1, w, h):
        """Lemma 4's guarantee: the chosen element covers the MBR."""
        index = TShapeIndex(QuadTreeGrid(BOUNDARY, 10), alpha=3, beta=3)
        mbr = MBR(x1, y1, min(1.0, x1 + w), min(1.0, y1 + h))
        anchor = index.anchor_cell(mbr)
        element = index.element_rect(anchor)
        assert element.x1 <= mbr.x1 + 1e-12 and element.y1 <= mbr.y1 + 1e-12
        assert element.x2 >= mbr.x2 - 1e-12 and element.y2 >= mbr.y2 - 1e-12

    @given(st.floats(0, 0.9), st.floats(0, 0.9), st.floats(0.001, 0.4))
    @settings(max_examples=100)
    def test_alpha_beta_22_matches_xz_doubling(self, x1, y1, size):
        """With alpha=beta=2 the element is the classic doubled cell."""
        index = TShapeIndex(QuadTreeGrid(BOUNDARY, 10), alpha=2, beta=2)
        mbr = MBR(x1, y1, min(1.0, x1 + size), min(1.0, y1 + size))
        anchor = index.anchor_cell(mbr)
        rect = index.element_rect(anchor)
        assert rect.width == pytest.approx(2 * anchor.size)


class TestShapeBitmap:
    def test_single_cell_point(self, index):
        traj = traj_from_norm([(0.05, 0.05)])
        key = index.index_trajectory(traj)
        assert bin(key.raw_shape).count("1") == 1

    def test_diagonal_touches_multiple_cells(self, index):
        traj = traj_from_norm([(0.01, 0.01), (0.3, 0.3)])
        key = index.index_trajectory(traj)
        assert bin(key.raw_shape).count("1") >= 2

    def test_bitmap_cells_cover_polyline(self, index):
        """Soundness: the union of set cells covers the trajectory."""
        traj = traj_from_norm([(0.12, 0.07), (0.18, 0.22), (0.33, 0.28), (0.35, 0.09)])
        key = index.index_trajectory(traj)
        npoints = [index.grid.normalize(p.lng, p.lat) for p in traj.points]
        for nx, ny in npoints:
            covered = False
            for b in range(index.beta):
                for a in range(index.alpha):
                    if key.raw_shape & (1 << (b * index.alpha + a)):
                        if index.cell_rect(key.anchor, a, b).contains_point(nx, ny):
                            covered = True
            assert covered, (nx, ny)

    def test_lshape_excludes_far_corner(self, index):
        """An L-shaped path should not set the opposite corner cell."""
        # Carefully inside one element: resolution picked automatically.
        traj = traj_from_norm(
            [(0.01, 0.01), (0.28, 0.01), (0.28, 0.28)]
        )
        key = index.index_trajectory(traj)
        # Upper-left cell (a=0, b=beta-1) should be untouched by this L.
        bit = 1 << ((index.beta - 1) * index.alpha + 0)
        assert not key.raw_shape & bit

    def test_shape_intersects(self, index):
        traj = traj_from_norm([(0.01, 0.01), (0.28, 0.01)])
        key = index.index_trajectory(traj)
        hit = MBR(0.0, 0.0, 0.05, 0.05)
        miss = MBR(0.0, 0.9, 0.05, 0.95)
        sr_hit = index.grid.normalize_mbr(MBR(0.0, 0.0, 0.5, 0.5))
        assert index.shape_intersects(key.anchor, key.raw_shape, sr_hit)


class TestQueryRanges:
    def _shapes_of_factory(self, mapping):
        return lambda code: mapping.get(code)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_completeness_random(self, data):
        """Any trajectory intersecting the window must be in the ranges."""
        index = TShapeIndex(QuadTreeGrid(BOUNDARY, 8), alpha=3, beta=3)
        n = data.draw(st.integers(2, 6))
        norm_pts = [
            (data.draw(st.floats(0.01, 0.99)), data.draw(st.floats(0.01, 0.99)))
            for _ in range(n)
        ]
        traj = traj_from_norm(norm_pts)
        key = index.index_trajectory(traj)

        qx = data.draw(st.floats(0.0, 0.8))
        qy = data.draw(st.floats(0.0, 0.8))
        qs = data.draw(st.floats(0.02, 0.3))
        window_norm = MBR(qx, qy, min(1.0, qx + qs), min(1.0, qy + qs))
        window = index.grid.denormalize_mbr(window_norm)

        intersects = polyline_intersects_rect(norm_pts, window_norm)
        if not intersects:
            return  # only completeness is asserted

        mapping = {key.element_code: {key.raw_shape: 7}}
        ranges = index.query_ranges(window, self._shapes_of_factory(mapping))
        value = index.index_value(key, final_code=7)
        assert any(lo <= value < hi for lo, hi in ranges)

    def test_no_cache_mode_enumerates_shapes(self):
        index = TShapeIndex(QuadTreeGrid(BOUNDARY, 6), alpha=2, beta=2)
        window = index.grid.denormalize_mbr(MBR(0.4, 0.4, 0.6, 0.6))
        cached = index.query_ranges(window, lambda c: None, use_cache=True)
        raw = index.query_ranges(window, None, use_cache=False)
        # Without the cache many more candidate values appear.
        assert sum(hi - lo for lo, hi in raw) > sum(hi - lo for lo, hi in cached)

    def test_contained_element_emits_subtree_range(self):
        index = TShapeIndex(QuadTreeGrid(BOUNDARY, 6), alpha=2, beta=2)
        # A window covering everything contains every element.
        window = BOUNDARY
        ranges = index.query_ranges(window, None, use_cache=False)
        # One merged range covering the whole value space is expected.
        assert len(ranges) == 1
        lo, hi = ranges[0]
        assert lo == 0

    def test_ranges_are_merged_and_sorted(self, index):
        window = index.grid.denormalize_mbr(MBR(0.2, 0.2, 0.5, 0.5))
        ranges = index.query_ranges(window, None, use_cache=False)
        for (lo1, hi1), (lo2, hi2) in zip(ranges, ranges[1:]):
            assert hi1 < lo2  # disjoint, non-adjacent after merging

    def test_final_codes_used_when_cached(self, index):
        traj = traj_from_norm([(0.41, 0.41), (0.44, 0.44)])
        key = index.index_trajectory(traj)
        mapping = {key.element_code: {key.raw_shape: 3}}
        window = index.grid.denormalize_mbr(MBR(0.40, 0.40, 0.45, 0.45))
        ranges = index.query_ranges(window, lambda c: mapping.get(c))
        optimized_value = index.pack(key.element_code, 3)
        assert any(lo <= optimized_value < hi for lo, hi in ranges)

    def test_directory_pruning_keeps_every_stored_value(self):
        """Seeded property: with the occupied-element directory the ranges
        are a subset of the unpruned ones and cover exactly the same
        *stored* index values (windows on the right/top edge and the whole
        boundary included, where enlarged elements are clipped)."""
        rng = random.Random(20)
        index = TShapeIndex(QuadTreeGrid(BOUNDARY, 9), alpha=3, beta=3)
        for _ in range(6):
            mapping: dict[int, dict[int, int]] = {}
            for _ in range(40):
                # Clusters, some hugging the right/top edge of the space.
                cx, cy = rng.choice([(0.3, 0.4), (0.97, 0.5), (0.6, 0.985), (0.99, 0.99)])
                span = rng.choice([0.002, 0.02, 0.2])
                pts = [
                    (
                        min(1.0, max(0.0, cx + rng.uniform(-span, span))),
                        min(1.0, max(0.0, cy + rng.uniform(-span, span))),
                    )
                    for _ in range(rng.randint(1, 5))
                ]
                key = index.index_trajectory(traj_from_norm(pts))
                shapes = mapping.setdefault(key.element_code, {})
                shapes.setdefault(key.raw_shape, len(shapes))
            stored = [
                index.pack(code, final)
                for code, shapes in mapping.items()
                for final in shapes.values()
            ]
            occupied = np.array(sorted(mapping), dtype=np.int64)
            windows = [MBR(0.0, 0.0, 1.0, 1.0), MBR(0.9, 0.0, 1.0, 1.0), MBR(0.5, 0.95, 1.0, 1.0)]
            for _ in range(12):
                x, y = rng.uniform(0, 1), rng.uniform(0, 1)
                w, h = rng.choice([0.001, 0.05, 0.4]), rng.choice([0.001, 0.05, 0.4])
                windows.append(MBR(x, y, min(1.0, x + w), min(1.0, y + h)))
            for window_norm in windows:
                window = index.grid.denormalize_mbr(window_norm)
                full = index.query_ranges(window, mapping.get)
                pruned = index.query_ranges(window, mapping.get, occupied=occupied)

                def covered(ranges):
                    return {v for v in stored if any(lo <= v < hi for lo, hi in ranges)}

                assert covered(pruned) == covered(full)
                assert all(
                    any(flo <= lo and hi <= fhi for flo, fhi in full) for lo, hi in pruned
                )
