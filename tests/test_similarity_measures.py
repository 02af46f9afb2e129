"""Tests for the Fréchet, DTW, and Hausdorff distances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import STPoint
from repro.model.pointblock import PointBlock
from repro.similarity import dtw_distance, frechet_distance, hausdorff_distance
from repro.similarity.frechet import antidiagonal, wavefront
from repro.similarity.measures import DISTANCES, distance_by_name

from . import similarity_reference as reference


def traj(coords):
    return [STPoint(float(i), x, y) for i, (x, y) in enumerate(coords)]


def random_trajs(draw, max_len=8):
    coords = st.tuples(st.floats(-5, 5), st.floats(-5, 5))
    return draw(st.lists(coords, min_size=1, max_size=max_len))


class TestFrechet:
    def test_identical_is_zero(self):
        a = traj([(0, 0), (1, 1), (2, 2)])
        assert frechet_distance(a, a) == 0.0

    def test_parallel_lines(self):
        a = traj([(0, 0), (1, 0), (2, 0)])
        b = traj([(0, 1), (1, 1), (2, 1)])
        assert frechet_distance(a, b) == pytest.approx(1.0)

    def test_known_asymmetric_case(self):
        a = traj([(0, 0), (4, 0)])
        b = traj([(0, 0), (2, 2), (4, 0)])
        # b's apex must be matched to one of a's endpoints: sqrt(8).
        assert frechet_distance(a, b) == pytest.approx(math.sqrt(8.0), rel=1e-6)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            frechet_distance([], traj([(0, 0)]))

    def test_single_points(self):
        a = traj([(0, 0)])
        b = traj([(3, 4)])
        assert frechet_distance(a, b) == pytest.approx(5.0)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_symmetric(self, data):
        a = traj(random_trajs(data.draw))
        b = traj(random_trajs(data.draw))
        assert frechet_distance(a, b) == pytest.approx(frechet_distance(b, a), abs=1e-9)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_at_least_endpoint_distance(self, data):
        """Any coupling pins the first and last pairs."""
        a = traj(random_trajs(data.draw))
        b = traj(random_trajs(data.draw))
        d = frechet_distance(a, b)
        first = math.hypot(a[0].lng - b[0].lng, a[0].lat - b[0].lat)
        last = math.hypot(a[-1].lng - b[-1].lng, a[-1].lat - b[-1].lat)
        assert d >= max(first, last) - 1e-9

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_upper_bounded_by_max_pairwise(self, data):
        a = traj(random_trajs(data.draw))
        b = traj(random_trajs(data.draw))
        max_pair = max(
            math.hypot(p.lng - q.lng, p.lat - q.lat) for p in a for q in b
        )
        assert frechet_distance(a, b) <= max_pair + 1e-9


class TestDTW:
    def test_identical_is_zero(self):
        a = traj([(0, 0), (1, 1)])
        assert dtw_distance(a, a) == 0.0

    def test_parallel_lines_sum(self):
        a = traj([(0, 0), (1, 0), (2, 0)])
        b = traj([(0, 1), (1, 1), (2, 1)])
        assert dtw_distance(a, b) == pytest.approx(3.0)

    def test_warping_absorbs_resampling(self):
        a = traj([(0, 0), (1, 0), (2, 0)])
        b = traj([(0, 0), (0.5, 0), (1, 0), (1.5, 0), (2, 0)])
        assert dtw_distance(a, b) == pytest.approx(0.5 + 0.5)

    def test_window_constraint_never_below_unconstrained(self):
        a = traj([(i, (i % 3) * 0.5) for i in range(10)])
        b = traj([(i, ((i + 1) % 3) * 0.5) for i in range(10)])
        assert dtw_distance(a, b, window=1) >= dtw_distance(a, b) - 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dtw_distance(traj([(0, 0)]), [])

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_symmetric(self, data):
        a = traj(random_trajs(data.draw))
        b = traj(random_trajs(data.draw))
        assert dtw_distance(a, b) == pytest.approx(dtw_distance(b, a), abs=1e-9)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_nonnegative_and_zero_on_self(self, data):
        a = traj(random_trajs(data.draw))
        assert dtw_distance(a, a) == pytest.approx(0.0, abs=1e-12)


class TestHausdorff:
    def test_identical_is_zero(self):
        a = traj([(0, 0), (1, 1)])
        assert hausdorff_distance(a, a) == 0.0

    def test_subset_directed_asymmetry_resolved(self):
        a = traj([(0, 0), (1, 0), (2, 0)])
        b = traj([(0, 0), (2, 0)])
        # b's points are all in a, but a's middle point is 1 away from b? No:
        # (1,0) is 1 from (0,0) and (2,0). So H = 1.
        assert hausdorff_distance(a, b) == pytest.approx(1.0)

    def test_parallel_lines(self):
        a = traj([(0, 0), (1, 0)])
        b = traj([(0, 2), (1, 2)])
        assert hausdorff_distance(a, b) == pytest.approx(2.0)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_symmetric(self, data):
        a = traj(random_trajs(data.draw))
        b = traj(random_trajs(data.draw))
        assert hausdorff_distance(a, b) == pytest.approx(
            hausdorff_distance(b, a), abs=1e-9
        )

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, data):
        a = traj(random_trajs(data.draw))
        b = traj(random_trajs(data.draw))
        c = traj(random_trajs(data.draw))
        assert hausdorff_distance(a, c) <= (
            hausdorff_distance(a, b) + hausdorff_distance(b, c) + 1e-9
        )

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_hausdorff_at_most_frechet(self, data):
        """Fréchet dominates Hausdorff on any pair."""
        a = traj(random_trajs(data.draw))
        b = traj(random_trajs(data.draw))
        assert hausdorff_distance(a, b) <= frechet_distance(a, b) + 1e-9


class TestRegistry:
    def test_lookup(self):
        assert distance_by_name("frechet") is frechet_distance
        assert distance_by_name("dtw") is dtw_distance
        assert distance_by_name("hausdorff") is hausdorff_distance

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            distance_by_name("edr")


class TestKernelsMatchReference:
    """The vectorized kernels return the seed row-by-row kernels' exact
    floats: per-cell arithmetic is the same, only the evaluation order
    (antidiagonals vs rows) differs."""

    LENGTHS = (1, 2, 17, 200)

    @pytest.mark.parametrize("measure", sorted(DISTANCES))
    @given(seed=st.integers(0, 2**32 - 1), decimals=st.sampled_from([1, 9]))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_bit_identical_for_blocks_and_point_lists(self, measure, seed, decimals):
        rng = np.random.default_rng(seed)

        def walk(n):
            # decimals=1 snaps the walk to a coarse grid: repeated points,
            # zero distances and ties in every min/max of the recurrence.
            xs, ys = np.round(rng.normal(0, 0.1, (2, n)).cumsum(axis=1), decimals)
            return PointBlock(np.arange(n, dtype=float), xs, ys)

        vectorized = DISTANCES[measure]
        oracle = getattr(reference, f"{measure}_reference")
        for n in self.LENGTHS:
            for m in self.LENGTHS:
                a, b = walk(n), walk(m)
                points_a, points_b = list(a), list(b)
                want = oracle(points_a, points_b)
                assert vectorized(a, b) == want, (n, m)
                assert vectorized(points_a, points_b) == want, (n, m)

    @pytest.mark.parametrize("window", [0, 1, 5])
    @given(seed=st.integers(0, 2**32 - 1), decimals=st.sampled_from([1, 9]))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_dtw_band_bit_identical(self, window, seed, decimals):
        """Band edges are where the rolling buffer's reset cells are read;
        lengths 1..3 and 17 vs 2 make ``|n - m| > window`` (the band widens
        to it), and even ``window=0`` leaves every odd diagonal empty."""
        rng = np.random.default_rng(seed)
        for n, m in ((1, 1), (1, 3), (3, 1), (2, 3), (7, 7), (17, 2), (2, 17), (9, 14),
                     (40, 33)):
            xs, ys = np.round(rng.normal(0, 0.1, (2, n + m)).cumsum(axis=1), decimals)
            a = PointBlock(np.arange(n, dtype=float), xs[:n], ys[:n])
            b = PointBlock(np.arange(m, dtype=float), xs[n:], ys[n:])
            want = reference.dtw_reference(list(a), list(b), window=window)
            assert dtw_distance(a, b, window=window) == want, (n, m)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 9), (9, 1), (2, 13), (13, 2), (6, 11), (11, 6)])
    @pytest.mark.parametrize("window", [None, 0, "gap", "gap+1", "full"])
    def test_strided_slices_at_matrix_edges(self, n, m, window):
        """n != m, single-point sides and bands whose diagonals start or end
        on the first / last row or column of the distance matrix, where the
        strided slice's offset is 0 or its end is the matrix's last cell."""
        rng = np.random.default_rng(n * 100 + m)
        xs, ys = np.round(rng.normal(0, 0.1, (2, n + m)).cumsum(axis=1), 3)
        a = PointBlock(np.arange(n, dtype=float), xs[:n], ys[:n])
        b = PointBlock(np.arange(m, dtype=float), xs[n:], ys[n:])
        w = {"gap": abs(n - m), "gap+1": abs(n - m) + 1, "full": n + m}.get(window, window)
        want = reference.dtw_reference(list(a), list(b), window=w)
        assert dtw_distance(a, b, window=w) == want
        if window is None:
            assert frechet_distance(a, b) == reference.frechet_reference(list(a), list(b))

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 5), (5, 1), (4, 7), (7, 4)])
    def test_antidiagonal_walks_the_matrix(self, n, m):
        """Each strided slice is exactly the cells ``(i, k - i)`` of its rows."""
        rng = np.random.default_rng(7)
        ax, ay, bx, by = rng.normal(0, 1, (4, max(n, m)))
        ax, ay, bx, by = ax[:n], ay[:n], bx[:m], by[:m]
        dist = wavefront(ax, ay, bx, by)[0]
        cells = np.hypot(ax[:, None] - bx[None, :], ay[:, None] - by[None, :])
        for k in range(n + m - 1):
            lo, hi = max(0, k - m + 1), min(k, n - 1)
            want = [cells[i, k - i] for i in range(lo, hi + 1)]
            assert antidiagonal(dist, m, k, lo, hi).tolist() == want
