"""Soundness tests for the pruning bounds: lb <= exact <= ub."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.traj_codec import COORD_SCALE
from repro.geometry.dp import extract_dp_feature
from repro.model import MBR, STPoint, Trajectory
from repro.similarity import (
    dp_lower_bound,
    dp_upper_bound,
    dtw_distance,
    frechet_distance,
    hausdorff_distance,
    mbr_lower_bound,
)
from repro.similarity.pruning import boxes_lower_bound, endpoint_lower_bound
from repro.storage.serializer import RowSerializer


def traj(coords):
    return [STPoint(float(i), x, y) for i, (x, y) in enumerate(coords)]


coords_strategy = st.lists(
    st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=2, max_size=10
)


class TestMBRLowerBound:
    def test_overlapping_is_zero(self):
        assert mbr_lower_bound(MBR(0, 0, 2, 2), MBR(1, 1, 3, 3)) == 0.0

    @given(coords_strategy, coords_strategy)
    @settings(max_examples=60, deadline=None)
    def test_bounds_all_measures(self, ca, cb):
        a, b = traj(ca), traj(cb)
        lb = mbr_lower_bound(
            MBR.of_points(p.xy for p in a), MBR.of_points(p.xy for p in b)
        )
        assert lb <= frechet_distance(a, b) + 1e-9
        assert lb <= hausdorff_distance(a, b) + 1e-9
        assert lb <= dtw_distance(a, b) + 1e-9


class TestDPLowerBound:
    @given(coords_strategy, coords_strategy, st.floats(0.001, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_max_aggregate_bounds_frechet_and_hausdorff(self, ca, cb, eps):
        a, b = traj(ca), traj(cb)
        feature_b = extract_dp_feature(b, eps)
        lb = dp_lower_bound(a, feature_b, aggregate="max")
        assert lb <= frechet_distance(a, b) + 1e-9
        assert lb <= hausdorff_distance(a, b) + 1e-9

    @given(coords_strategy, coords_strategy, st.floats(0.001, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_sum_aggregate_bounds_dtw(self, ca, cb, eps):
        a, b = traj(ca), traj(cb)
        feature_b = extract_dp_feature(b, eps)
        lb = dp_lower_bound(a, feature_b, aggregate="sum")
        assert lb <= dtw_distance(a, b) + 1e-9

    def test_rejects_bad_aggregate(self):
        a = traj([(0, 0)])
        f = extract_dp_feature(traj([(0, 0), (1, 1)]), 0.1)
        with pytest.raises(ValueError):
            dp_lower_bound(a, f, aggregate="avg")


class TestDPUpperBound:
    @given(coords_strategy, coords_strategy, st.floats(0.001, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_upper_bounds_frechet(self, ca, cb, eps):
        a, b = traj(ca), traj(cb)
        feature_b = extract_dp_feature(b, eps)
        ub = dp_upper_bound(a, feature_b, frechet_distance)
        assert frechet_distance(a, b) <= ub + 1e-9

    @given(coords_strategy, coords_strategy, st.floats(0.001, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_upper_bounds_hausdorff(self, ca, cb, eps):
        a, b = traj(ca), traj(cb)
        feature_b = extract_dp_feature(b, eps)
        ub = dp_upper_bound(a, feature_b, hausdorff_distance)
        assert hausdorff_distance(a, b) <= ub + 1e-9

    def test_tight_when_feature_is_exact(self):
        """With epsilon ~ 0 the feature keeps every point: ub ~ exact."""
        a = traj([(0, 0), (1, 0.5), (2, 0)])
        b = traj([(0, 1), (1, 1.5), (2, 1)])
        feature_b = extract_dp_feature(b, 1e-9)
        ub = dp_upper_bound(a, feature_b, frechet_distance)
        assert ub <= frechet_distance(a, b) + 1e-6


def mbr_box(points):
    return MBR.of_points(p.xy for p in points).as_tuple()


# Down to one point per side: a 1-point trajectory is where the endpoint
# bound's two couplings are one cell.
short_coords = st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)), min_size=1, max_size=10)
DERANDOMIZED = settings(max_examples=80, deadline=None, derandomize=True)


class TestPointsToMBRBound:
    """The header rung: every query point to the row's MBR, one box."""

    @given(short_coords, short_coords)
    @DERANDOMIZED
    def test_bounds_all_measures(self, ca, cb):
        a, b = traj(ca), traj(cb)
        lb_max = boxes_lower_bound(a, mbr_box(b), "max")
        assert lb_max <= frechet_distance(a, b) + 1e-9
        assert lb_max <= hausdorff_distance(a, b) + 1e-9
        assert boxes_lower_bound(a, mbr_box(b), "sum") <= dtw_distance(a, b) + 1e-9

    @given(short_coords, short_coords)
    @DERANDOMIZED
    def test_at_least_the_mbr_to_mbr_bound(self, ca, cb):
        a, b = traj(ca), traj(cb)
        mbr_a, mbr_b = (MBR.of_points(p.xy for p in t) for t in (a, b))
        assert boxes_lower_bound(a, mbr_box(b), "max") >= mbr_lower_bound(mbr_a, mbr_b) - 1e-12

    def test_is_dp_lower_bound_with_one_box(self):
        a = traj([(0, 0), (3, 4), (6, 0)])
        b = traj([(1, 1), (2, 2)])
        one_box = extract_dp_feature(b, 10.0)  # keeps only the endpoints: one span box
        for aggregate in ("max", "sum"):
            assert boxes_lower_bound(a, mbr_box(b), aggregate) == dp_lower_bound(
                a, one_box, aggregate
            )


class TestEndpointBound:
    """UCR LB_Kim's first/last couplings, read off the DP representatives."""

    @given(short_coords, short_coords, st.floats(0.001, 1.0))
    @DERANDOMIZED
    def test_bounds_frechet_and_dtw(self, ca, cb, eps):
        a, b = traj(ca), traj(cb)
        feature_b = extract_dp_feature(b, eps)
        assert endpoint_lower_bound(a, feature_b, "max") <= frechet_distance(a, b)
        assert endpoint_lower_bound(a, feature_b, "sum") <= dtw_distance(a, b)

    @pytest.mark.parametrize("window", [0, 1, 3])
    @given(short_coords, short_coords)
    @DERANDOMIZED
    def test_bounds_banded_dtw(self, window, ca, cb):
        a, b = traj(ca), traj(cb)
        bound = endpoint_lower_bound(a, extract_dp_feature(b, 0.01), "sum")
        assert bound <= dtw_distance(a, b, window=window)

    def test_single_points_count_their_one_cell_once(self):
        a, b = traj([(0, 0)]), traj([(3, 4)])
        feature_b = extract_dp_feature(b, 0.01)
        assert endpoint_lower_bound(a, feature_b, "sum") == dtw_distance(a, b) == 5.0
        assert endpoint_lower_bound(a, feature_b, "max") == frechet_distance(a, b) == 5.0

    def test_one_point_against_many_counts_both_ends(self):
        a, b = traj([(0, 0)]), traj([(3, 4), (6, 8)])
        assert endpoint_lower_bound(a, extract_dp_feature(b, 0.01), "sum") == 15.0


def stored(coords):
    """A stored row of ``coords``, and its header, feature and decoded points."""
    serializer = RowSerializer()
    row = serializer.encode(Trajectory("o", "t", traj(coords)))
    header = RowSerializer.decode_header(row)
    feature = RowSerializer.decode_feature(row, header)
    return header, feature, serializer.decode_trajectory(row, header).trajectory.block


# TDrive-like coordinates with more decimals than the 1e-7 grid keeps.
row_coords = st.lists(
    st.tuples(st.floats(116.0, 116.8), st.floats(39.6, 40.2)), min_size=1, max_size=12
)


class TestBoundsOnStoredRows:
    """Rows through a real encode -> decode_feature: the bounds the ladder takes from the row hold against the decoded points
    its points rung measures."""

    @given(row_coords, row_coords)
    @DERANDOMIZED
    def test_endpoint_bound_is_exact_on_the_point_grid(self, ca, cb):
        a = traj(ca)
        _, feature, block = stored(cb)
        rep_xs, rep_ys = feature.rep_columns
        # The row stores the representatives on the point grid: the ends decode
        # to the decoded first and last points, bit for bit.
        assert (rep_xs[0], rep_ys[0], rep_xs[-1], rep_ys[-1]) == (
            block.xs[0], block.ys[0], block.xs[-1], block.ys[-1]
        )
        assert endpoint_lower_bound(a, feature, "max") <= frechet_distance(a, block)
        assert endpoint_lower_bound(a, feature, "sum") <= dtw_distance(a, block)

    @given(row_coords, row_coords)
    @DERANDOMIZED
    def test_header_and_feature_boxes_hold_the_decoded_points(self, ca, cb):
        a = traj(ca)
        header, feature, block = stored(cb)
        m = header.mbr
        quantum = 1.0 / COORD_SCALE
        grown = m.x1 - quantum, m.y1 - quantum, m.x2 + quantum, m.y2 + quantum
        for boxes in (grown, feature.box_arrays):
            lb_max = boxes_lower_bound(a, boxes, "max")
            assert lb_max <= frechet_distance(a, block)
            assert lb_max <= hausdorff_distance(a, block)
            assert boxes_lower_bound(a, boxes, "sum") <= dtw_distance(a, block) + 1e-12
