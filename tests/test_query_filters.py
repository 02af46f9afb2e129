"""Tests for the push-down filter ladder (rung-by-rung decisions over fixed
rows are pinned by ``test_ladder_golden.py``)."""

import pytest

from repro.kvstore.filters import FilterChain, PrefixFilter
from repro.model import MBR, STPoint, TimeRange, Trajectory
from repro.query.filters import IdFilter, SimilarityFilter, SpatialFilter, TemporalFilter
from repro.storage.serializer import RowSerializer


@pytest.fixture
def serializer():
    return RowSerializer()


def row(serializer, points, oid="o1", tid="t1", tr_value=5):
    traj = Trajectory(oid, tid, points)
    return serializer.encode(traj, tr_value), traj


def diagonal(n=20, x0=116.30, y0=39.90, step=0.001):
    return [STPoint(1000.0 + i * 60, x0 + i * step, y0 + i * step) for i in range(n)]


class TestTemporalFilter:
    def test_accepts_overlap(self, serializer):
        blob, traj = row(serializer, diagonal())
        f = TemporalFilter(TimeRange(traj.time_range.start - 10, traj.time_range.start + 10))
        assert f.test(b"", blob)

    def test_rejects_disjoint(self, serializer):
        blob, traj = row(serializer, diagonal())
        f = TemporalFilter(TimeRange(traj.time_range.end + 100, traj.time_range.end + 200))
        assert not f.test(b"", blob)

    def test_exact_boundary_accepted(self, serializer):
        blob, traj = row(serializer, diagonal())
        f = TemporalFilter(TimeRange(traj.time_range.end, traj.time_range.end + 100))
        assert f.test(b"", blob)


class TestIdFilter:
    def test_matches_oid(self, serializer):
        blob, _ = row(serializer, diagonal(), oid="taxi-7")
        assert IdFilter("taxi-7").test(b"", blob)
        assert not IdFilter("taxi-8").test(b"", blob)


class TestSpatialFilter:
    def test_mbr_reject_counted(self, serializer):
        blob, traj = row(serializer, diagonal())
        window = MBR(0.0, 0.0, 1.0, 1.0)
        f = SpatialFilter(window, serializer)
        assert not f.test(b"", blob)

    def test_containment_accept_counted(self, serializer):
        blob, traj = row(serializer, diagonal())
        f = SpatialFilter(traj.mbr.expanded(0.01), serializer)
        assert f.test(b"", blob)

    def test_exact_path_for_lshape_corner(self, serializer):
        """MBR overlaps, polyline does not: only the exact test can reject."""
        pts = [
            STPoint(0, 116.30, 39.90),
            STPoint(60, 116.40, 39.90),
            STPoint(120, 116.40, 39.99),
        ]
        blob, traj = row(serializer, pts)
        # Window in the empty corner of the L's bounding box.
        window = MBR(116.30, 39.96, 116.32, 39.99)
        f = SpatialFilter(window, serializer)
        assert not f.test(b"", blob)

    def test_edge_crossing_window_accepted(self, serializer):
        pts = [STPoint(0, 116.30, 39.90), STPoint(60, 116.40, 39.90)]
        blob, _ = row(serializer, pts)
        window = MBR(116.34, 39.89, 116.36, 39.91)  # straddles the segment
        assert SpatialFilter(window, serializer).test(b"", blob)


class TestSimilarityFilter:
    def test_rejects_negative_threshold(self, serializer):
        with pytest.raises(ValueError):
            SimilarityFilter(diagonal(), -0.1, "frechet", serializer)

    @pytest.mark.parametrize("measure", ["frechet", "dtw", "hausdorff"])
    def test_exact_semantics(self, serializer, measure):
        from repro.similarity.measures import distance_by_name

        distance = distance_by_name(measure)
        query_pts = diagonal()
        near_pts = [p.shifted(dlng=0.0005) for p in query_pts]
        far_pts = [p.shifted(dlng=0.5) for p in query_pts]
        near_blob, near = row(serializer, near_pts, tid="near")
        far_blob, far = row(serializer, far_pts, tid="far")

        theta = distance(query_pts, near_pts) + 1e-6
        f = SimilarityFilter(query_pts, theta, measure, serializer)
        assert f.test(b"", near_blob)
        assert not f.test(b"", far_blob)

    def test_mbr_prune_counted(self, serializer):
        query_pts = diagonal()
        far_blob, _ = row(serializer, [p.shifted(dlng=5.0) for p in query_pts])
        f = SimilarityFilter(query_pts, 0.01, "frechet", serializer)
        assert not f.test(b"", far_blob)

    def test_feature_accept_skips_exact(self, serializer):
        query_pts = diagonal()
        same_blob, _ = row(serializer, list(query_pts), tid="same")
        f = SimilarityFilter(query_pts, 1.0, "hausdorff", serializer)
        assert f.test(b"", same_blob)


class TestChaining:
    def test_temporal_and_spatial_chain(self, serializer):
        blob, traj = row(serializer, diagonal())
        good = FilterChain(
            [TemporalFilter(traj.time_range), SpatialFilter(traj.mbr, serializer)]
        )
        assert good.test(b"", blob)
        bad = FilterChain(
            [
                TemporalFilter(TimeRange(traj.time_range.end + 1, traj.time_range.end + 2)),
                SpatialFilter(traj.mbr, serializer),
            ]
        )
        assert not bad.test(b"", blob)

    def test_conjunction_is_one_walk(self, serializer, monkeypatch):
        """``a & b`` decides both predicates and reads the header once."""
        blob, traj = row(serializer, diagonal())
        both = TemporalFilter(traj.time_range) & SpatialFilter(traj.mbr, serializer)
        assert type(both) is TemporalFilter
        assert both.test(b"", blob)
        late = TimeRange(traj.time_range.end + 1, traj.time_range.end + 2)
        assert not (TemporalFilter(late) & SpatialFilter(traj.mbr, serializer)).test(b"", blob)
        assert not (SpatialFilter(traj.mbr, serializer) & TemporalFilter(late)).test(b"", blob)
        headers = []
        decode_header = RowSerializer.decode_header
        monkeypatch.setattr(RowSerializer, "decode_header", staticmethod(
            lambda buf: headers.append(buf) or decode_header(buf)
        ))
        assert (IdFilter("o1") & TemporalFilter(traj.time_range)).test(b"", blob)
        assert headers == [blob]

    def test_conjunction_with_a_key_filter_chains(self, serializer):
        """Any other ``Filter`` still combines into a ``FilterChain``."""
        blob, traj = row(serializer, diagonal())
        for both in (
            SpatialFilter(traj.mbr, serializer) & PrefixFilter(b"a"),
            TemporalFilter(traj.time_range) & FilterChain([PrefixFilter(b"")]),
        ):
            assert type(both) is FilterChain
            assert len(both.filters) == 2
        assert (SpatialFilter(traj.mbr, serializer) & PrefixFilter(b"a")).test(b"ab", blob)
        assert not (TemporalFilter(traj.time_range) & PrefixFilter(b"a")).test(b"b", blob)
