"""Tests for row value serialization."""

import pytest

from repro.compression import TrajectoryCodec
from repro.kvstore.errors import CorruptionError
from repro.model import STPoint, Trajectory
from repro.storage.serializer import RowSerializer


def make_traj(n=30, oid="obj-1", tid="trip-1"):
    pts = [
        STPoint(1000.0 + i * 30, 116.30 + i * 0.001, 39.90 + (i % 5) * 0.0004)
        for i in range(n)
    ]
    return Trajectory(oid, tid, pts)


@pytest.fixture
def serializer():
    return RowSerializer()


class TestRoundtrip:
    def test_full_roundtrip(self, serializer):
        traj = make_traj()
        blob = serializer.encode(traj)
        stored = serializer.decode(blob)
        assert stored.trajectory.oid == traj.oid
        assert stored.trajectory.tid == traj.tid
        assert len(stored.trajectory) == len(traj)
        for a, b in zip(traj.points, stored.trajectory.points):
            assert b.t == pytest.approx(a.t, abs=1e-3)
            assert b.lng == pytest.approx(a.lng, abs=1e-7)

    def test_single_point_trajectory(self, serializer):
        traj = Trajectory("o", "t", [STPoint(5.0, 116.0, 39.0)])
        stored = serializer.decode(serializer.encode(traj))
        assert len(stored.trajectory) == 1

    def test_unicode_ids(self, serializer):
        traj = make_traj(oid="对象-1", tid="轨迹-42")
        stored = serializer.decode(serializer.encode(traj))
        assert stored.trajectory.oid == "对象-1"
        assert stored.trajectory.tid == "轨迹-42"

    def test_all_codecs(self):
        """Rows are packed with the bit packer alone; the codec menu's other
        packers are no row codec."""
        traj = make_traj()
        s = RowSerializer(TrajectoryCodec("bitpack"))
        assert len(s.decode(s.encode(traj)).trajectory) == len(traj)
        for codec in ("varint", "pfor", "simple8b"):
            with pytest.raises(ValueError, match="unknown codec"):
                TrajectoryCodec(codec)


class TestHeader:
    def test_header_matches_trajectory(self, serializer):
        traj = make_traj()
        header = RowSerializer.decode_header(serializer.encode(traj))
        assert header.oid == traj.oid and header.tid == traj.tid
        assert header.time_range.start == pytest.approx(traj.time_range.start)
        assert header.mbr.x1 == pytest.approx(traj.mbr.x1)

    def test_header_rejects_garbage(self):
        with pytest.raises(CorruptionError):
            RowSerializer.decode_header(b"\x00" * 100)

    def test_header_rejects_wrong_version(self, serializer):
        blob = bytearray(serializer.encode(make_traj()))
        blob[1] = 99
        with pytest.raises(CorruptionError):
            RowSerializer.decode_header(bytes(blob))

    def test_header_rejects_short_buffer(self):
        with pytest.raises(CorruptionError):
            RowSerializer.decode_header(b"T")


class TestFeatures:
    def test_feature_decodes_without_points(self, serializer):
        traj = make_traj(100)
        blob = serializer.encode(traj)
        feature = RowSerializer.decode_feature(blob)
        assert len(feature.rep_indexes) >= 2
        assert len(feature.span_boxes) == len(feature.rep_indexes) - 1

    def test_feature_boxes_cover_trajectory(self, serializer):
        traj = make_traj(60)
        feature = RowSerializer.decode_feature(serializer.encode(traj))
        for p in traj.points:
            assert any(
                b.expanded(1e-9).contains_point(p.lng, p.lat)
                for b in feature.span_boxes
            )

    def test_feature_respects_epsilon(self):
        coarse = RowSerializer(dp_epsilon=0.5)
        fine = RowSerializer(dp_epsilon=1e-7)
        traj = make_traj(80)
        f_coarse = RowSerializer.decode_feature(coarse.encode(traj))
        f_fine = RowSerializer.decode_feature(fine.encode(traj))
        assert len(f_coarse.rep_indexes) <= len(f_fine.rep_indexes)


class TestSize:
    def test_row_smaller_than_raw_floats(self, serializer):
        traj = make_traj(200)
        blob = serializer.encode(traj)
        raw_size = 24 * len(traj)
        assert len(blob) < raw_size
