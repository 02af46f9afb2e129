"""Unit tests for the trajectory codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression import TrajectoryCodec
from repro.model import STPoint


def make_points(n, t0=1_500_000_000.0):
    return [
        STPoint(t0 + i * 30.0, 116.3 + i * 0.0012345, 39.9 - i * 0.0006789)
        for i in range(n)
    ]


class TestConfiguration:
    def test_rejects_unknown_codec(self):
        """Rows are packed with simple8b alone; the codec menu's other
        packers are no trajectory codec."""
        for name in ("lzma", "columnar", "varint", "pfor"):
            with pytest.raises(ValueError):
                TrajectoryCodec(name)

    @pytest.mark.parametrize("name", ["simple8b"])
    def test_all_codecs_roundtrip(self, name):
        codec = TrajectoryCodec(name)
        pts = make_points(80)
        out = codec.decode_points(codec.encode_points(pts))
        assert len(out) == len(pts)
        for a, b in zip(pts, out):
            assert b.t == pytest.approx(a.t, abs=1e-3)
            assert b.lng == pytest.approx(a.lng, abs=1e-7)
            assert b.lat == pytest.approx(a.lat, abs=1e-7)


class TestEncoding:
    def test_empty_arrays(self):
        codec = TrajectoryCodec()
        ts, lngs, lats = codec.decode_array_block(codec.encode_arrays([], [], []))
        assert len(ts) == len(lngs) == len(lats) == 0

    def test_single_point(self):
        codec = TrajectoryCodec()
        out = codec.decode_points(codec.encode_points(make_points(1)))
        assert len(out) == 1

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            TrajectoryCodec().encode_arrays([1.0], [116.0], [])

    def test_compression_beats_raw_doubles(self):
        pts = make_points(200)
        blob = TrajectoryCodec("simple8b").encode_points(pts)
        assert len(blob) < 24 * len(pts) / 2  # at least 2x vs three f64 arrays

    def test_truncated_blob_raises(self):
        blob = TrajectoryCodec().encode_points(make_points(5))
        with pytest.raises(ValueError):
            TrajectoryCodec().decode_array_block(blob[:3])

    def test_unknown_codec_id_raises(self):
        blob = bytearray(TrajectoryCodec().encode_points(make_points(3)))
        for cid in (0, 2, 3, 99):  # the retired varint, PFOR and varint twin ids
            blob[0] = cid
            with pytest.raises(ValueError, match="unknown codec id"):
                TrajectoryCodec().decode_array_block(bytes(blob))


class TestPropertyRoundtrip:
    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1e7),
                st.floats(-179, 179),
                st.floats(-89, 89),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=40)
    def test_quantized_roundtrip(self, triples):
        triples.sort(key=lambda x: x[0])
        ts = [t for t, _, _ in triples]
        lngs = [x for _, x, _ in triples]
        lats = [y for _, _, y in triples]
        codec = TrajectoryCodec()
        ots, olngs, olats = (
            col.tolist() for col in codec.decode_array_block(codec.encode_arrays(ts, lngs, lats))
        )
        for a, b in zip(ts, ots):
            assert abs(a - b) <= 5e-4  # millisecond quantization
        for a, b in zip(lngs + lats, olngs + olats):
            assert abs(a - b) <= 5e-8  # 1e-7 degree quantization
