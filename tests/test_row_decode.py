"""The read half of the row format: the one-pass DP-feature decoder against
the version 2 decoder it replaced, the feature section's own invariants,
and corrupt rows (cut, byte-flipped, or of another version), which every
decode entry point rejects with ``CorruptionError`` and nothing else.

Golden rows come from ``tests/data/ingest_parent/golden.npz`` (its whole
simple8b rows; its varint and PFOR rows are not read, as no row is packed
with those codecs any more).  They are version 2 rows;
``ingest_reference.row_v2_to_v5`` rewrites their ``tr_value``, feature
sections and point blobs (the only parts the versions do not share) into
the rows decoded here.  A row whose point blob opens with another codec id
(0 was varint's, 2 PFOR's) is corrupt.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.pfor import pfor_encode
from benchmarks.varint_stream import varint_encode_array
from repro.compression.traj_codec import TrajectoryCodec
from repro.compression.varint import decode_varint, encode_varint
from repro.kvstore.errors import CorruptionError
from repro.model import STPoint, Trajectory
from repro.storage.serializer import RowSerializer

from . import codec_reference
from . import ingest_reference as ref

GOLDEN = Path(__file__).parent / "data" / "ingest_parent" / "golden.npz"
CODECS = ("simple8b",)  # the packers rows are written with
# 1, 2 and 3 points, 300 stationary points, irregular gaps, 9 and 50 random fixes
TRUNCATED = (300, 301, 308, 303, 307, 0, 1)


@pytest.fixture(scope="module")
def golden_rows() -> dict[str, list[bytes]]:
    """Every golden trajectory's row under each codec (default epsilon)."""
    data = np.load(GOLDEN)
    out = {}
    for codec in CODECS:
        buf, cut = data[f"rows_{codec}_eps"].tobytes(), data[f"rowoff_{codec}_eps"]
        out[codec] = [ref.row_v2_to_v5(buf[cut[i]:cut[i + 1]]) for i in range(len(cut) - 1)]
    return out


def _points(steps, jitter: float) -> list[STPoint]:
    """A walk on the 1e-7 degree grid; ``jitter`` moves the coordinates off
    it, and ``x + k * 1e-7`` alone already lands an ulp either side of it."""
    x, y, t, points = 116.4, 39.9, 1_200_000_000.0, []
    for dx, dy, dt in steps:
        x, y, t = x + dx * 1e-7 + jitter, y + dy * 1e-7 - jitter, t + dt / 1000.0
        points.append(STPoint(t, x, y))
    return points


def _with_section(row: bytes, header, section: bytes) -> bytes:
    """``row`` with its feature section replaced and ``feat_len`` rewritten."""
    feat_len, start = decode_varint(row, header.body_offset)
    out = bytearray(row[: header.body_offset])
    encode_varint(len(section), out)
    return bytes(out) + section + row[start + feat_len :]


# -- the one-pass feature decoder against the version 2 one ---------------------


def _assert_matches_oracle(row: bytes) -> None:
    header = RowSerializer.decode_header(row)
    feature = RowSerializer.decode_feature(row, header)
    old = ref.row_v5_to_v2(row, 0)
    _, start = decode_varint(old, header.body_offset + 1)  # past a one-byte tr_value
    reps, indexes, boxes, box_arrays = ref.decode_feature_v2(old, start)
    assert feature.rep_indexes == indexes
    assert feature.span_boxes == boxes
    # bit for bit, not just ==: no -0.0 / +0.0 or dtype drift
    got = np.array(feature.rep_columns, dtype=np.float64)
    want = np.array([[p.lng for p in reps], [p.lat for p in reps]])
    assert got.tobytes() == want.reshape(got.shape).tobytes()
    for mine, theirs in zip(feature.box_arrays, box_arrays):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("codec", CODECS)
def test_feature_decode_matches_numpy_decoder_on_golden_rows(golden_rows, codec):
    for row in golden_rows[codec]:
        _assert_matches_oracle(row)


_offsets = st.integers(-40_000, 40_000)  # 1e-7 deg quanta: deltas of either sign


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    steps=st.lists(st.tuples(_offsets, _offsets, st.integers(0, 90_000)), min_size=1,
                   max_size=12),
    length=st.sampled_from([1, 2, 3, None]),
    epsilon=st.sampled_from([0.0, 1e-9, 1e-7, 0.002]),
)
def test_feature_decode_matches_numpy_decoder_on_generated_rows(steps, length, epsilon):
    steps = steps[:length] if length is not None else steps
    points = _points(steps, 0.0)
    row = RowSerializer(dp_epsilon=epsilon).encode(Trajectory("o", "t", points))
    _assert_matches_oracle(row)


# -- corrupt rows raise CorruptionError -----------------------------------------


def _outcome(fn, row: bytes):
    """What a decode entry point makes of ``row``, comparably."""
    try:
        out = fn(row)
    except CorruptionError:
        return "corrupt"
    if hasattr(out, "trajectory"):  # StoredTrajectory
        block = out.trajectory.block
        return (out.trajectory.oid, out.trajectory.tid, out.feature,
                block.ts.tobytes(), block.xs.tobytes(), block.ys.tobytes())
    if hasattr(out, "xs"):  # PointBlock
        return out.ts.tobytes(), out.xs.tobytes(), out.ys.tobytes()
    return out


def _entry_points(serializer: RowSerializer):
    return (serializer.decode_header, serializer.decode_feature,
            serializer.decode_trajectory, serializer.decode, serializer.decode_points)


# each byte set to 0x00 and 0xff, and with its low and its high bit flipped
FLIPS = (lambda b: 0x00, lambda b: 0xFF, lambda b: b ^ 0x01, lambda b: b ^ 0x80)


def _assert_cuts_decode_same_or_corrupt(serializer: RowSerializer, row: bytes) -> None:
    for fn in _entry_points(serializer):
        whole = _outcome(fn, row)
        assert whole != "corrupt"
        for cut in range(len(row)):
            got = _outcome(fn, row[:cut])
            assert got in ("corrupt", whole), (fn.__name__, cut)


def _decodes_or_corrupt(serializer: RowSerializer, row: bytes) -> None:
    """Every entry point decodes ``row`` or raises ``CorruptionError``; any
    other exception propagates and fails the test."""
    for fn in _entry_points(serializer):
        _outcome(fn, row)


@pytest.mark.parametrize("codec", CODECS)
def test_truncated_golden_rows_raise_corruption(golden_rows, codec):
    """Every cut of a row decodes as the whole row or raises
    ``CorruptionError``; every single-byte flip decodes or raises it."""
    serializer = RowSerializer(TrajectoryCodec(codec))
    for i in TRUNCATED:
        _assert_cuts_decode_same_or_corrupt(serializer, golden_rows[codec][i])
        row = bytearray(golden_rows[codec][i])
        for at, byte in enumerate(bytes(row)):
            for flip in FLIPS:
                row[at] = flip(byte)
                _decodes_or_corrupt(serializer, bytes(row))
            row[at] = byte


@pytest.mark.parametrize("codec", CODECS)
def test_truncated_point_blobs_raise_corruption(golden_rows, codec):
    """The blob runs to the end of the row, so no row framing states its
    length: only the codec itself can notice a cut."""
    serializer = RowSerializer(TrajectoryCodec(codec))
    for i in TRUNCATED:
        row = golden_rows[codec][i]
        feat_len, start = decode_varint(row, serializer.decode_header(row).body_offset)
        blob_at = start + feat_len
        whole = _outcome(serializer.decode_trajectory, row)
        for cut in range(blob_at, len(row)):
            got = _outcome(serializer.decode_trajectory, row[:cut])
            assert got == "corrupt", cut
        assert whole != "corrupt"


def _repacked(row: bytes, cid: int) -> bytes:
    """``row`` with its point blob as a retired codec id wrote it (0: LEB128
    varint, 2: PFOR): the same zigzagged deltas, packed by that packer."""
    feat_len, start = decode_varint(row, RowSerializer.decode_header(row).body_offset)
    at = start + feat_len
    n, streams = codec_reference.decode_frame(row[at:])
    pack = {0: varint_encode_array, 2: pfor_encode}[cid]
    t, x, y = (
        pack(np.array(codec_reference.simple8b_decode(stream, n), dtype=np.uint64))
        for stream in streams
    )
    out = bytearray(row[:at] + bytes([cid]))
    for value in (n, len(t), len(x)):
        encode_varint(value, out)
    return bytes(out) + t + x + y


@pytest.mark.parametrize("cid", [0, 2])
def test_point_blobs_of_retired_codecs_raise_corruption(golden_rows, cid):
    """Rows are packed with simple8b alone: a blob of another codec id is
    corrupt to every entry point that reads it, while the header and the
    feature section still decode as the simple8b row's."""
    serializer = RowSerializer()
    for i in TRUNCATED:
        row = golden_rows["simple8b"][i]
        other = _repacked(row, cid)
        assert other != row
        for fn in (serializer.decode_header, serializer.decode_feature):
            assert fn(other) == fn(row)
        for fn in (serializer.decode_trajectory, serializer.decode, serializer.decode_points):
            with pytest.raises(CorruptionError, match=f"unknown codec id {cid}$"):
                fn(other)


@settings(derandomize=True, deadline=None)
@given(data=st.data(), cid=st.sampled_from([1, 0, 2]), index=st.sampled_from(TRUNCATED))
def test_any_header_byte_decodes_or_raises_corruption(golden_rows, data, cid, index):
    """Any value in any header byte (magic through the ids) of a simple8b
    row, or of one whose blob a retired codec id packed; the ``fuzz``
    profile sweeps deeper."""
    serializer = RowSerializer()
    row = golden_rows["simple8b"][index]
    row = bytearray(row if cid == 1 else _repacked(row, cid))
    body = serializer.decode_header(bytes(row)).body_offset
    row[data.draw(st.integers(0, body - 1))] = data.draw(st.integers(0, 255))
    _decodes_or_corrupt(serializer, bytes(row))


@pytest.mark.parametrize("version", [0, 1, 2, 3, 4, 6])
def test_other_row_versions_raise_corruption(golden_rows, version):
    serializer = RowSerializer(TrajectoryCodec("simple8b"))
    row = bytearray(golden_rows["simple8b"][TRUNCATED[0]])
    row[1] = version
    for fn in _entry_points(serializer):
        with pytest.raises(CorruptionError, match=f"^unsupported row version {version}$"):
            fn(bytes(row))


def test_feature_count_mismatch_and_overlong_varints_raise_corruption():
    """``n_reps`` fixes the section's value count (no stream carries its
    own): any other count, or a varint that overruns, is corrupt."""
    row = RowSerializer().encode(Trajectory("o", "t", [
        STPoint(float(k), 116.4 + 0.01 * k, 39.9 + 0.003 * (k % 3)) for k in range(6)
    ]))
    header = RowSerializer.decode_header(row)
    feat_len, start = decode_varint(row, header.body_offset)
    section = row[start:start + feat_len]
    assert section[-1] < 0x80  # the last value is one byte
    assert RowSerializer.decode_feature(_with_section(row, header, section))  # a sound splice
    for bad in (
        bytes([section[0] + 1]) + section[1:],   # n_reps claims one rep more
        bytes([section[0] - 1]) + section[1:],   # ... or one fewer
        b"\x00" + section[1:],                   # no reps at all
        bytes([1, 0, 0]),                        # one rep and so no span box
        section + b"\x00",                       # a value past the last span
        section[:-1],                            # the last span short of a value
        b"\x80" * 10 + b"\x01" + section[1:],    # an 11-byte n_reps
        section[:-1] + b"\x80",                  # the last varint never ends
        b"",                                     # no section
    ):
        with pytest.raises(CorruptionError):
            RowSerializer.decode_feature(_with_section(row, header, bad))
    overlong_oid_len = row[:50] + b"\x81" + b"\x80" * 9 + b"\x00" + row[51:]  # len 1 at 50
    with pytest.raises(CorruptionError):
        RowSerializer.decode_header(overlong_oid_len)


# -- the version 3 feature section ----------------------------------------------


# Each example decodes ~350 altered rows five ways: a quarter of the
# profile's examples (25 in tier-1, 500 under ``fuzz``).
@settings(derandomize=True, deadline=None, max_examples=settings.default.max_examples // 4)
@given(
    steps=st.lists(st.tuples(_offsets, _offsets, st.integers(0, 90_000)), min_size=1,
                   max_size=10),
    jitter=st.sampled_from([0.0, 3e-9, -4.1e-8]),
    epsilon=st.sampled_from([0.0, 1e-7, 0.002]),
    codec=st.sampled_from(CODECS),
    data=st.data(),
)
def test_feature_section_properties(steps, jitter, epsilon, codec, data):
    """Boxes cover their spans' raw and decoded points; reps are the decoded
    points at the rep indexes; every cut or single-byte change of the section
    decodes or raises ``CorruptionError`` from every entry point.  The
    ``fuzz`` profile sweeps deeper."""
    points = _points(steps, jitter)
    serializer = RowSerializer(TrajectoryCodec(codec), epsilon)
    row = serializer.encode(Trajectory("o", "t", points))
    header = serializer.decode_header(row)
    feature = serializer.decode_feature(row, header)
    block = serializer.decode(row).trajectory.block
    idx = feature.rep_indexes
    assert idx[0] == 0 and idx[-1] == len(points) - 1
    rep_xs, rep_ys = feature.rep_columns
    assert np.array(rep_xs).tobytes() == block.xs[list(idx)].tobytes()
    assert np.array(rep_ys).tobytes() == block.ys[list(idx)].tobytes()
    raw_xs, raw_ys = np.array([p.lng for p in points]), np.array([p.lat for p in points])
    for k, (x1, y1, x2, y2) in enumerate(zip(*feature.box_columns)):
        span = slice(idx[k], idx[k + 1] + 1)
        for xs, ys in ((raw_xs[span], raw_ys[span]), (block.xs[span], block.ys[span])):
            assert x1 <= xs.min() and xs.max() <= x2 and y1 <= ys.min() and ys.max() <= y2, k
    feat_len, start = decode_varint(row, header.body_offset)
    section = row[start : start + feat_len]
    for cut in range(len(section)):
        _decodes_or_corrupt(serializer, _with_section(row, header, section[:cut]))
    changed = bytearray(section)
    for at, byte in enumerate(section):
        for value in {flip(byte) for flip in FLIPS} | {data.draw(st.integers(0, 255))}:
            changed[at] = value
            _decodes_or_corrupt(serializer, _with_section(row, header, bytes(changed)))
        changed[at] = byte
