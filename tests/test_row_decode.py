"""The read half of the row format: the one-pass DP-feature decoder against
the numpy decoder it replaced, and corrupt rows (cut, byte-flipped, or of an
unknown version), which every decode entry point rejects with
``CorruptionError`` and nothing else.

Golden rows come from ``tests/data/ingest_parent/golden.npz`` (whole rows
for simple8b / pfor, sha256 digests for varint, which ``encode_many`` is
checked to reproduce before they are used).
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.traj_codec import TrajectoryCodec
from repro.compression.varint import decode_varint, encode_varint
from repro.kvstore.errors import CorruptionError
from repro.model import STPoint, Trajectory
from repro.storage.serializer import RowSerializer

from . import ingest_reference as ref

GOLDEN = Path(__file__).parent / "data" / "ingest_parent" / "golden.npz"
CODECS = ("varint", "simple8b", "pfor")
# 1, 2 and 3 points, 300 stationary points, irregular gaps, 9 and 50 random fixes
TRUNCATED = (300, 301, 308, 303, 307, 0, 1)


@pytest.fixture(scope="module")
def golden_rows() -> dict[str, list[bytes]]:
    """Every golden trajectory's row under each codec (default epsilon)."""
    data = np.load(GOLDEN)
    off = data["offsets"]
    trajs = [
        Trajectory(str(oid), str(tid), [
            STPoint(*p) for p in zip(*(data[c][off[i]:off[i + 1]].tolist()
                                       for c in ("ts", "xs", "ys")))
        ])
        for i, (oid, tid) in enumerate(zip(data["oids"], data["tids"]))
    ]
    out = {}
    for codec in CODECS:
        name = f"{codec}_eps"
        if f"rows_{name}" in data:
            buf, cut = data[f"rows_{name}"].tobytes(), data[f"rowoff_{name}"]
            out[codec] = [buf[cut[i]:cut[i + 1]] for i in range(len(cut) - 1)]
        else:
            rows = RowSerializer(TrajectoryCodec(codec)).encode_many(
                trajs, data["tr_values"].tolist()
            )
            digests = [bytes(d) for d in data[f"sha_{name}"]]
            assert [hashlib.sha256(row).digest() for row in rows] == digests
            out[codec] = rows
    return out


# -- the one-pass feature decoder against the numpy one -------------------------


def _assert_matches_oracle(row: bytes) -> None:
    header = RowSerializer.decode_header(row)
    feature = RowSerializer.decode_feature(row, header)
    _, start = decode_varint(row, header.body_offset)
    reps, indexes, boxes, box_arrays = ref.decode_feature_v2(row, start)
    assert feature.rep_indexes == indexes
    assert feature.rep_points == reps
    assert feature.span_boxes == boxes
    # bit for bit, not just ==: no -0.0 / +0.0 or dtype drift
    got = np.array(feature.rep_columns, dtype=np.float64)
    want = np.array([[p.t for p in reps], [p.lng for p in reps], [p.lat for p in reps]])
    assert got.tobytes() == want.reshape(got.shape).tobytes()
    for mine, theirs in zip(feature.box_arrays, box_arrays):
        assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("codec", ["simple8b", "pfor"])
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
    x, y, t, points = 116.4, 39.9, 1_200_000_000.0, []
    for dx, dy, dt in steps:
        x, y, t = x + dx * 1e-7, y + dy * 1e-7, t + dt / 1000.0
        points.append(STPoint(t, x, y))
    row = RowSerializer(dp_epsilon=epsilon).encode(Trajectory("o", "t", points), 7)
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
        return (out.trajectory.oid, out.trajectory.tid, out.tr_value, out.feature,
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
    """The blob is cut but the row's framing is rewritten to match, so only
    the codec itself can notice."""
    serializer = RowSerializer(TrajectoryCodec(codec))
    for i in TRUNCATED:
        row = golden_rows[codec][i]
        feat_len, start = decode_varint(row, serializer.decode_header(row).body_offset)
        blob_at = start + feat_len
        _, blob_start = decode_varint(row, blob_at)
        blob = row[blob_start:]
        whole = _outcome(serializer.decode_trajectory, row)
        for cut in range(len(blob)):
            framed = bytearray(row[:blob_at])
            encode_varint(cut, framed)
            got = _outcome(serializer.decode_trajectory, bytes(framed) + blob[:cut])
            assert got in ("corrupt", whole), cut


@settings(derandomize=True, deadline=None)
@given(data=st.data(), codec=st.sampled_from(CODECS), index=st.sampled_from(TRUNCATED))
def test_any_header_byte_decodes_or_raises_corruption(golden_rows, data, codec, index):
    """Any value in any header byte (magic through the ids); the ``fuzz``
    profile sweeps deeper."""
    serializer = RowSerializer(TrajectoryCodec(codec))
    row = bytearray(golden_rows[codec][index])
    body = serializer.decode_header(bytes(row)).body_offset
    row[data.draw(st.integers(0, body - 1))] = data.draw(st.integers(0, 255))
    _decodes_or_corrupt(serializer, bytes(row))


@pytest.mark.parametrize("version", [0, 1, 3])
def test_other_row_versions_raise_corruption(golden_rows, version):
    serializer = RowSerializer(TrajectoryCodec("simple8b"))
    row = bytearray(golden_rows["simple8b"][TRUNCATED[0]])
    row[1] = version
    for fn in _entry_points(serializer):
        with pytest.raises(CorruptionError, match=f"^unsupported row version {version}$"):
            fn(bytes(row))


def test_feature_count_mismatch_and_overlong_varints_raise_corruption():
    row = RowSerializer().encode(Trajectory("o", "t", [
        STPoint(float(k), 116.4 + 0.01 * k, 39.9 + 0.003 * (k % 3)) for k in range(6)
    ]), 0)
    body = RowSerializer.decode_header(row).body_offset
    feat_len, start = decode_varint(row, body)
    section = row[start:start + feat_len]

    def with_section(new: bytes) -> bytes:
        out = bytearray(row[:body])
        encode_varint(len(new), out)
        return bytes(out) + new + row[start + feat_len:]

    assert RowSerializer.decode_feature(with_section(section))  # the splice is sound
    for bad in (
        bytes([section[0] + 1]) + section[1:],   # n_reps disagrees with the streams
        section[:1] + bytes([section[1] + 1]) + section[2:],  # a stream count is off
        section + b"\x00",                       # a value past the last stream
        b"\x80" * 10 + b"\x01" + section[1:],    # an 11-byte n_reps
        section[:-1] + b"\x80",                  # the last varint never ends
    ):
        with pytest.raises(CorruptionError):
            RowSerializer.decode_feature(with_section(bad))
    overlong_tr_value = row[:50] + b"\x80" * 10 + b"\x00" + row[51:]  # tr_value 0 at 50
    with pytest.raises(CorruptionError):
        RowSerializer.decode_header(overlong_tr_value)
