"""Round-trip properties of the vectorized delta+zigzag+varint kernels.

The array streams must be byte-identical to what the scalar reference
implementations in ``tests/codec_reference.py`` produce and read, every
codec's blob must decode to the reference's columns, and rows must round-trip
through the serializer.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.compression.columnar import (
    delta_decode_array,
    delta_encode_array,
    delta_of_delta_decode_array,
    delta_of_delta_encode_array,
    leb128_decode,
    varint_encode_array,
    zigzag_decode_array,
    zigzag_encode_array,
)
from repro.compression.traj_codec import TrajectoryCodec
from repro.model.point import STPoint
from repro.model.trajectory import Trajectory
from repro.storage.serializer import RowSerializer

from . import codec_reference as ref

CODECS = ("varint", "simple8b", "pfor")


def _random_uints(rng, n, bits):
    return np.array([rng.getrandbits(bits) for _ in range(n)], dtype=np.uint64)


def _random_ints(rng, n, bits):
    return np.array(
        [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(n)],
        dtype=np.int64,
    )


@pytest.mark.parametrize("n", [0, 1, 2, 7, 1000])
@pytest.mark.parametrize("bits", [1, 8, 31, 50])
def test_varint_stream_matches_scalar_encoding(n, bits):
    rng = random.Random(1000 * n + bits)
    values = _random_uints(rng, n, bits)
    blob = varint_encode_array(values)
    assert blob == ref.encode_varints([int(v) for v in values])
    decoded, ends = leb128_decode(np.frombuffer(blob, dtype=np.uint8))
    assert (ends[-1] if n else -1) == len(blob) - 1
    assert decoded.tolist() == values.tolist()


def test_varint_decode_respects_offset():
    """Two streams decode in one pass; each value's last byte says where
    its stream ends."""
    a = np.array([5, 300, 2**40], dtype=np.uint64)
    b = np.array([0, 1], dtype=np.uint64)
    first_blob = varint_encode_array(a)
    blob = first_blob + varint_encode_array(b)
    decoded, ends = leb128_decode(np.frombuffer(blob, dtype=np.uint8))
    assert decoded.tolist() == [*a.tolist(), *b.tolist()]
    assert ends[len(a) - 1] + 1 == len(first_blob)
    assert ends[-1] + 1 == len(blob)


@pytest.mark.parametrize("n", [0, 1, 13, 500])
def test_zigzag_matches_scalar_and_round_trips(n):
    rng = random.Random(n)
    values = _random_ints(rng, n, 62)
    encoded = zigzag_encode_array(values)
    assert encoded.tolist() == [ref.zigzag_encode(int(v)) for v in values]
    assert zigzag_decode_array(encoded).tolist() == values.tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 64])
def test_delta_and_dod_match_scalar(n):
    rng = random.Random(77 + n)
    values = _random_ints(rng, n, 40)
    ints = [int(v) for v in values]
    assert delta_encode_array(values).tolist() == ref.delta_encode(ints)
    assert delta_of_delta_encode_array(values).tolist() == ref.delta_of_delta_encode(ints)
    assert delta_decode_array(delta_encode_array(values)).tolist() == ints
    assert (
        delta_of_delta_decode_array(delta_of_delta_encode_array(values)).tolist()
        == ints
    )
    # Cross-check against the scalar decoders too.
    assert ref.delta_decode(delta_encode_array(values).tolist()) == ints
    assert ref.delta_of_delta_decode(delta_of_delta_encode_array(values).tolist()) == ints


def test_signed_stream_round_trips_negative_deltas():
    values = np.array([0, -1, 1, -(2**40), 2**40, -7, -7], dtype=np.int64)
    blob = varint_encode_array(zigzag_encode_array(values))
    decoded, _ = leb128_decode(np.frombuffer(blob, dtype=np.uint8))
    assert zigzag_decode_array(decoded).tolist() == values.tolist()


def _trajectory_points(n, seed, duplicate_ts=False):
    rng = random.Random(seed)
    t = 1000.0
    points = []
    for i in range(n):
        if not (duplicate_ts and i % 3 == 1):
            t += rng.uniform(0.0, 30.0)
        points.append(
            STPoint(
                t,
                116.0 + rng.uniform(-0.5, 0.5),
                39.9 + rng.uniform(-0.5, 0.5),
            )
        )
    return points


@pytest.mark.parametrize(
    "n,duplicate_ts",
    [(1, False), (2, True), (17, False), (17, True), (10_000, False)],
)
def test_array_block_round_trip(n, duplicate_ts):
    points = _trajectory_points(n, seed=n, duplicate_ts=duplicate_ts)
    for name in CODECS:
        codec = TrajectoryCodec(name)
        blob = codec.encode_points(points)
        ts, lngs, lats = codec.decode_array_block(blob)
        want = ref.decode_arrays(blob)
        assert (ts.tolist(), lngs.tolist(), lats.tolist()) == want, name
        assert codec.decode_points(blob) == [STPoint(*p) for p in zip(*want)]
        # Quantized round trip: within half a grid cell of the raw input.
        assert np.allclose(ts, [p.t for p in points], atol=1e-3)
        assert np.allclose(lngs, [p.lng for p in points], atol=1e-7)
        assert np.allclose(lats, [p.lat for p in points], atol=1e-7)


def test_array_block_rejects_mismatched_lengths():
    ts = np.array([1.0, 2.0])
    xy = np.array([1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        TrajectoryCodec().encode_arrays(ts, xy, xy)


def _trajectory(n, seed, duplicate_ts=False):
    return Trajectory("o1", f"t{n}", _trajectory_points(n, seed, duplicate_ts))


def test_row_round_trip():
    serializer = RowSerializer()
    for traj in (
        _trajectory(1, seed=11),
        _trajectory(9, seed=12, duplicate_ts=True),
        _trajectory(400, seed=13),
    ):
        row = serializer.encode(traj, tr_value=3)
        stored = serializer.decode(row)
        assert stored.tr_value == 3
        assert stored.trajectory.tid == traj.tid
        assert len(stored.trajectory) == len(traj)
