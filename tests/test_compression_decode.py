"""The one trajectory decoder against the scalar oracle, and corrupt blobs.

A blob decodes through ``TrajectoryCodec.decode_array_block``: the bit
packer's array reader, then zigzag, delta-of-delta / delta and
dequantization, vectorized.  Here it must agree bit for bit with the scalar
decoders in ``tests/codec_reference.py`` on generated columns, and a
truncated or bit-flipped blob must either decode to three equal-length
columns or raise one of the errors the row decoder maps to
``CorruptionError``.  The bit packer's two readers must read back what it
packed, as the scalar reader does, and so must the array unpackers of the
codec menu's LEB128, simple8b and PFOR packers (``benchmarks/``).

The property tests take their example counts from the active Hypothesis
profile: the ``fuzz`` profile (``tests/conftest.py``) sweeps deeper.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.pfor import pfor_encode_segments, pfor_unpack
from benchmarks.simple8b import simple8b_encode_segments, simple8b_unpack
from benchmarks.varint_stream import leb128_decode, varint_encode_segments, varint_unpack
from repro.compression.bitpack import pack, unpack_array, unpack_lists
from repro.compression.traj_codec import (
    CODEC,
    TrajectoryCodec,
    dequantize_arrays,
    quantize_arrays,
)
from repro.datasets import tdrive_like
from repro.model.pointblock import MAX_ABS_TIME

from . import codec_reference as ref

CODECS = (CODEC,)  # the packers rows are written with
PACKERS = {  # the codec menu's: (segmented packer, array unpacker, scalar decoder)
    "varint": (varint_encode_segments, varint_unpack, ref.varint_decode),
    "simple8b": (simple8b_encode_segments, simple8b_unpack, ref.simple8b_decode),
    "pfor": (pfor_encode_segments, pfor_unpack, ref.pfor_decode),
}
# What ``RowSerializer`` turns into ``CorruptionError``.
CORRUPT = (ValueError, IndexError, OverflowError)
# Quantized coordinates this far apart zigzag to just under 2^60.
EDGE = (1 << 58) - (1 << 10)

lengths = st.one_of(st.integers(1, 3), st.integers(300, 420))


@st.composite
def columns(draw):
    """(ts, xs, ys, offsets): one or two trajectories' float columns."""
    n = draw(lengths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = rng.integers(0, 90_000, n) / 1000.0  # fractional milliseconds too
    if draw(st.booleans()):  # repeated timestamps
        steps[rng.random(n) < 0.5] = 0.0
    ts = draw(st.integers(-(2**50), 2**50)) / 1000.0 + np.cumsum(steps)
    kind = draw(st.sampled_from(["gps", "negative", "edge"]))
    if kind == "edge":
        xs = rng.choice([-EDGE, EDGE], n) / 1e7
        ys = rng.uniform(-90.0, 90.0, n)
    else:
        sign = -1.0 if kind == "negative" else 1.0
        xs = sign * (116.0 + np.cumsum(rng.normal(0.0, 1e-3, n)))
        ys = sign * (39.9 + np.cumsum(rng.normal(0.0, 1e-3, n)))
    cut = draw(st.integers(0, n))
    offsets = (0, n) if cut in (0, n) else (0, cut, n)
    return ts, xs, ys, offsets


# Any origin a quantized value may lie near, so the first deltas take either
# sign and any width.
triples = st.tuples(*[st.integers(-(2**53), 2**53)] * 3)


@pytest.mark.parametrize("codec", CODECS)
@settings(derandomize=True, deadline=None)
@given(columns(), st.sampled_from(["none", "minima", "any"]), st.data())
def test_blobs_round_trip_and_match_the_oracle(codec, cols, kind, data):
    """Origin none (the standalone API), each segment's quantized minima
    (what ``RowSerializer`` passes) or any triple per segment."""
    ts, xs, ys, offsets = cols
    spans = list(zip(offsets[:-1], offsets[1:]))
    origins = None
    if kind == "minima":
        q = np.stack(quantize_arrays(ts, xs, ys), axis=1)
        origins = [tuple(q[lo:hi].min(axis=0).tolist()) for lo, hi in spans]
    elif kind == "any":
        origins = [data.draw(triples) for _ in spans]
    blobs = TrajectoryCodec(codec).encode_columns(ts, xs, ys, offsets, origins)
    for k, (blob, (lo, hi)) in enumerate(zip(blobs, spans)):
        origin = None if origins is None else origins[k]
        got = TrajectoryCodec().decode_array_block(blob, origin)
        want = dequantize_arrays(*quantize_arrays(ts[lo:hi], xs[lo:hi], ys[lo:hi]))
        oracle = ref.decode_arrays(blob, origin)
        for mine, exact, scalar in zip(got, want, oracle):
            assert mine.dtype == np.float64 and mine.tobytes() == exact.tobytes()
            assert mine.tobytes() == np.array(scalar, dtype=np.float64).tobytes()


@st.composite
def streams(draw):
    """Three streams of ``n`` unsigned values each: zero runs long enough for
    simple8b's 240- and 120-zero words, small values, and values at its
    60-bit edge."""
    n = draw(lengths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shifts = rng.integers(0, 61, 3 * n).astype(np.uint64)
    values = rng.integers(0, 2**60, 3 * n, dtype=np.uint64) >> shifts
    values[rng.random(3 * n) < draw(st.sampled_from([0.0, 0.5, 0.97]))] = 0
    values[rng.random(3 * n) < 0.02] = (1 << 60) - 1
    return values, n


@settings(derandomize=True, deadline=None)
@given(streams(), st.sampled_from([0, 64]), st.tuples(*[st.integers(0, 3)] * 3))
def test_sections_match_the_scalar_reader(drawn, top, heads):
    """Two rows' sections of three streams each, with values up to
    2^64 - 1 when ``top`` is 64, read back by both of the bit packer's
    readers and by the scalar reader."""
    values, n = drawn
    if top:
        values[::7] = np.uint64(2**64 - 1)
    flat = values.reshape(3, n)
    cut = n // 2
    offsets = [(0, cut, n)] * 3
    sections = pack(list(flat), offsets, heads)
    for section, (lo, hi) in zip(sections, [(0, cut), (cut, n)]):
        want = [row[lo:hi].tolist() for row in flat]
        lengths = [hi - lo] * 3
        assert unpack_lists(section, 0, lengths, heads) == want
        assert unpack_array(section, 0, lengths, heads).tolist() == sum(want, [])
        assert ref.unpack_section(section, 0, len(section), lengths, heads) == want


@pytest.mark.parametrize("codec", sorted(PACKERS))
@settings(derandomize=True, deadline=None)
@given(streams())
def test_unpackers_match_the_scalar_decoders(codec, drawn):
    values, n = drawn
    pack, unpack, scalar = PACKERS[codec]
    packed = pack(values, (0, n, 2 * n, 3 * n))
    got = unpack(packed, n)
    assert got.dtype == np.uint64 and got.shape == (3, n)
    assert got.ravel().tolist() == values.tolist()
    assert got.tolist() == [scalar(stream, n) for stream in packed]


@pytest.mark.parametrize("codec", CODECS)
def test_timestamps_at_the_bound_round_trip(codec):
    """Times as far from the epoch as a trajectory may hold them, with the
    widest delta-of-delta steps between them, decode exactly."""
    ts = np.array([-MAX_ABS_TIME, -MAX_ABS_TIME, MAX_ABS_TIME, MAX_ABS_TIME, 0.0])
    xs = np.array([-180.0, 180.0, -180.0, 180.0, 0.0])
    ys = np.array([-90.0, 90.0, 90.0, -90.0, 0.0])
    assert MAX_ABS_TIME * 1000 == 2**53
    blob = TrajectoryCodec(codec).encode_arrays(ts, xs, ys)
    for got, want in zip(TrajectoryCodec().decode_array_block(blob), (ts, xs, ys)):
        assert got.tobytes() == want.tobytes()


def test_leb128_rejects_values_past_64_bits():
    """A 10th byte above 0x01 (or an 11th byte) overflows 64 bits; it used
    to be clamped to 2^64 - 1."""
    widest = bytes([0xFF] * 9 + [0x01])
    assert leb128_decode(np.frombuffer(widest, dtype=np.uint8))[0].tolist() == [2**64 - 1]
    for bad in (bytes([0xFF] * 9 + [0x7F]), bytes([0xFF] * 9 + [0x02]),
                bytes([0x80] * 10 + [0x00])):
        with pytest.raises(ValueError):
            leb128_decode(np.frombuffer(bad, dtype=np.uint8))
    # the scalar reference reads the overflowing value; the array decoder
    # refuses it from the streams it unpacks too
    t_stream = bytes([*[0xFF] * 9, 0x7F])
    assert ref.varint_decode(t_stream, 1) == [1180591620717411303423]
    with pytest.raises(ValueError, match="64 bits"):
        varint_unpack([t_stream, b"\x00", b"\x00"], 1)


def _tdrive_blobs(codec: str) -> list[bytes]:
    trajs = tdrive_like(20, seed=17, max_points=30)
    return [TrajectoryCodec(codec).encode_arrays(t.block.ts, t.block.xs, t.block.ys)
            for t in trajs]


def _decodes_or_raises(blob: bytes) -> None:
    try:
        ts, xs, ys = TrajectoryCodec().decode_array_block(blob)
    except CORRUPT:
        return
    assert len(ts) == len(xs) == len(ys)
    assert ts.dtype == xs.dtype == ys.dtype == np.float64


@pytest.mark.parametrize("codec", CODECS)
def test_every_cut_and_bit_flip_decodes_or_raises(codec):
    """Exhaustive, so deterministic: every prefix of 20 T-Drive blobs, and
    every blob with one bit flipped."""
    for blob in _tdrive_blobs(codec):
        for cut in range(len(blob)):
            _decodes_or_raises(blob[:cut])
        flipped = bytearray(blob)
        for bit in range(8 * len(blob)):
            flipped[bit // 8] ^= 1 << (bit % 8)
            _decodes_or_raises(bytes(flipped))
            flipped[bit // 8] ^= 1 << (bit % 8)
