"""Unit and property tests for the row's bit packer, simple8b, PFOR, and
the XOR float codec.

Each integer packer's stream is read back both by its array unpacker and by
the scalar reference decoder in ``tests/codec_reference.py``.  A stream
holds no count: both readers are told how many values it holds.  The bit
packer (``repro.compression.bitpack``) packs every row's streams; simple8b,
PFOR and XOR (``benchmarks/``) are the codec menu benchmark's.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.pfor import pfor_encode, pfor_unpack
from benchmarks.simple8b import simple8b_encode, simple8b_unpack
from benchmarks.xor_float import xor_float_decode, xor_float_encode
from repro.compression.bitpack import MAX_COUNT, pack, unpack_array, unpack_lists
from repro.compression.columnar import (
    delta_encode_array,
    delta_of_delta_encode_array,
    zigzag_encode_array,
)
from repro.compression.traj_codec import quantize_arrays
from repro.datasets import tdrive_like

from . import codec_reference as ref


def _both(unpack, reference):
    """A decoder that reads a stream with ``unpack`` and ``reference`` and
    returns their values once it has checked that they agree."""

    def decode(blob: bytes, n: int) -> list[int]:
        want = reference(blob, n)
        got = unpack([blob], n)
        assert got.dtype == np.uint64 and got.tolist() == [want]
        return want

    return decode


simple8b_decode = _both(simple8b_unpack, ref.simple8b_decode)
pfor_decode = _both(pfor_unpack, ref.pfor_decode)

small_uints = st.integers(0, 2**40)


def _section(values, heads=0) -> bytes:
    """One stream's section, checked against both readers and the scalar one."""
    (section,) = pack([np.array(values, dtype=np.uint64)], [(0, len(values))], (heads,))
    assert ref.pack_section([list(values)], (heads,)) == section
    assert unpack_lists(section, 0, (len(values),), (heads,)) == [list(values)]
    assert unpack_array(section, 0, (len(values),), (heads,)).tolist() == list(values)
    return section


class TestBitpack:
    def test_empty_and_zero_width(self):
        assert _section([]) == b""
        # a zero-width tail is its descriptor byte alone
        assert _section([0] * 500) == bytes([0])

    def test_width_64_up_to_the_largest_value(self):
        top = 2**64 - 1
        section = _section([top, 1 << 63, top - 1, (1 << 63) + 5])
        assert section[0] == 64  # one width, no exceptions
        _section([top, 0, top, 1 << 63, top - 1])  # zero width, four patched
        _section([top] * 3 + [5] * 200)  # the three patched on a small width
        _section([top, 7], heads=1)

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=60), st.integers(0, 3))
    @settings(max_examples=50)
    def test_roundtrip(self, values, heads):
        _section(values, heads)

    def test_an_outlier_does_not_widen_the_stream(self):
        """One 40-bit GPS gap among 10-bit deltas is patched, not packed at
        40 bits: the stream is no larger than simple8b makes it."""
        rng = np.random.default_rng(5)
        values = rng.integers(0, 1 << 10, 300).tolist()
        values[123] = (1 << 40) - 3
        section = _section(values)
        assert section[0] == 0x80 | 10  # width 10, with exceptions
        assert len(section) <= len(simple8b_encode(values))

    def test_rejects_streams_past_the_count_limit(self):
        with pytest.raises(ValueError, match="more than"):
            pack([np.zeros(MAX_COUNT + 1, dtype=np.uint64)], [(0, MAX_COUNT + 1)], (0,))
        with pytest.raises(ValueError, match="a stream of"):
            unpack_lists(b"\x00", 0, (MAX_COUNT + 1,), (0,))

    def test_packing_a_chunk_stays_small(self):
        """Packing one ingest chunk's point streams (8,022 points) peaks
        under 2.5 MiB: no array holds an element per bit (simple8b peaks at
        about 3.0 MiB here, PFOR at 11 MiB)."""
        trajs = tdrive_like(240, seed=42, max_points=50)
        offsets = np.cumsum([0] + [len(t) for t in trajs])
        t, x, y = quantize_arrays(*(np.concatenate([getattr(tr.block, col) for tr in trajs])
                                    for col in ("ts", "xs", "ys")))
        streams = [zigzag_encode_array(s) for s in (delta_of_delta_encode_array(t, offsets),
                                                    delta_encode_array(x, offsets),
                                                    delta_encode_array(y, offsets))]
        tracemalloc.start()
        try:
            pack(streams, [offsets] * 3, (2, 1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert offsets[-1] == 8022 and peak <= 2.5 * 2**20, peak


class TestSimple8b:
    def test_empty(self):
        assert simple8b_decode(simple8b_encode([]), 0) == []

    def test_run_of_zeros_is_compact(self):
        blob = simple8b_encode([0] * 240)
        # a single 8-byte word (no count: the blob's frame holds it)
        assert len(blob) == 8

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            simple8b_encode([-1])

    def test_rejects_oversized(self):
        with pytest.raises(ValueError):
            simple8b_encode([1 << 60])

    def test_max_60bit_value(self):
        v = (1 << 60) - 1
        assert simple8b_decode(simple8b_encode([v]), 1) == [v]

    def test_truncated_raises(self):
        blob = simple8b_encode([1, 2, 3])
        with pytest.raises(ValueError):
            ref.simple8b_decode(blob[:6], 3)
        with pytest.raises(ValueError):
            simple8b_unpack([blob[:6]], 3)

    @given(st.lists(small_uints, max_size=300))
    @settings(max_examples=50)
    def test_roundtrip(self, values):
        assert simple8b_decode(simple8b_encode(values), len(values)) == values

    def test_mixed_magnitudes(self):
        values = [0, 1, 2**30, 0, 0, 5, 2**59, 1]
        assert simple8b_decode(simple8b_encode(values), len(values)) == values


class TestPFOR:
    def test_empty(self):
        assert pfor_decode(pfor_encode([]), 0) == []

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pfor_encode([-5])

    def test_outliers_patched(self):
        values = [1, 2, 3, 2**50, 2, 1] * 30
        assert pfor_decode(pfor_encode(values), len(values)) == values

    def test_constant_block(self):
        values = [42] * 500
        assert pfor_decode(pfor_encode(values), len(values)) == values

    def test_compresses_small_ranges(self):
        values = list(range(1000, 1128))
        blob = pfor_encode(values)
        assert len(blob) < 8 * len(values)

    @given(st.lists(st.integers(0, 2**62), max_size=400))
    @settings(max_examples=50)
    def test_roundtrip(self, values):
        assert pfor_decode(pfor_encode(values), len(values)) == values


class TestXorFloat:
    def test_empty(self):
        assert xor_float_decode(xor_float_encode([])) == []

    def test_repeated_value_is_one_byte_each(self):
        blob = xor_float_encode([1.5] * 100)
        # varint count + first value bytes + 99 zero markers.
        assert len(blob) < 120

    def test_exact_roundtrip_special_values(self):
        values = [0.0, -0.0, 1.0, -1.0, 1e-300, 1e300, 3.141592653589793]
        out = xor_float_decode(xor_float_encode(values))
        assert all(a == b or (a != a and b != b) for a, b in zip(values, out))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=200))
    @settings(max_examples=50)
    def test_roundtrip_bit_exact(self, values):
        import struct

        out = xor_float_decode(xor_float_encode(values))
        assert len(out) == len(values)
        for a, b in zip(values, out):
            assert struct.pack(">d", a) == struct.pack(">d", b)

    def test_truncated_raises(self):
        blob = xor_float_encode([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            xor_float_decode(blob[: len(blob) - 2])
