"""Unit and property tests for simple8b, PFOR, and the XOR float codec.

Each integer packer's stream is read back both by its array unpacker and by
the scalar reference decoder in ``tests/codec_reference.py``.  A stream
holds no count: both readers are told how many values it holds.  Simple8b
packs every row's point streams; PFOR (``benchmarks/pfor.py``) and XOR are
the codec menu benchmark's.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.pfor import pfor_encode, pfor_unpack
from benchmarks.xor_float import xor_float_decode, xor_float_encode
from repro.compression import simple8b_encode
from repro.compression.simple8b import simple8b_unpack

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
