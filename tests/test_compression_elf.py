"""Tests for the Elf-style erasing float codec (`benchmarks/elf.py`)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchmarks.elf import _decimals_needed, _erase, elf_decode, elf_encode


class TestHelpers:
    def test_decimals_needed_integers(self):
        assert _decimals_needed(42.0) == 0

    def test_decimals_needed_gps_coordinate(self):
        assert _decimals_needed(116.51172) <= 7

    def test_decimals_irrational_tail(self):
        import math

        # The shortest repr of pi has 16 significant digits, so the double
        # round-trips at 15 decimal places — far more than GPS data needs.
        assert _decimals_needed(math.pi) >= 15

    def test_erase_preserves_rounding(self):
        v = 116.51172
        d = _decimals_needed(v)
        erased = _erase(v, d)
        assert round(erased, d) == v
        # Erasure must zero at least some mantissa bits for decimal data.
        (bits,) = struct.unpack(">Q", struct.pack(">d", erased))
        trailing_zeros = (bits & -bits).bit_length() - 1 if bits else 64
        assert trailing_zeros >= 8


class TestRoundtrip:
    def test_empty(self):
        assert elf_decode(elf_encode([])) == []

    def test_gps_track(self):
        values = [116.51172 + i * 0.00013 for i in range(100)]
        values = [round(v, 7) for v in values]
        assert elf_decode(elf_encode(values)) == values

    def test_mixed_precision(self):
        import math

        values = [1.0, 0.5, math.pi, 116.1234567, -39.9, 0.0, 1e300]
        out = elf_decode(elf_encode(values))
        assert out == values

    def test_special_values(self):
        values = [float("inf"), float("-inf"), 0.0, -0.0]
        out = elf_decode(elf_encode(values))
        assert out[0] == float("inf") and out[1] == float("-inf")
        assert struct.pack(">d", out[3]) == struct.pack(">d", -0.0)

    def test_nan_survives(self):
        out = elf_decode(elf_encode([float("nan")]))
        assert out[0] != out[0]

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_arbitrary(self, values):
        out = elf_decode(elf_encode(values))
        assert len(out) == len(values)
        for a, b in zip(values, out):
            assert a == b, (a, b)

    @given(
        st.lists(
            st.decimals(
                min_value=-180, max_value=180, places=7, allow_nan=False,
                allow_infinity=False,
            ).map(float),
            min_size=2,
            max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_decimal_data(self, values):
        assert elf_decode(elf_encode(values)) == values


class TestCompression:
    def test_beats_plain_xor_on_decimal_data(self):
        from benchmarks.xor_float import xor_float_encode

        values = [round(116.3 + i * 0.0001234, 7) for i in range(500)]
        elf_size = len(elf_encode(values))
        xor_size = len(xor_float_encode(values))
        assert elf_size < xor_size

    def test_truncated_raises(self):
        blob = elf_encode([1.5, 2.5, 3.5])
        with pytest.raises(ValueError):
            elf_decode(blob[:4])
