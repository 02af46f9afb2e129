"""Unit and property tests for zigzag, varint, and delta transforms.

The varint codec is the program's own; zigzag, delta and the varint lists
are the scalar reference implementations the vectorized kernels are
checked against, so they are checked here on their own.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression import decode_varint, encode_varint

from .codec_reference import (
    decode_varint_list,
    delta_decode,
    delta_encode,
    delta_of_delta_decode,
    delta_of_delta_encode,
    encode_varint_list,
    zigzag_decode,
    zigzag_encode,
)

ints = st.integers(-(2**62), 2**62)
uints = st.integers(0, 2**62)


class TestZigZag:
    @pytest.mark.parametrize(
        "signed,unsigned",
        [(0, 0), (-1, 1), (1, 2), (-2, 3), (2, 4), (2147483647, 4294967294)],
    )
    def test_known_mapping(self, signed, unsigned):
        assert zigzag_encode(signed) == unsigned
        assert zigzag_decode(unsigned) == signed

    def test_decode_rejects_negative(self):
        with pytest.raises(ValueError):
            zigzag_decode(-1)

    @given(ints)
    def test_roundtrip(self, v):
        assert zigzag_decode(zigzag_encode(v)) == v

    @given(ints)
    def test_encoding_is_nonnegative(self, v):
        assert zigzag_encode(v) >= 0

    def test_huge_values_roundtrip(self):
        for v in (2**70, -(2**70), 2**100 + 17):
            assert zigzag_decode(zigzag_encode(v)) == v


class TestVarint:
    def test_single_byte_values(self):
        out = bytearray()
        encode_varint(127, out)
        assert bytes(out) == b"\x7f"

    def test_two_byte_boundary(self):
        out = bytearray()
        encode_varint(128, out)
        assert bytes(out) == b"\x80\x01"

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            encode_varint(-1, bytearray())

    def test_truncated_raises(self):
        with pytest.raises(ValueError):
            decode_varint(b"\x80")

    @given(uints)
    def test_roundtrip(self, v):
        out = bytearray()
        encode_varint(v, out)
        decoded, pos = decode_varint(bytes(out))
        assert decoded == v and pos == len(out)

    @given(st.lists(uints, max_size=50))
    def test_list_roundtrip(self, values):
        blob = encode_varint_list(values)
        decoded, pos = decode_varint_list(blob)
        assert decoded == values and pos == len(blob)

    @given(st.lists(uints, min_size=1, max_size=10), uints)
    def test_sequential_decoding(self, values, extra):
        out = bytearray()
        for v in values + [extra]:
            encode_varint(v, out)
        pos = 0
        decoded = []
        for _ in range(len(values) + 1):
            v, pos = decode_varint(bytes(out), pos)
            decoded.append(v)
        assert decoded == values + [extra]


class TestDelta:
    def test_empty(self):
        assert delta_encode([]) == [] and delta_decode([]) == []

    def test_known(self):
        assert delta_encode([5, 7, 7, 10]) == [5, 2, 0, 3]
        assert delta_decode([5, 2, 0, 3]) == [5, 7, 7, 10]

    @given(st.lists(ints, max_size=200))
    def test_roundtrip(self, values):
        assert delta_decode(delta_encode(values)) == values

    @given(st.lists(ints, max_size=200))
    def test_dod_roundtrip(self, values):
        assert delta_of_delta_decode(delta_of_delta_encode(values)) == values

    def test_dod_regular_series_is_mostly_zero(self):
        values = list(range(0, 1000, 10))
        encoded = delta_of_delta_encode(values)
        assert all(v == 0 for v in encoded[2:])
