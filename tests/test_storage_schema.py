"""Tests for rowkey encoding and parsing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kvstore.errors import CorruptionError
from repro.storage.schema import (
    RowKeyCodec,
    decode_u64,
    encode_u64,
    shard_of,
)

u64s = st.integers(0, 2**64 - 1)
tids = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=20
)


class TestU64:
    def test_roundtrip(self):
        for v in [0, 1, 255, 2**32, 2**64 - 1]:
            assert decode_u64(encode_u64(v)) == v

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            encode_u64(-1)
        with pytest.raises(ValueError):
            encode_u64(2**64)

    @given(u64s, u64s)
    def test_order_preserving(self, a, b):
        assert (a < b) == (encode_u64(a) < encode_u64(b))


class TestSharding:
    def test_stable(self):
        assert shard_of("trip-1", 8) == shard_of("trip-1", 8)

    def test_in_range(self):
        for i in range(100):
            assert 0 <= shard_of(f"trip-{i}", 7) < 7

    def test_distributes(self):
        shards = {shard_of(f"trip-{i}", 4) for i in range(200)}
        assert shards == {0, 1, 2, 3}


class TestPrimaryKeys:
    def test_roundtrip(self):
        codec = RowKeyCodec(4, index_width=8)
        key = codec.primary_key(encode_u64(12345), "trip-7")
        parsed = codec.parse_primary(key)
        assert parsed.index_bytes == encode_u64(12345)
        assert parsed.tid == "trip-7"
        assert parsed.shard == shard_of("trip-7", 4)

    def test_wide_index(self):
        codec = RowKeyCodec(2, index_width=16)
        key = codec.primary_key(encode_u64(1) + encode_u64(2), "t")
        parsed = codec.parse_primary(key)
        assert parsed.index_bytes == encode_u64(1) + encode_u64(2)

    def test_rejects_wrong_width(self):
        codec = RowKeyCodec(2, index_width=8)
        with pytest.raises(ValueError):
            codec.primary_key(b"\x00" * 16, "t")

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            RowKeyCodec(0)
        with pytest.raises(ValueError):
            RowKeyCodec(256)

    @given(u64s, u64s, tids)
    def test_window_contains_key_iff_value_in_range(self, lo, value, tid):
        codec = RowKeyCodec(3, index_width=8)
        hi = lo + 1000
        if not lo <= value:
            value, lo = lo, value
            hi = lo + 1000
        key = codec.primary_key(encode_u64(value % (2**64)), tid)
        shard = shard_of(tid, 3)
        start, stop = codec.primary_window(shard, encode_u64(lo), encode_u64(min(hi, 2**64 - 1)))
        in_window = start <= key < stop
        assert in_window == (lo <= value % (2**64) < min(hi, 2**64 - 1))

    def test_keys_sort_by_index_value_within_shard(self):
        codec = RowKeyCodec(1, index_width=8)
        keys = [codec.primary_key(encode_u64(v), "t") for v in [5, 1, 9, 3]]
        parsed = [codec.parse_primary(k).index_bytes for k in sorted(keys)]
        assert parsed == [encode_u64(v) for v in [1, 3, 5, 9]]


class TestSecondaryKeys:
    def test_roundtrip(self):
        key = RowKeyCodec.secondary_key(encode_u64(77), "trip-9")
        index_bytes, tid = RowKeyCodec.parse_secondary(key, 8)
        assert decode_u64(index_bytes) == 77 and tid == "trip-9"


class TestIDTKeys:
    def test_window_covers_range(self):
        key = RowKeyCodec.idt_key("obj-1", 500, "trip-1")
        start, stop = RowKeyCodec.idt_window("obj-1", 400, 600)
        assert start <= key < stop

    def test_window_excludes_other_object(self):
        key = RowKeyCodec.idt_key("obj-2", 500, "trip-1")
        start, stop = RowKeyCodec.idt_window("obj-1", 400, 600)
        assert not (start <= key < stop)

    def test_window_excludes_out_of_range(self):
        key = RowKeyCodec.idt_key("obj-1", 601, "trip-1")
        start, stop = RowKeyCodec.idt_window("obj-1", 400, 600)
        assert not (start <= key < stop)

    def test_rejects_nul_in_oid(self):
        with pytest.raises(ValueError):
            RowKeyCodec.idt_key("bad\x00oid", 1, "t")

    def test_prefix_object_ids_do_not_collide(self):
        """'obj-1' windows must not capture 'obj-10' keys."""
        key = RowKeyCodec.idt_key("obj-10", 500, "t")
        start, stop = RowKeyCodec.idt_window("obj-1", 0, 2**63)
        assert not (start <= key < stop)


oids = st.text(
    alphabet=st.characters(min_codepoint=1, max_codepoint=0x10FFFF, blacklist_categories=("Cs",)),
    min_size=1, max_size=12,
)


class TestMappingValues:
    """A mapping row's value is the primary key up to its separator; the
    primary key comes back by concatenation with the mapping key's tail."""

    @staticmethod
    def _secondary_keys(tr: int, shape: int, oid: str, tid: str) -> dict[str, bytes]:
        return {
            "tr": RowKeyCodec.secondary_key(encode_u64(tr), tid),
            "tshape": RowKeyCodec.secondary_key(encode_u64(shape), tid),
            "interval": RowKeyCodec.secondary_key(encode_u64(tr), tid),
            "st": RowKeyCodec.secondary_key(RowKeyCodec.st_index_bytes(tr, shape), tid),
            "idt": RowKeyCodec.idt_key(oid, tr, tid),
        }

    @given(u64s, u64s, oids, tids, st.sampled_from([8, 16]))
    def test_roundtrip_every_table(self, tr, shape, oid, tid, width):
        codec = RowKeyCodec(7, index_width=width)
        index = encode_u64(shape) if width == 8 else RowKeyCodec.st_index_bytes(tr, shape)
        pkey = codec.primary_key(index, tid)
        value = codec.mapping_value(pkey)
        assert len(value) == 1 + width and pkey.startswith(value)
        for table, key in self._secondary_keys(tr, shape, oid, tid).items():
            assert key[RowKeyCodec.tid_at(table, key):] == tid.encode("utf-8")
            assert codec.primary_from_mapping(table, key, value) == pkey

    @pytest.mark.parametrize("length", [0, 8, 10, 29])  # 29: a whole primary key
    def test_other_value_lengths_raise_corruption(self, length):
        codec = RowKeyCodec(2)
        pkey = codec.primary_key(encode_u64(5), "tdrive-trip-0000001")
        key = RowKeyCodec.idt_key("obj-1", 3, "tdrive-trip-0000001")
        with pytest.raises(CorruptionError, match=f"is {length} bytes"):
            codec.primary_from_mapping("idt", key, pkey[:length])

    def test_malformed_keys_raise_corruption(self):
        codec = RowKeyCodec(2)
        value = codec.mapping_value(codec.primary_key(encode_u64(5), "t"))
        for table, key in [("tr", b"short"), ("st", encode_u64(1) + b"\x01t"), ("idt", b"nonul")]:
            with pytest.raises(CorruptionError):
                codec.primary_from_mapping(table, key, value)


class TestSTBytes:
    def test_composite_orders_by_tr_first(self):
        a = RowKeyCodec.st_index_bytes(1, 2**63)
        b = RowKeyCodec.st_index_bytes(2, 0)
        assert a < b
