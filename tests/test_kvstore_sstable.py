"""Unit tests for SSTable and the bloom filter."""

import hashlib

import pytest

from repro.kvstore.bloom import BloomFilter
from repro.kvstore.sstable import SSTable
from repro.kvstore.stats import IOStats


# sha256 prefix of the bits below, as written when the filter still hashed
# through ``hashlib``.
BLOOM_BITS_SHA256 = "cfc428b23f501a70"


def entries(n):
    return [(i.to_bytes(4, "big"), b"v%d" % i) for i in range(n)]


class TestBloom:
    def test_added_keys_always_found(self):
        bf = BloomFilter(100)
        for i in range(100):
            bf.add(b"key%d" % i)
        assert all(bf.might_contain(b"key%d" % i) for i in range(100))

    def test_false_positive_rate_reasonable(self):
        bf = BloomFilter(1000, fp_rate=0.01)
        for i in range(1000):
            bf.add(b"in%d" % i)
        fps = sum(bf.might_contain(b"out%d" % i) for i in range(10000))
        assert fps < 300  # well under 3% on a 1% target

    def test_rejects_bad_fp_rate(self):
        with pytest.raises(ValueError):
            BloomFilter(10, fp_rate=1.5)

    def test_bits_equal_a_hashlib_reference(self):
        # The filter hashes with the builtin blake2b, not through hashlib;
        # its bits must be the ones hashlib's blake2b gives.
        keys = [b"", b"k", *(b"key-%05d" % i for i in range(0, 3000, 7))]
        bf = BloomFilter(len(keys), fp_rate=0.02)
        for key in keys:
            bf.add(key)
        expect = bytearray((bf.num_bits + 7) // 8)
        for key in keys:
            digest = hashlib.blake2b(key, digest_size=16).digest()
            h1 = int.from_bytes(digest[:8], "big")
            h2 = int.from_bytes(digest[8:], "big") | 1
            for i in range(bf.num_hashes):
                pos = (h1 + i * h2) % bf.num_bits
                expect[pos >> 3] |= 1 << (pos & 7)
        assert bf._bits == expect
        assert hashlib.sha256(bytes(expect)).hexdigest()[:16] == BLOOM_BITS_SHA256


class TestSSTable:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            SSTable([(b"b", b"1"), (b"a", b"2")])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SSTable([(b"a", b"1"), (b"a", b"2")])

    def test_get_hit_and_miss(self):
        t = SSTable(entries(100))
        assert t.get((42).to_bytes(4, "big")) == b"v42"
        assert t.get((999).to_bytes(4, "big")) is None

    def test_scan_full(self):
        t = SSTable(entries(10))
        assert len(list(t.scan())) == 10

    def test_scan_range(self):
        t = SSTable(entries(100))
        got = list(t.scan((10).to_bytes(4, "big"), (20).to_bytes(4, "big")))
        assert [k for k, _ in got] == [i.to_bytes(4, "big") for i in range(10, 20)]

    def test_min_max_keys(self):
        t = SSTable(entries(5))
        assert t.min_key == (0).to_bytes(4, "big")
        assert t.max_key == (4).to_bytes(4, "big")

    def test_overlaps(self):
        t = SSTable(entries(10))
        assert t.overlaps((5).to_bytes(4, "big"), (6).to_bytes(4, "big"))
        assert not t.overlaps((100).to_bytes(4, "big"), None)
        assert not t.overlaps(None, (0).to_bytes(4, "big"))

    def test_block_reads_counted(self):
        stats = IOStats()
        t = SSTable(entries(500), stats)
        list(t.scan())
        assert stats.snapshot().block_reads >= 500 // 64

    def test_bloom_reject_counted(self):
        stats = IOStats()
        t = SSTable(entries(100), stats)
        misses = 0
        for i in range(1000, 1200):
            if t.get(i.to_bytes(4, "big")) is None:
                misses += 1
        assert misses == 200
        assert stats.snapshot().bloom_rejects > 150
