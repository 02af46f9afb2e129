"""Unit and integration tests for the shared SSTable block cache."""

from __future__ import annotations

import pytest

from repro.kvstore import Cluster, Scan
from repro.kvstore.block_cache import (
    BlockCache,
    CachedBlockFile,
    make_block_cache,
    next_file_token,
)


def k(i):
    return i.to_bytes(4, "big")


def flush_table(t):
    for region in t.regions:
        region._store.flush()


class TestBlockCacheUnit:
    def test_resident_gauges_sum_every_live_cache(self):
        import gc

        from repro import obs

        def resident():
            reg = obs.registry()
            return (reg.get("kv_blockcache_bytes").value,
                    reg.get("kv_blockcache_entries").value)

        gc.collect()
        bytes0, entries0 = resident()
        caches = [BlockCache(1 << 16, block_bytes=8) for _ in range(2)]
        caches[0].get_block(1, 0, lambda idx: b"x" * 8)
        caches[1].get_block(2, 0, lambda idx: b"y" * 5)
        caches[1].get_block(2, 1, lambda idx: b"z" * 8)
        assert resident() == (bytes0 + 21, entries0 + 3)
        del caches[1]
        gc.collect()
        assert resident() == (bytes0 + 8, entries0 + 1)

    def test_miss_then_hit(self):
        cache = BlockCache(1 << 16, block_bytes=8)
        loads = []

        def loader(idx):
            loads.append(idx)
            return b"x" * 8

        assert cache.get_block(1, 0, loader) == b"x" * 8
        assert cache.get_block(1, 0, loader) == b"x" * 8
        assert loads == [0]
        st = cache.stats()
        assert (st.hits, st.misses) == (1, 1)
        assert st.hit_ratio == 0.5

    def test_distinct_files_do_not_collide(self):
        cache = BlockCache(1 << 16, block_bytes=8)
        cache.get_block(1, 0, lambda i: b"a" * 8)
        assert cache.get_block(2, 0, lambda i: b"b" * 8) == b"b" * 8
        assert cache.get_block(1, 0, lambda i: b"?" * 8) == b"a" * 8

    def test_lru_eviction_order(self):
        # Capacity for exactly two 8-byte blocks.
        cache = BlockCache(16, block_bytes=8)
        cache.get_block(0, 0, lambda i: b"A" * 8)
        cache.get_block(0, 1, lambda i: b"B" * 8)
        # Touch block 0 so block 1 is the LRU victim.
        cache.get_block(0, 0, lambda i: b"?" * 8)
        cache.get_block(0, 2, lambda i: b"C" * 8)
        st = cache.stats()
        assert st.evictions == 1
        assert st.entries == 2
        # Block 0 survived, block 1 was evicted and reloads.
        loads = []
        cache.get_block(0, 0, lambda i: loads.append(i) or b"A" * 8)
        cache.get_block(0, 1, lambda i: loads.append(i) or b"B" * 8)
        assert loads == [1]

    def test_capacity_is_byte_bounded(self):
        cache = BlockCache(100, block_bytes=32)
        for i in range(10):
            cache.get_block(0, i, lambda idx: b"z" * 32)
        assert cache.resident_bytes <= 100
        assert len(cache) == 3

    def test_oversized_block_not_retained(self):
        cache = BlockCache(8, block_bytes=64)
        assert cache.get_block(0, 0, lambda i: b"q" * 64) == b"q" * 64
        assert len(cache) == 0

    def test_drop_file_reclaims_bytes(self):
        cache = BlockCache(1 << 16, block_bytes=8)
        for i in range(4):
            cache.get_block(7, i, lambda idx: b"d" * 8)
        cache.get_block(8, 0, lambda idx: b"e" * 8)
        assert cache.drop_file(7) == 4
        st = cache.stats()
        assert st.entries == 1
        assert st.bytes == 8

    def test_clear(self):
        cache = BlockCache(1 << 16, block_bytes=8)
        cache.get_block(0, 0, lambda i: b"x" * 8)
        cache.clear()
        assert len(cache) == 0
        assert cache.resident_bytes == 0

    def test_zero_capacity_disables_retention(self):
        cache = BlockCache(0, block_bytes=8)
        loads = []

        def loader(idx):
            loads.append(idx)
            return b"x" * 8

        cache.get_block(0, 0, loader)
        cache.get_block(0, 0, loader)
        assert loads == [0, 0]
        assert len(cache) == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            BlockCache(-1)
        with pytest.raises(ValueError):
            BlockCache(16, block_bytes=0)

    def test_make_block_cache(self):
        assert make_block_cache(0) is None
        assert make_block_cache(None) is None
        assert isinstance(make_block_cache(1024), BlockCache)

    def test_file_tokens_are_unique(self):
        tokens = {next_file_token() for _ in range(100)}
        assert len(tokens) == 100


class TestCachedBlockFile:
    def test_reads_match_plain_file(self, tmp_path):
        payload = bytes(range(256)) * 5  # 1280 bytes, not block-aligned
        path = tmp_path / "blob"
        path.write_bytes(payload)
        cache = BlockCache(1 << 16, block_bytes=64)
        with CachedBlockFile(path, next_file_token(), cache, len(payload)) as fh:
            # Aligned, straddling, and EOF-clamped reads.
            assert fh.read(0, 64) == payload[:64]
            assert fh.read(60, 10) == payload[60:70]
            assert fh.read(1270, 50) == payload[1270:]
            assert fh.read(0, len(payload)) == payload
        assert cache.stats().hits > 0

    def test_warm_read_touches_no_disk(self, tmp_path):
        payload = b"r" * 512
        path = tmp_path / "blob"
        path.write_bytes(payload)
        cache = BlockCache(1 << 16, block_bytes=64)
        token = next_file_token()
        with CachedBlockFile(path, token, cache, len(payload)) as fh:
            fh.read(0, 512)
        path.unlink()  # a warm re-read must not need the file at all
        with CachedBlockFile(path, token, cache, len(payload)) as fh:
            assert fh.read(0, 512) == payload


class TestDurableIntegration:
    def _cluster(self, tmp_path, **kw):
        kw.setdefault("workers", 1)
        kw.setdefault("block_cache_bytes", 1 << 20)
        return Cluster(data_dir=tmp_path / "db", **kw)

    def test_warm_scan_stops_missing(self, tmp_path):
        with self._cluster(tmp_path) as c:
            t = c.create_table("t")
            for i in range(300):
                t.put(k(i), b"v%d" % i)
            flush_table(t)
            cache = c.block_cache
            list(t.scan(Scan()))
            misses_after_cold = cache.stats().misses
            assert misses_after_cold > 0
            list(t.scan(Scan()))
            st = cache.stats()
            assert st.misses == misses_after_cold  # fully warm
            assert st.hits > 0

    def test_flush_serves_new_data(self, tmp_path):
        # A flush creates a new SSTable (new cache token); cached blocks of
        # older runs must never shadow the newer values.
        with self._cluster(tmp_path) as c:
            t = c.create_table("t")
            for i in range(100):
                t.put(k(i), b"old%d" % i)
            flush_table(t)
            list(t.scan(Scan()))  # warm the first run's blocks
            for i in range(100):
                t.put(k(i), b"new%d" % i)
            flush_table(t)
            got = {key: val for key, val in t.scan(Scan())}
            assert got[k(5)] == b"new5"
            assert len(got) == 100

    def test_compaction_drops_dead_runs_from_cache(self, tmp_path):
        with self._cluster(tmp_path) as c:
            t = c.create_table("t")
            for i in range(200):
                t.put(k(i), b"a" * 50)
            flush_table(t)
            for i in range(200):
                t.put(k(i), b"b" * 50)
            flush_table(t)
            cache = c.block_cache
            list(t.scan(Scan()))  # resident blocks for both runs
            assert len(cache) > 0
            for region in t.regions:
                region._store.compact()
            # Old runs were released; only freshly-read blocks may remain.
            rows = {key: val for key, val in t.scan(Scan())}
            assert rows[k(0)] == b"b" * 50
            assert len(rows) == 200

    def test_close_releases_cache(self, tmp_path):
        c = self._cluster(tmp_path)
        t = c.create_table("t")
        for i in range(200):
            t.put(k(i), b"v" * 40)
        flush_table(t)
        list(t.scan(Scan()))
        assert len(c.block_cache) > 0
        c.close()
        assert len(c.block_cache) == 0

    def test_disabled_cache_still_correct(self, tmp_path):
        with self._cluster(tmp_path, block_cache_bytes=0) as c:
            t = c.create_table("t")
            assert c.block_cache is None
            for i in range(100):
                t.put(k(i), b"v%d" % i)
            flush_table(t)
            assert [key for key, _ in t.scan(Scan())] == [k(i) for i in range(100)]

    def test_tiny_cache_evicts_but_stays_correct(self, tmp_path):
        with self._cluster(tmp_path, block_cache_bytes=8192) as c:
            t = c.create_table("t")
            for i in range(400):
                t.put(k(i), b"w" * 64)
            flush_table(t)
            rows = list(t.scan(Scan()))
            assert len(rows) == 400
            st = c.block_cache.stats()
            assert st.evictions > 0
            assert st.bytes <= 8192
