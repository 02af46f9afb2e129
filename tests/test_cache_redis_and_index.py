"""Unit tests for the Redis stand-in and the shape index cache."""

import numpy as np
import pytest

from repro.cache import BufferShapeCache, RedisServer, ShapeIndexCache


class TestRedisServer:
    def test_string_ops(self):
        r = RedisServer()
        r.set("k", b"v")
        assert r.get("k") == b"v"
        assert r.get("missing") is None

    def test_delete(self):
        r = RedisServer()
        r.set("k", b"v")
        assert r.delete("k") == 1
        assert r.delete("k") == 0

    def test_hash_ops(self):
        r = RedisServer()
        r.hset("h", "f1", b"1")
        r.hset("h", "f2", b"2")
        assert r.hgetall("h") == {"f1": b"1", "f2": b"2"}

    def test_keys_pattern(self):
        r = RedisServer()
        r.set("a:1", b"")
        r.set("a:2", b"")
        r.set("b:1", b"")
        assert r.keys("a:*") == ["a:1", "a:2"]

    def test_ops_counter(self):
        r = RedisServer()
        r.set("k", b"v")
        r.get("k")
        assert r.ops == 2


class TestShapeIndexCache:
    def test_put_get_mapping(self):
        cache = ShapeIndexCache()
        cache.put_mapping(42, {0b101: 0, 0b110: 1})
        assert cache.get_mapping(42) == {0b101: 0, 0b110: 1}

    def test_missing_element_is_none(self):
        assert ShapeIndexCache().get_mapping(99) is None

    def test_lookup_final_code(self):
        cache = ShapeIndexCache()
        cache.put_mapping(7, {3: 0, 5: 1})
        assert cache.lookup_final_code(7, 5) == 1
        assert cache.lookup_final_code(7, 9) is None

    def test_remote_fallback_after_local_eviction(self):
        cache = ShapeIndexCache(local_capacity=1)
        cache.put_mapping(1, {1: 0})
        cache.put_mapping(2, {2: 0})  # evicts element 1 locally
        assert cache.get_mapping(1) == {1: 0}
        assert cache.remote_fetches >= 1

    def test_add_shape_appends(self):
        cache = ShapeIndexCache()
        cache.put_mapping(5, {1: 0})
        cache.add_shape(5, 2, 1)
        assert cache.get_mapping(5) == {1: 0, 2: 1}

    def test_directory_follows_the_two_writers(self):
        cache = ShapeIndexCache()
        assert cache.directory().tolist() == []
        cache.put_mapping(10, {1: 0})
        cache.put_mapping(3, {1: 0})
        assert cache.directory().tolist() == [3, 10]
        cache.add_shape(3, 2, 1)  # known element: the directory is unchanged
        cache.add_shape(7, 1, 1)  # new element (an insert's raw shape)
        directory = cache.directory()
        assert directory.dtype == np.int64 and directory.tolist() == [3, 7, 10]
        # Own writes are tracked locally: a read is one generation check.
        before = cache.remote_fetches
        assert cache.directory() is directory
        assert cache.remote_fetches == before + 1

    def test_round_trip_counters_agree(self):
        """``remote_fetches`` and ``cache_redis_roundtrips_total`` count the
        same event: every read round trip, empty answers included."""
        from repro.obs import registry

        cache = ShapeIndexCache(local_capacity=1)
        total = registry().get("cache_redis_roundtrips_total")
        before = total.value
        cache.put_mapping(1, {1: 0})
        cache.put_mapping(2, {2: 0})  # evicts element 1 locally
        assert cache.get_mapping(1) == {1: 0}  # HGETALL
        assert cache.get_mapping(99) is None  # HGETALL, empty
        cache.directory()  # generation check + key listing
        assert cache.remote_fetches == 4 == total.value - before
        assert cache.stats().remote_fetches == 4

    def test_concurrent_readers_do_not_corrupt_the_lfu(self):
        # Queries on many threads share one cache; an unlocked LFU touch
        # (several dict updates) loses an update and raises KeyError.
        import sys
        import threading

        cache = ShapeIndexCache(local_capacity=4)
        for element in range(8):  # twice the capacity: hits, misses, evictions
            cache.put_mapping(element, {1: element})
        errors = []

        def read():
            # Every directory a reader sees is sorted, holds the elements
            # published before the read and never loses one it held.
            try:
                seen = 8
                for i in range(3000):
                    assert cache.get_mapping(i % 8) == {1: i % 8}
                    if i % 10 == 0:
                        directory = cache.directory().tolist()
                        assert directory == sorted(set(directory))
                        assert directory[:8] == list(range(8))
                        assert len(directory) >= seen
                        seen = len(directory)
            except BaseException as exc:
                errors.append(exc)

        def write():
            try:
                for element in range(100, 400):
                    cache.add_shape(element, 1, 1)
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.directory().tolist() == list(range(8)) + list(range(100, 400))

    def test_listing_never_drops_an_element_merged_meanwhile(self, monkeypatch):
        """Reader A lists the keys; before A merges its listing, another
        reader merges, an element is published, and a third reader merges
        that element.  A's listing predates the element, yet the directory
        A leaves behind (and returns) must still hold it."""
        cache = ShapeIndexCache()
        cache.put_mapping(1, {1: 0})
        cache.put_mapping(2, {1: 0})  # two publishes: the array is stale
        real_keys = cache.redis.keys
        listings = []

        def keys(pattern):
            listed = real_keys(pattern)
            listings.append(listed)
            if len(listings) == 1:  # reader A, between its keys() and merge
                assert cache.directory().tolist() == [1, 2]  # reader B lists
                cache.add_shape(9, 1, 0)
                assert cache.directory().tolist() == [1, 2, 9]  # merges 9
            return listed

        monkeypatch.setattr(cache.redis, "keys", keys)
        assert cache.directory().tolist() == [1, 2, 9]  # reader A
        assert len(listings) == 2 and "tshape:elem:9" not in listings[0]
        assert cache.directory().tolist() == [1, 2, 9]
        assert len(listings) == 2  # the merged array is current: no relisting

    def test_shared_redis_between_instances(self):
        redis = RedisServer()
        a = ShapeIndexCache(redis)
        b = ShapeIndexCache(redis)
        a.put_mapping(1, {7: 0})
        assert b.get_mapping(1) == {7: 0}
        assert b.directory().tolist() == [1]
        # b's directory is loaded; a's later elements must still reach it.
        a.add_shape(5, 3, 3)
        b.put_mapping(9, {1: 0})
        assert a.directory().tolist() == b.directory().tolist() == [1, 5, 9]

    def test_second_deployment_on_shared_redis_answers_a_full_srq(self):
        """Two facades over one cluster and one Redis: the reader's directory
        was loaded (empty) before the writer stored anything."""
        from repro import TMan, TManConfig
        from repro.datasets import TDRIVE_SPEC, tdrive_like
        from repro.kvstore.cluster import Cluster

        data = tdrive_like(80, seed=31, max_points=20)
        config = TManConfig(
            boundary=TDRIVE_SPEC.boundary, max_resolution=12, num_shards=2,
            kv_workers=1, buffer_shape_threshold=100_000,
        )
        redis = RedisServer()
        with Cluster(workers=1) as cluster:
            writer = TMan(config, cluster=cluster, redis=redis)
            reader = TMan(config, cluster=cluster, redis=redis)
            window = TDRIVE_SPEC.boundary
            assert reader.spatial_range_query(window).trajectories == []
            writer.bulk_load(data[:60])
            got = {t.tid for t in reader.spatial_range_query(window).trajectories}
            assert got == {t.tid for t in data[:60]}
            writer.insert(data[60:])  # add_shape on elements new to both
            for target in data:
                res = reader.spatial_range_query(target.mbr)
                assert target.tid in {t.tid for t in res.trajectories}


class TestBufferShapeCache:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            BufferShapeCache(0)

    def test_add_returns_false_below_threshold(self):
        buf = BufferShapeCache(threshold=3)
        assert not buf.add(1, 0b01)
        assert not buf.add(1, 0b10)

    def test_add_returns_true_at_threshold(self):
        buf = BufferShapeCache(threshold=2)
        buf.add(1, 1)
        assert buf.add(2, 1)

    def test_duplicates_not_counted(self):
        buf = BufferShapeCache(threshold=2)
        buf.add(1, 5)
        assert not buf.add(1, 5)
        assert len(buf) == 1

    def test_contains(self):
        buf = BufferShapeCache(threshold=10)
        buf.add(3, 7)
        assert buf.contains(3, 7)
        assert not buf.contains(3, 8)

    def test_drain_clears(self):
        buf = BufferShapeCache(threshold=10)
        buf.add(1, 1)
        buf.add(2, 2)
        drained = buf.drain()
        assert drained == {1: {1}, 2: {2}}
        assert len(buf) == 0
        assert buf.pending_elements() == []
