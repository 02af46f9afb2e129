"""Unit tests for the Redis stand-in and the shape index cache."""

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
        assert r.hget("h", "f1") == b"1"
        assert r.hgetall("h") == {"f1": b"1", "f2": b"2"}
        assert r.hlen("h") == 2

    def test_hdel(self):
        r = RedisServer()
        r.hset("h", "f", b"1")
        assert r.hdel("h", "f") == 1
        assert r.hgetall("h") == {}

    def test_keys_pattern(self):
        r = RedisServer()
        r.set("a:1", b"")
        r.set("a:2", b"")
        r.set("b:1", b"")
        assert r.keys("a:*") == ["a:1", "a:2"]

    def test_flushall(self):
        r = RedisServer()
        r.set("k", b"v")
        r.hset("h", "f", b"v")
        r.flushall()
        assert r.keys() == []

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

    def test_known_elements(self):
        cache = ShapeIndexCache()
        cache.put_mapping(3, {1: 0})
        cache.put_mapping(10, {1: 0})
        assert cache.known_elements() == [3, 10]

    def test_clear_local_keeps_remote(self):
        cache = ShapeIndexCache()
        cache.put_mapping(1, {1: 0})
        cache.clear_local()
        assert cache.get_mapping(1) == {1: 0}

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
            try:
                for i in range(3000):
                    assert cache.get_mapping(i % 8) == {1: i % 8}
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_shared_redis_between_instances(self):
        redis = RedisServer()
        a = ShapeIndexCache(redis)
        b = ShapeIndexCache(redis)
        a.put_mapping(1, {7: 0})
        assert b.get_mapping(1) == {7: 0}


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
