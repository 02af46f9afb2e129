"""Unit tests for the LFU cache."""

import pytest

from repro.cache import LFUCache


class TestBasics:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            LFUCache(0)

    def test_put_get(self):
        c = LFUCache(2)
        c.put("a", 1)
        assert c.get("a") == 1

    def test_miss_returns_none_and_counts(self):
        c = LFUCache(2)
        assert c.get("x") is None
        assert c.misses == 1 and c.hits == 0

    def test_update_existing(self):
        c = LFUCache(2)
        c.put("a", 1)
        c.put("a", 2)
        assert c.get("a") == 2
        assert len(c) == 1

    def test_peek_does_not_count(self):
        c = LFUCache(2)
        c.put("a", 1)
        c.peek("a")
        c.peek("b")
        assert c.hits == 0 and c.misses == 0


class TestEviction:
    def test_evicts_least_frequent(self):
        c = LFUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        c.get("a")
        c.get("a")
        c.put("c", 3)  # b has the lowest frequency
        assert "b" not in c
        assert "a" in c and "c" in c
        assert c.evictions == 1

    def test_ties_broken_by_lru(self):
        c = LFUCache(2)
        c.put("a", 1)
        c.put("b", 2)
        # Both at frequency 1; a is older.
        c.put("c", 3)
        assert "a" not in c and "b" in c

    def test_eviction_respects_capacity(self):
        c = LFUCache(5)
        for i in range(100):
            c.put(i, i)
        assert len(c) == 5

    def test_frequent_items_survive_churn(self):
        c = LFUCache(3)
        c.put("hot", 1)
        for _ in range(10):
            c.get("hot")
        for i in range(50):
            c.put(i, i)
        assert "hot" in c


class TestInvalidate:
    """Whole-cache invalidation (``clear``)."""

    def test_clear(self):
        c = LFUCache(3)
        for i in range(3):
            c.put(i, i)
        c.clear()
        assert len(c) == 0
        c.put("x", 1)  # still usable
        assert c.get("x") == 1
