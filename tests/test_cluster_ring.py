"""Consistent-hash ring: determinism, balance, minimal movement."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cluster.ring import ConsistentHashRing, stable_hash

NODES = ["node-0", "node-1", "node-2", "node-3"]


def _store_ids(n: int) -> list[str]:
    return [f"table/region-{i:04d}" for i in range(n)]


def test_stable_hash_is_process_independent():
    # blake2b, not hash(): placement must survive restarts and differing
    # PYTHONHASHSEED values across coordinator processes.
    assert stable_hash("node-0#0") == stable_hash("node-0#0")
    assert stable_hash("a") != stable_hash("b")


def test_preference_deterministic_and_distinct():
    ring = ConsistentHashRing(NODES)
    for sid in _store_ids(50):
        pref = ring.preference(sid, 3)
        assert pref == ring.preference(sid, 3)
        assert len(pref) == len(set(pref)) == 3
        assert all(node in NODES for node in pref)
        assert ring.primary(sid) == pref[0]


def test_preference_capped_at_member_count():
    ring = ConsistentHashRing(["a", "b"])
    assert len(ring.preference("x", 5)) == 2


def test_distribution_roughly_balanced():
    ring = ConsistentHashRing(NODES)
    owners = Counter(ring.primary(sid) for sid in _store_ids(2000))
    assert set(owners) == set(NODES)
    for count in owners.values():
        # 2000/4 = 500 expected; 64 vnodes keeps the spread well inside 2x.
        assert 200 < count < 1000


def test_add_node_moves_about_one_nth():
    ring = ConsistentHashRing(NODES)
    sids = _store_ids(2000)
    before = {sid: ring.primary(sid) for sid in sids}
    ring.add_node("node-4")
    moved = sum(1 for sid in sids if ring.primary(sid) != before[sid])
    # Ideal is 2000/5 = 400; consistent hashing should stay near it, and
    # must be nowhere near the ~1600 a modulo rehash would move.
    assert 100 < moved < 800


def test_duplicate_add_rejected():
    ring = ConsistentHashRing(["a"])
    with pytest.raises(ValueError):
        ring.add_node("a")


def test_empty_ring_rejects_lookups():
    ring = ConsistentHashRing()
    assert len(ring) == 0
    with pytest.raises(ValueError):
        ring.preference("x", 2)
