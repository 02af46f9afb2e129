"""Unit tests for regions, tables, clusters, scans, and filters."""

import pytest

from repro.kvstore import Cluster, PrefixFilter, Scan, TrueFilter
from repro.kvstore.errors import TableExistsError, TableNotFoundError
from repro.kvstore.filters import FilterChain, KeyRangeFilter
from repro.kvstore.lsm import LSMStore
from repro.kvstore.region import Region
from repro.kvstore.stats import IOStats


def k(i):
    return i.to_bytes(4, "big")


class TestRegion:
    def test_owns_respects_bounds(self):
        r = Region(k(10), k(20), IOStats(), LSMStore())
        assert r.owns(k(10)) and r.owns(k(19))
        assert not r.owns(k(9)) and not r.owns(k(20))

    def test_unbounded_region_owns_everything(self):
        r = Region(None, None, IOStats(), LSMStore())
        assert r.owns(b"") and r.owns(b"\xff" * 8)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            Region(k(5), k(5), IOStats(), LSMStore())

    def test_scan_counts_rows(self):
        stats = IOStats()
        r = Region(None, None, stats, LSMStore(stats))
        for i in range(10):
            r.put(k(i), b"v")
        rows = list(r.execute_scan(Scan(k(2), k(8))))
        assert len(rows) == 6
        snap = stats.snapshot()
        assert snap.rows_scanned == 6 and snap.rows_returned == 6
        assert snap.range_scans == 1

    def test_pushdown_filter_reduces_returned_not_scanned(self):
        stats = IOStats()
        r = Region(None, None, stats, LSMStore(stats))
        for i in range(10):
            r.put(k(i), b"even" if i % 2 == 0 else b"odd")

        class EvenFilter(TrueFilter):
            def test(self, key, value):
                return value == b"even"

        rows = list(r.execute_scan(Scan(server_filter=EvenFilter())))
        snap = stats.snapshot()
        assert len(rows) == 5
        assert snap.rows_scanned == 10 and snap.rows_returned == 5


class TestTable:
    def test_put_get_roundtrip(self):
        c = Cluster(workers=1)
        t = c.create_table("t")
        t.put(k(1), b"v1")
        assert t.get(k(1)) == b"v1"
        assert t.get(k(2)) is None

    def test_delete(self):
        c = Cluster(workers=1)
        t = c.create_table("t")
        t.put(k(1), b"v")
        t.delete(k(1))
        assert t.get(k(1)) is None

    def test_auto_split_preserves_scan(self):
        c = Cluster(workers=1, split_rows=50)
        t = c.create_table("t")
        for i in range(500):
            t.put(k(i), b"v%d" % i)
        assert len(t.regions) > 1
        rows = list(t.scan(Scan()))
        assert [key for key, _ in rows] == [k(i) for i in range(500)]

    def test_scan_spanning_region_boundary(self):
        c = Cluster(workers=1, split_rows=20)
        t = c.create_table("t")
        for i in range(200):
            t.put(k(i), b"v")
        got = [key for key, _ in t.scan(Scan(k(50), k(150)))]
        assert got == [k(i) for i in range(50, 150)]

    def test_get_routes_after_split(self):
        c = Cluster(workers=1, split_rows=20)
        t = c.create_table("t")
        for i in range(100):
            t.put(k(i), b"v%d" % i)
        for i in range(100):
            assert t.get(k(i)) == b"v%d" % i

    def test_parallel_scan_matches_sequential(self):
        c = Cluster(workers=4, split_rows=20)
        t = c.create_table("t")
        for i in range(300):
            t.put(k(i), b"v")
        seq = list(t.scan(Scan(k(10), k(250))))
        par = t.parallel_scan(Scan(k(10), k(250)))
        assert iter(par) is par  # lazy: a streaming iterator, not a list
        assert list(par) == seq
        c.close()

    def test_scan_limit_across_regions(self):
        c = Cluster(workers=1, split_rows=20)
        t = c.create_table("t")
        for i in range(100):
            t.put(k(i), b"v")
        assert len(list(t.scan(Scan(limit=55)))) == 55


class TestCluster:
    def test_create_duplicate_raises(self):
        c = Cluster(workers=1)
        c.create_table("t")
        with pytest.raises(TableExistsError):
            c.create_table("t")

    def test_if_not_exists_returns_same(self):
        c = Cluster(workers=1)
        t1 = c.create_table("t")
        assert c.create_table("t", if_not_exists=True) is t1

    def test_missing_table_raises(self):
        with pytest.raises(TableNotFoundError):
            Cluster(workers=1).table("nope")

    def test_drop_table(self):
        c = Cluster(workers=1)
        c.create_table("t")
        c.drop_table("t")
        assert not c.has_table("t")

    def test_context_manager_closes(self):
        with Cluster(workers=2) as c:
            c.create_table("t").put(b"k", b"v")


class TestFilters:
    def test_prefix_filter(self):
        f = PrefixFilter(b"ab")
        assert f.test(b"abc", b"") and not f.test(b"ba", b"")

    def test_key_range_filter(self):
        f = KeyRangeFilter(b"b", b"d")
        assert f.test(b"b", b"") and f.test(b"c", b"")
        assert not f.test(b"a", b"") and not f.test(b"d", b"")

    def test_chain_flattens_and_ands(self):
        chain = FilterChain([PrefixFilter(b"a"), FilterChain([KeyRangeFilter(b"a", b"b")])])
        assert len(chain.filters) == 2
        assert chain.test(b"ab", b"")
        assert not chain.test(b"b", b"")

    def test_and_operator(self):
        f = PrefixFilter(b"a") & KeyRangeFilter(None, b"am")
        assert f.test(b"ab", b"") and not f.test(b"az", b"")


class TestStats:
    def test_snapshot_subtraction(self):
        stats = IOStats()
        stats.add(rows_scanned=10, bytes_transferred=100)
        before = stats.snapshot()
        stats.add(rows_scanned=5)
        delta = stats.snapshot() - before
        assert delta.rows_scanned == 5 and delta.bytes_transferred == 0

    def test_reset(self):
        stats = IOStats()
        stats.add(rows_scanned=3)
        stats.reset()
        assert stats.snapshot().rows_scanned == 0
