"""Streaming multi-range scans: laziness, merged order, early termination.

``Table.multi_range_scan`` is the query path's read; a caller that wants
fewer rows takes them with ``itertools.islice`` and closes the stream.
"""

import itertools

import pytest

import repro.kvstore.table as table_module
from repro.kvstore import Cluster, Scan
from repro.kvstore.filters import Filter


def k(i):
    return i.to_bytes(4, "big")


def build_table(workers=4, split_rows=100, rows=600):
    c = Cluster(workers=workers, split_rows=split_rows)
    t = c.create_table("t")
    for i in range(rows):
        t.put(k(i), b"v%d" % i)
    return c, t


def limited(table, n, windows=((None, None),), **kwargs):
    """The first ``n`` rows of a multi-range scan; the stream is closed."""
    rows = table.multi_range_scan(list(windows), **kwargs)
    try:
        return list(itertools.islice(rows, n))
    finally:
        rows.close()


class EvenKeyFilter(Filter):
    def test(self, key, value):
        return int.from_bytes(key, "big") % 2 == 0


class TestStreamingParallelScan:
    def test_returns_lazy_iterator(self):
        c, t = build_table()
        it = t.multi_range_scan([(None, None)])
        assert iter(it) is it
        assert not isinstance(it, list)
        it.close()
        c.close()

    def test_merge_matches_sequential_order(self):
        c, t = build_table()
        assert len(t.regions) >= 3
        seq = list(t.scan(Scan(k(10), k(550))))
        par = list(t.multi_range_scan([(k(10), k(550))]))
        assert par == seq
        c.close()

    def test_limit_applied_exactly_once_across_regions(self):
        """The limit caps the *merged* output, not each region's share."""
        c, t = build_table()
        assert len(t.regions) >= 3
        full = list(t.scan(Scan()))
        assert limited(t, 37) == full[:37]
        c.close()

    def test_limit_counts_filtered_rows_once(self):
        """With a push-down filter, the limit caps surviving rows."""
        c, t = build_table()
        got = limited(t, 20, row_filter=EvenKeyFilter())
        assert [int.from_bytes(key, "big") for key, _ in got] == list(range(0, 40, 2))
        c.close()

    def test_limit_zero_returns_nothing(self):
        c, t = build_table()
        assert limited(t, 0) == []
        assert list(t.scan(Scan(limit=0))) == []
        c.close()

    def test_sequential_fallback_without_executor(self):
        c, t = build_table(workers=1)
        seq = list(t.scan(Scan()))
        assert limited(t, 11) == seq[:11]
        c.close()

    def test_batch_rows_hint_respected(self, monkeypatch):
        monkeypatch.setattr(table_module, "DEFAULT_BATCH_ROWS", 7)
        c, t = build_table()
        seq = list(t.scan(Scan()))
        got = list(t.multi_range_scan([(None, None)]))
        assert got == seq
        c.close()


class TestEarlyTermination:
    @pytest.fixture(autouse=True)
    def small_batches(self, monkeypatch):
        monkeypatch.setattr(table_module, "DEFAULT_BATCH_ROWS", 8)

    def test_limited_scan_touches_fewer_rows_than_full(self):
        """A limited stream over >=3 regions scans strictly fewer rows than a
        full materialized scan (the streaming merge stops pulling)."""
        c, t = build_table(rows=600, split_rows=100)
        assert len(t.regions) >= 3

        before = c.stats.snapshot()
        list(t.scan(Scan()))
        full_scanned = (c.stats.snapshot() - before).rows_scanned
        assert full_scanned == 600

        before = c.stats.snapshot()
        got = limited(t, 5)
        limited_scanned = (c.stats.snapshot() - before).rows_scanned
        assert len(got) == 5
        assert limited_scanned < full_scanned
        c.close()

    def test_abandoned_iterator_stops_scanning(self):
        """Dropping the iterator mid-scan releases the region streams and
        leaves the scan bounded (at most one in-flight chunk per region)."""
        c, t = build_table(rows=600, split_rows=100)
        before = c.stats.snapshot()
        it = t.multi_range_scan([(None, None)])
        for _ in range(3):
            next(it)
        it.close()
        scanned = (c.stats.snapshot() - before).rows_scanned
        assert scanned < 600
        c.close()

    def test_closed_iterator_is_reusable_cluster(self):
        """After an early-terminated scan the table still serves reads."""
        c, t = build_table(rows=300, split_rows=50)
        assert len(limited(t, 2)) == 2
        assert t.get(k(123)) == b"v123"
        assert len(list(t.multi_range_scan([(None, None)]))) == 300
        c.close()
