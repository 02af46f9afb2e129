"""The per-region multi-range cursor.

Every engine's ``scan_windows`` must equal the concatenation of its
per-window ``scan``s, and the durable engine's ``get_batch`` must equal
per-key ``get``s, over overwrites and tombstones spread across every
level.  The table layer reads a region's window run with one cursor:
resumable after a transient failure, lazily opened, and exact for
windows that straddle a region boundary.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore import Cluster, Scan
from repro.kvstore.block_cache import BlockCache
from repro.kvstore.durable import DurableLSMStore
from repro.kvstore.errors import TransientRPCError
from repro.kvstore.lsm import LSMStore
from repro.kvstore.memtable import TOMBSTONE
from repro.kvstore.sstable import SPARSE_EVERY, SSTable, write_sstable
from repro.kvstore.stats import IOStats

KEY_SPACE = 150  # > 4 sparse blocks of SPARSE_EVERY records


def key(i: int) -> bytes:
    return b"k%04d" % i


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["put", "put", "delete"]),
        st.integers(0, KEY_SPACE - 1),
        st.binary(min_size=1, max_size=12).filter(lambda v: v != TOMBSTONE),
    ),
    # Enough writes for several flushes, so keys repeat across levels.
    min_size=80,
    max_size=300,
)


@st.composite
def window_lists(draw):
    """Sorted, disjoint windows: empty ones, ones past the last key, and
    ``None`` bounds at either end."""
    points = sorted(draw(st.lists(st.integers(0, KEY_SPACE + 20), min_size=2, max_size=24)))
    windows = [(key(a), key(b)) for a, b in zip(points[::2], points[1::2])]
    if draw(st.booleans()):
        windows[0] = (None, windows[0][1])
    if draw(st.booleans()):
        windows[-1] = (windows[-1][0], None)
    return windows


class _Parked:
    """A flusher that never runs: frozen memtables stay frozen."""

    def submit(self, fn, *args):
        return None


def _apply(store, ops, model):
    for op, i, value in ops:
        if op == "put":
            store.put(key(i), value)
            model[key(i)] = value
        else:
            store.delete(key(i))
            model.pop(key(i), None)


def _memory_store(ops, model):
    """Ops spread over SSTables, frozen memtables and the active memtable."""
    store = LSMStore(flush_bytes=200, max_tables=64)
    third = len(ops) // 3
    _apply(store, ops[:third], model)
    store._flusher = _Parked()
    _apply(store, ops[third:], model)
    return store


def _durable_store(path, ops, model, cache, reopen):
    store = DurableLSMStore(path, flush_bytes=300, max_tables=64, block_cache=cache)
    _apply(store, ops, model)
    if reopen:
        store.close()
        store = DurableLSMStore(path, block_cache=cache)
    return store


def _expected(model, windows):
    return [
        (k, model[k])
        for start, stop in windows
        for k in sorted(model)
        if (start is None or k >= start) and (stop is None or k < stop)
    ]


def _check_windows(store, model, windows):
    got = list(store.scan_windows(windows))
    assert got == [row for w in windows for row in store.scan(*w)]
    assert got == _expected(model, windows)


@given(ops=ops_strategy, windows=window_lists())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_memory_engine_scan_windows_matches_per_window_scans(ops, windows):
    model: dict[bytes, bytes] = {}
    store = _memory_store(ops, model)
    _check_windows(store, model, windows)


@pytest.mark.parametrize("cache", [False, True], ids=["plain", "cached"])
@pytest.mark.parametrize("reopen", [False, True], ids=["fresh", "reopened"])
@given(ops=ops_strategy, windows=window_lists(), seed=st.integers(0, 1000))
@settings(derandomize=True, max_examples=25, deadline=None)
def test_durable_engine_scan_windows_and_get_batch(
    tmp_path_factory, cache, reopen, ops, windows, seed
):
    model: dict[bytes, bytes] = {}
    # Tiny blocks so record spans cross block boundaries.
    block_cache = BlockCache(1 << 16, block_bytes=64) if cache else None
    store = _durable_store(
        tmp_path_factory.mktemp("durable") / "db", ops, model, block_cache, reopen
    )
    try:
        _check_windows(store, model, windows)
        # Every key, unsorted, some duplicated, some never written.
        keys = [key(i) for i in range(KEY_SPACE + 5)] + [key(i) for i in range(0, 40, 3)]
        random.Random(seed).shuffle(keys)
        assert store.get_batch(keys) == [store.get(k) for k in keys]
        assert store.get_batch(keys) == [model.get(k) for k in keys]
    finally:
        store.close()


def _disk_table(path, n, stats=None, cache=None):
    write_sstable(path, [(key(i), b"v%d" % i) for i in range(n)])
    return SSTable(path, stats, block_cache=cache)


class TestDiskCursor:
    def test_windows_inside_one_sparse_block_parse_it_once(self, tmp_path):
        stats = IOStats()
        table = _disk_table(tmp_path / "t.sst", 4 * SPARSE_EVERY, stats)
        picks = range(3, SPARSE_EVERY - 3, 4)
        windows = [(key(i), key(i + 1)) for i in picks]
        got = list(table.scan_windows(windows))
        assert got == [(key(i), b"v%d" % i) for i in picks]
        # One forward pass from the block's first record to the lookahead
        # after the last window: records 0 .. picks[-1] + 1, each once.
        assert stats.snapshot().block_reads == picks[-1] + 2

    def test_cursor_parses_each_record_at_most_once(self, tmp_path):
        stats = IOStats()
        n = 10 * SPARSE_EVERY
        table = _disk_table(tmp_path / "t.sst", n, stats, BlockCache(1 << 20))
        windows = [(key(i), key(i + 1)) for i in range(0, n, 3)]
        assert [k for k, _ in table.scan_windows(windows)] == [w[0] for w in windows]
        batched = stats.snapshot().block_reads
        assert batched <= n
        stats.reset()
        for w in windows:
            list(table.scan(*w))
        assert stats.snapshot().block_reads > 3 * batched

    @pytest.mark.parametrize("reopened", [False, True])
    def test_overlaps_is_exact(self, tmp_path, reopened):
        table = _disk_table(tmp_path / "t.sst", 100)
        if reopened:
            table = SSTable(tmp_path / "t.sst")
        assert table.max_key == key(99)
        assert table.overlaps(key(99), None)
        assert not table.overlaps(key(100), None)
        assert not table.overlaps(key(99) + b"\x00", key(200))
        assert table.overlaps(None, key(1))
        assert not table.overlaps(None, key(0))

    def test_window_list_past_the_table_opens_no_reader(self, tmp_path, monkeypatch):
        stats = IOStats()
        table = _disk_table(tmp_path / "t.sst", 50, stats)

        def no_cursor(*args, **kwargs):
            raise AssertionError("a reader was opened")

        monkeypatch.setattr(table, "_cursor", no_cursor)
        assert list(table.scan_windows([(key(60), key(70)), (key(80), None)])) == []
        assert stats.snapshot().block_reads == 0


# -- table layer ---------------------------------------------------------------


@pytest.mark.parametrize("durable", [False, True])
def test_overlapping_and_unsorted_windows_keep_window_order(tmp_path, durable):
    """Windows that overlap or go backwards start a new region run, so
    every window yields its own rows, in window order."""
    cluster = Cluster(workers=4, data_dir=(tmp_path / "db") if durable else None)
    try:
        table = cluster.create_table("t")
        table.put_batch([(key(i), b"v%d" % i) for i in range(100)])
        table.flush()
        windows = [(key(10), key(30)), (key(20), key(40)), (key(5), key(8)), (key(90), None)]
        expected = [key(i) for a, b in [(10, 30), (20, 40), (5, 8), (90, 100)] for i in range(a, b)]
        assert [k for k, _ in table.multi_range_scan(windows)] == expected
    finally:
        cluster.close()


def _populated(n=600, workers=4, split_rows=100):
    cluster = Cluster(workers=workers, split_rows=split_rows)
    table = cluster.create_table("t")
    table.put_batch([(key(i), b"v%d" % i) for i in range(n)])
    return cluster, table


class _FailOnce:
    """Engine proxy: the first cursor raises a transient RPC error after
    ``after`` rows; every later cursor is the real one."""

    def __init__(self, store, after):
        self._store = store
        self._after = after
        self.opened = 0

    def __getattr__(self, name):
        return getattr(self._store, name)

    def scan_windows(self, windows, deadline=None):
        self.opened += 1
        rows = self._store.scan_windows(windows, deadline)
        if self.opened > 1:
            return rows
        return self._fail_after(rows)

    def _fail_after(self, rows):
        yield from itertools.islice(rows, self._after)
        raise TransientRPCError("injected mid-cursor fault")


class _Recording:
    """Engine proxy recording which regions opened a cursor."""

    def __init__(self, store, region_index, opened):
        self._store = store
        self._index = region_index
        self._opened = opened

    def __getattr__(self, name):
        return getattr(self._store, name)

    def scan_windows(self, windows, deadline=None):
        self._opened.append(self._index)
        return self._store.scan_windows(windows, deadline)


WINDOWS = [(key(i), key(i + 7)) for i in range(0, 600, 10)]


@pytest.mark.parametrize("workers", [1, 4])
def test_transient_error_mid_cursor_resumes_byte_identically(workers):
    cluster, table = _populated(workers=workers)
    try:
        clean = list(table.multi_range_scan(WINDOWS))
        for region in table.regions:
            region._store = _FailOnce(region._store, after=5)
        assert list(table.multi_range_scan(WINDOWS)) == clean
        assert all(region._store.opened == 2 for region in table.regions)
    finally:
        cluster.close()


def test_closing_after_k_rows_never_opens_a_later_regions_cursor():
    cluster, table = _populated(workers=2, split_rows=50)
    try:
        assert len(table.regions) >= 6
        opened: list[int] = []
        for i, region in enumerate(table.regions):
            region._store = _Recording(region._store, i, opened)
        rows = table.multi_range_scan(WINDOWS)
        head = [next(rows) for _ in range(3)]
        rows.close()
        assert head == [(key(i), b"v%d" % i) for i in range(3)]
        # The head run plus at most one follower admitted by its first chunk.
        assert set(opened) <= {0, 1}
    finally:
        cluster.close()


@pytest.mark.parametrize("workers", [1, 4])
def test_window_straddling_region_boundaries_is_read_exactly_once(workers):
    cluster, table = _populated(workers=workers)
    try:
        boundaries = [region.start_key for region in table.regions[1:]]
        assert len(boundaries) >= 3
        lo = int(boundaries[0][1:]) - 5
        hi = int(boundaries[2][1:]) + 5
        windows = [(key(0), key(2)), (key(lo), key(hi)), (key(hi + 1), key(hi + 2))]
        before = cluster.stats.snapshot()
        got = [k for k, _ in table.multi_range_scan(windows)]
        delta = cluster.stats.snapshot() - before
        assert got == [key(i) for i in [0, 1, *range(lo, hi), hi + 1]]
        # One seek per (window, region) piece: 1 + 4 + 1.
        assert delta.range_scans == 6
        assert delta.rows_scanned == len(got)
    finally:
        cluster.close()


def test_region_counts_one_seek_per_window_reached():
    cluster, table = _populated(n=200, workers=1, split_rows=10_000)
    try:
        region = table.regions[0]
        windows = [(key(i), key(i + 2)) for i in range(0, 200, 20)]
        before = cluster.stats.snapshot()
        rows = region.execute_scan(Scan(), windows)
        assert [next(rows) for _ in range(3)][-1][0] == key(20)
        rows.close()
        delta = cluster.stats.snapshot() - before
        assert (delta.range_scans, delta.rows_scanned) == (2, 3)
        before = cluster.stats.snapshot()
        assert len(list(region.execute_scan(Scan(), windows))) == 20
        assert (cluster.stats.snapshot() - before).range_scans == len(windows)
    finally:
        cluster.close()
