"""Tests for the multi-range scan scheduler, Table.multi_range_scan and
Table.multi_get."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.kvstore import Cluster, Scan
from repro.kvstore.scheduler import (
    INITIAL_CHUNK_ROWS,
    ChunkedStream,
    scan_scheduled,
)


def k(i):
    return i.to_bytes(4, "big")


@pytest.fixture()
def pool():
    with ThreadPoolExecutor(max_workers=4) as ex:
        yield ex


class TestChunkedStream:
    def test_yields_everything_in_order(self, pool):
        items = list(range(1000))
        stream = ChunkedStream(pool, iter(items), batch=64)
        assert list(stream) == items

    def test_chunk_size_ramp(self, pool, monkeypatch):
        import repro.kvstore.scheduler as sched

        sizes = []
        real_next_chunk = sched.next_chunk

        def spy(gen, batch):
            sizes.append(batch)
            return real_next_chunk(gen, batch)

        monkeypatch.setattr(sched, "next_chunk", spy)
        stream = ChunkedStream(
            pool, iter(range(2000)), batch=256, initial=INITIAL_CHUNK_ROWS
        )
        assert list(stream) == list(range(2000))
        # Slow start: 16, 64, then capped at batch_rows.
        assert sizes[0] == INITIAL_CHUNK_ROWS
        assert sizes[1] == INITIAL_CHUNK_ROWS * 4
        assert all(s == 256 for s in sizes[2:])

    def test_close_stops_generator(self, pool):
        closed = []

        def gen():
            try:
                yield from range(10_000)
            finally:
                closed.append(True)

        stream = ChunkedStream(pool, gen(), batch=16)
        it = iter(stream)
        assert next(it) == 0
        stream.close()
        assert closed == [True]

    def test_worker_failure_raised_and_counted(self, pool):
        from repro import obs

        def gen():
            yield 1
            raise RuntimeError("worker boom")

        before = obs.registry().get("kv_multirange_errors_total").value
        stream = ChunkedStream(pool, gen(), batch=1)
        it = iter(stream)
        assert next(it) == 1
        with pytest.raises(RuntimeError, match="worker boom"):
            list(it)
        after = obs.registry().get("kv_multirange_errors_total").value
        assert after == before + 1

    def test_failure_while_draining_closed_stream_is_counted(self, pool):
        # A chunk that fails after close() detached it has no consumer to
        # raise to; the drain path must count it instead of dropping it.
        import threading

        from repro import obs

        entered = threading.Event()
        release = threading.Event()

        def gen():
            entered.set()
            release.wait(5)
            raise RuntimeError("late boom")
            yield  # pragma: no cover - makes this a generator

        before = obs.registry().get("kv_multirange_errors_total").value
        stream = ChunkedStream(pool, gen(), batch=4)
        stream.start()
        assert entered.wait(5)  # the worker is inside the generator
        timer = threading.Timer(0.05, release.set)
        timer.start()
        try:
            stream.close()  # drains the in-flight chunk, which then fails
        finally:
            timer.cancel()
            release.set()
        after = obs.registry().get("kv_multirange_errors_total").value
        assert after == before + 1


class TestScanScheduled:
    def test_rows_in_window_order(self, pool):
        data = {i: list(range(i * 100, i * 100 + 37)) for i in range(6)}
        rows = list(
            scan_scheduled(lambda w: iter(data[w]), range(6), pool, batch=8)
        )
        assert rows == [v for i in range(6) for v in data[i]]

    def test_matches_serial_execution(self):
        def factory(w):
            return iter(range(w * 10, w * 10 + w))

        serial = [v for w in range(8) for v in range(w * 10, w * 10 + w)]
        # The admission width is the pool's; rows never depend on it.
        for workers in (1, 2, 3, 8):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                got = list(scan_scheduled(factory, range(8), pool, batch=4))
            assert got == serial

    def test_lazy_window_admission(self, pool):
        planned = []

        def factory(w):
            planned.append(w)
            return iter([w] * 100)

        gen = scan_scheduled(lambda w: factory(w), iter(range(50)), pool, batch=16)
        first = next(gen)
        assert first == 0
        gen.close()
        # Early close must not have planned (or scanned) anywhere near all
        # 50 runs — only the admitted head plus one follower per chunk taken.
        assert len(planned) < 8

    def test_no_more_live_streams_than_pool_workers(self):
        planned = []

        def factory(run):
            planned.append(run)
            return iter([run] * 1000)

        with ThreadPoolExecutor(max_workers=2) as pool:
            gen = scan_scheduled(factory, range(20), pool, batch=16)
            head = [next(gen) for _ in range(500)]
            gen.close()
        assert head == [0] * 500
        # Each chunk taken admits one more run, but only up to the width.
        assert planned == [0, 1]

    def test_empty_windows(self, pool):
        assert list(scan_scheduled(lambda w: iter(()), [], pool, batch=4)) == []

    def test_all_empty_scans(self, pool):
        rows = list(scan_scheduled(lambda w: iter(()), range(10), pool, batch=4))
        assert rows == []


def _populated(tmp_path, n=600, workers=4, split_rows=150, durable=False):
    c = Cluster(
        workers=workers,
        split_rows=split_rows,
        data_dir=(tmp_path / "db") if durable else None,
    )
    t = c.create_table("t")
    for i in range(n):
        t.put(k(i), b"val%06d" % i)
    return c, t


class TestMultiRangeScan:
    WINDOWS = [
        (k(0), k(40)),
        (k(40), k(90)),  # abuts the first
        (k(200), k(230)),
        (k(220), k(260)),  # overlaps the third
        (k(590), None),
        (k(300), k(300)),  # empty
    ]

    @pytest.mark.parametrize("durable", [False, True])
    def test_scheduled_matches_poolless(self, tmp_path, durable):
        # The table picks serial execution itself when it has no pool; the
        # rows must not depend on which path ran.
        from repro import obs

        by_mode = obs.registry().get("kv_multirange_scans_total")
        c, t = _populated(tmp_path / "pool", durable=durable)
        c1, t1 = _populated(tmp_path / "nopool", workers=1, durable=durable)
        try:
            for table in (t, t1):
                for region in table.regions:
                    region._store.flush()
            scheduled_before = by_mode.labels(mode="scheduled").value
            scheduled = list(t.multi_range_scan(self.WINDOWS))
            assert by_mode.labels(mode="scheduled").value == scheduled_before + 1
            assert len(scheduled) == 170  # overlapping windows repeat rows
            assert len(t.regions) > 1  # the split actually happened

            serial_before = by_mode.labels(mode="serial").value
            assert list(t1.multi_range_scan(self.WINDOWS)) == scheduled
            assert by_mode.labels(mode="serial").value == serial_before + 1
        finally:
            c.close()
            c1.close()

    def test_single_window_falls_back(self, tmp_path):
        c, t = _populated(tmp_path, n=100)
        try:
            rows = list(t.multi_range_scan([(k(10), k(20))]))
            assert [key for key, _ in rows] == [k(i) for i in range(10, 20)]
        finally:
            c.close()

    def test_no_pool_serial_fallback(self, tmp_path):
        c, t = _populated(tmp_path, workers=1)
        try:
            rows = list(t.multi_range_scan(self.WINDOWS))
            assert [key for key, _ in rows][:40] == [k(i) for i in range(40)]
        finally:
            c.close()

    def test_row_filter_applied_in_both_modes(self, tmp_path):
        from repro.kvstore.filters import PrefixFilter

        c, t = _populated(tmp_path / "pool", n=300)
        c1, t1 = _populated(tmp_path / "nopool", n=300, workers=1)
        try:
            flt = PrefixFilter(b"\x00\x00\x00")  # keys 0..255
            wins = [(k(0), k(100)), (k(250), k(280))]
            serial = list(t1.multi_range_scan(wins, row_filter=flt))
            sched = list(t.multi_range_scan(wins, row_filter=flt))
            assert sched == serial
            assert [key for key, _ in serial] == [k(i) for i in range(100)] + [
                k(i) for i in range(250, 256)
            ]
        finally:
            c.close()
            c1.close()

    def test_early_close_cancels(self, tmp_path):
        c, t = _populated(tmp_path)
        try:
            gen = t.multi_range_scan(
                [(k(i * 30), k(i * 30 + 30)) for i in range(20)]
            )
            head = [next(gen) for _ in range(5)]
            gen.close()
            assert [key for key, _ in head] == [k(i) for i in range(5)]
        finally:
            c.close()

    def test_lazy_windows_iterable(self, tmp_path):
        c, t = _populated(tmp_path)
        try:
            produced = []

            def windows():
                for i in range(100):
                    produced.append(i)
                    yield (k(i * 5), k(i * 5 + 5))

            gen = t.multi_range_scan(windows())
            next(gen)
            gen.close()
            # Windows are admitted in groups, so a few groups may be
            # planned ahead — but nowhere near all 100.
            assert len(produced) < 40
        finally:
            c.close()


class TestMultiGet:
    def test_values_in_input_order(self, tmp_path):
        c, t = _populated(tmp_path)
        try:
            keys = [k(500), k(3), k(999_999), k(123), k(3)]
            assert t.multi_get(keys) == [
                b"val000500",
                b"val000003",
                None,
                b"val000123",
                b"val000003",
            ]
        finally:
            c.close()

    def test_large_batch_across_regions(self, tmp_path):
        c, t = _populated(tmp_path)
        try:
            keys = [k(i) for i in range(0, 600, 7)]
            expected = [b"val%06d" % i for i in range(0, 600, 7)]
            assert t.multi_get(keys) == expected
            assert len(t.regions) > 1
        finally:
            c.close()
        # The inline branch (no pool) agrees.
        c1, t1 = _populated(tmp_path / "nopool", workers=1)
        try:
            assert t1.multi_get(keys) == expected
        finally:
            c1.close()

    def test_empty_batch(self, tmp_path):
        c, t = _populated(tmp_path, n=10)
        try:
            assert t.multi_get([]) == []
        finally:
            c.close()
