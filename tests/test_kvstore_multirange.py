"""Tests for the multi-range scan scheduler, Table.multi_range_scan and
Table.multi_get."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import threading
import time

import pytest

from repro.kvstore import Cluster, Scan
from repro.kvstore.scheduler import scan_scheduled
from repro.runtime.deadline import Deadline, QueryTimeoutError


def k(i):
    return i.to_bytes(4, "big")


@pytest.fixture()
def pool():
    with ThreadPoolExecutor(max_workers=4) as ex:
        yield ex


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

    def test_long_run_yields_everything_in_order(self, pool):
        # The run behind the head hands over its read-ahead chunk, then the
        # caller reads the rest of it inline.
        rows = list(scan_scheduled(
            lambda w: iter(range(w * 1000, w * 1000 + 1000)), range(2), pool, batch=64
        ))
        assert rows == list(range(2000))

    def test_read_ahead_reads_one_chunk(self, pool, monkeypatch):
        import repro.kvstore.scheduler as sched

        sizes = []
        real_next_chunk = sched.next_chunk

        def spy(gen, batch):
            sizes.append(batch)
            return real_next_chunk(gen, batch)

        monkeypatch.setattr(sched, "next_chunk", spy)
        rows = list(scan_scheduled(lambda w: iter([w] * 100), range(6), pool, batch=16))
        assert rows == [w for w in range(6) for _ in range(100)]
        # One chunk per run behind the head; the head is read inline.
        assert sizes == [16] * 5

    def test_no_pool_reads_inline(self):
        threads = set()

        def factory(w):
            threads.add(threading.current_thread())
            yield w

        assert list(scan_scheduled(factory, range(5), None, batch=4)) == list(range(5))
        assert threads == {threading.current_thread()}

    def test_close_closes_every_run(self, pool):
        closed = []

        def factory(w):
            try:
                yield from range(w * 1000, w * 1000 + 1000)
            finally:
                closed.append(w)

        rows = scan_scheduled(factory, range(10), pool, batch=16)
        assert next(rows) == 0
        rows.close()
        # The head and the one read-ahead admitted beside it.
        assert sorted(closed) == [0, 1]

    def test_read_ahead_failure_raised_and_counted(self, pool):
        from repro import obs

        def factory(w):
            yield w
            if w == 1:
                raise RuntimeError("worker boom")

        before = obs.registry().get("kv_multirange_errors_total").value
        rows = scan_scheduled(factory, range(3), pool, batch=4)
        assert next(rows) == 0
        with pytest.raises(RuntimeError, match="worker boom"):
            list(rows)
        after = obs.registry().get("kv_multirange_errors_total").value
        assert after == before + 1

    def test_read_ahead_failing_while_draining_is_counted(self, pool):
        # A read-ahead that fails after close() began draining it has no
        # consumer to raise to; it must be counted instead of dropped.
        from repro import obs

        entered = threading.Event()
        release = threading.Event()

        def factory(w):
            if w == 1:
                entered.set()
                release.wait(5)
                raise RuntimeError("late boom")
            yield w

        before = obs.registry().get("kv_multirange_errors_total").value
        rows = scan_scheduled(factory, range(2), pool, batch=4)
        assert next(rows) == 0
        assert entered.wait(5)  # the worker is inside the read-ahead
        timer = threading.Timer(0.05, release.set)
        timer.start()
        try:
            rows.close()  # drains the running read-ahead, which then fails
        finally:
            timer.cancel()
            release.set()
        after = obs.registry().get("kv_multirange_errors_total").value
        assert after == before + 1

    def test_close_settles_read_aheads(self, pool):
        """close() never leaves a read-ahead racing its generator."""
        gate = threading.Event()
        progressed = []

        def factory(w):
            if w == 1:
                gate.wait(5)
                progressed.append(True)
            yield from range(w * 100, w * 100 + 100)

        rows = scan_scheduled(factory, range(2), pool, batch=1)
        assert next(rows) == 0
        timer = threading.Timer(0.05, gate.set)
        timer.start()
        try:
            rows.close()
        finally:
            timer.cancel()
            gate.set()
        # Whether the read-ahead was cancelled or drained, close() has
        # settled it: the generator never runs again afterwards.
        n_before = len(progressed)
        time.sleep(0.05)
        assert len(progressed) == n_before

    def test_close_skips_remaining_runs(self, pool):
        # One run per region: each run is its own cursor.
        opened: list[int] = []

        def factory(run: int):
            opened.append(run)
            return iter([(bytes([run]), b"v")])

        rows = scan_scheduled(factory, range(100), pool, batch=4)
        next(rows)
        rows.close()
        time.sleep(0.05)
        assert len(opened) < 100  # later runs were never planned

    def test_expiry_mid_stream_surfaces(self, pool):
        deadline = Deadline(10_000)
        rows = scan_scheduled(
            lambda w: iter(range(w * 8, w * 8 + 8)), range(8), pool, batch=4,
            deadline=deadline,
        )
        assert next(rows) == 0
        deadline.cancel()  # budget gone mid-stream
        with pytest.raises(QueryTimeoutError):
            # The runs already opened may still drain, but the next run
            # surfaces expiry instead of starting.
            while True:
                next(rows)

    def test_expired_deadline_plans_nothing(self, pool):
        deadline = Deadline(1)
        time.sleep(0.005)
        opened: list[int] = []

        def factory(window: int):
            opened.append(window)
            return iter([(bytes([window]), b"v")])

        rows = scan_scheduled(factory, range(50), pool, batch=4, deadline=deadline)
        with pytest.raises(QueryTimeoutError):
            next(rows)
        assert opened == []


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
    def test_empty_batch_is_not_counted(self, tmp_path):
        from repro import obs

        batches = obs.registry().get("kv_multiget_batches_total")
        c, t = _populated(tmp_path, n=10)
        try:
            before = batches.value
            assert t.multi_get([]) == []
            assert batches.value == before
            t.multi_get([k(1), k(2)])
            assert batches.value == before + 1
        finally:
            c.close()

    def test_first_region_batch_resolves_on_the_caller(self, tmp_path, monkeypatch):
        from repro.kvstore.region import Region

        c, t = _populated(tmp_path)
        threads = []
        get_batch = Region.get_batch

        def spy(region, keys):
            threads.append((keys[0], threading.current_thread()))
            return get_batch(region, keys)

        monkeypatch.setattr(Region, "get_batch", spy)
        try:
            keys = [k(i) for i in range(0, 600, 7)]
            assert t.multi_get(keys) == [b"val%06d" % i for i in range(0, 600, 7)]
            by_first_key = dict(threads)
            assert len(by_first_key) == len(t.regions) > 1
            assert by_first_key[k(0)] is threading.current_thread()
            assert all(
                thread is not threading.current_thread()
                for key, thread in by_first_key.items() if key != k(0)
            )
        finally:
            c.close()

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


class TestDeadlineWhileWaitingOnReadAhead:
    """Thread mode, a split table, 200 ms per cursor open: the head run and
    the one read ahead beside it open by 200 ms, the next read-ahead not
    before 400 ms, so a 300 ms budget runs out while the caller waits on
    it.  Whatever the query makes of the expiry, no read-ahead is left
    running on the pool once it returns."""

    DELAY_MS, BUDGET_MS = 200.0, 300.0

    @pytest.fixture(scope="class")
    def deployment(self):
        from repro import TMan, TManConfig
        from repro.datasets import TDRIVE_SPEC, tdrive_like

        data = tdrive_like(60, seed=777)
        tman = TMan(TManConfig(
            boundary=TDRIVE_SPEC.boundary, max_resolution=12, num_shards=2,
            kv_workers=4, split_rows=16,
        ))
        tman.bulk_load(data)
        yield tman, data
        tman.close()

    @pytest.fixture()
    def read_aheads(self, monkeypatch):
        """[running now, started in all] read-ahead chunks."""
        import repro.kvstore.scheduler as sched

        lock, counts = threading.Lock(), [0, 0]
        real_next_chunk = sched.next_chunk

        def counted(gen, batch):
            with lock:
                counts[0] += 1
                counts[1] += 1
            try:
                return real_next_chunk(gen, batch)
            finally:
                with lock:
                    counts[0] -= 1

        monkeypatch.setattr(sched, "next_chunk", counted)
        return counts

    def _query(self, deployment, **kwargs):
        from repro.kvstore.simfault import FaultConfig, fault_injection
        from repro.model import TimeRange
        from repro.query.types import TemporalRangeQuery

        tman, data = deployment
        window = TimeRange(
            min(t.time_range.start for t in data), max(t.time_range.end for t in data)
        )
        assert len(tman.cluster.table("tman_primary").regions) > 2
        with fault_injection(FaultConfig(scan_delay_ms=self.DELAY_MS)):
            return tman.query(
                TemporalRangeQuery(window), deadline_ms=self.BUDGET_MS, **kwargs
            )

    def test_strict_query_raises(self, deployment, read_aheads):
        with pytest.raises(QueryTimeoutError) as info:
            self._query(deployment)
        assert info.value.where == "scheduler.read_ahead"
        assert read_aheads[1] >= 2
        assert read_aheads[0] == 0

    def test_partial_query_returns_partial(self, deployment, read_aheads):
        result = self._query(deployment, allow_partial=True)
        assert result.partial is True
        assert read_aheads[1] >= 2
        assert read_aheads[0] == 0
