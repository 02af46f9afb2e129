"""Write backpressure: soft-watermark throttling, hard-watermark stalls.

The no-flusher cases run on both media of the one LSM engine: memory
(``LSMStore``) and directory (``DurableLSMStore``, which never has a
flusher pool and drains its watermarks inline).  Throttles and stalls are
attributed to the writing thread's ledger (a ``QueryProfile``), which is
what a ``WriteReport`` reads.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.kvstore.durable import DurableLSMStore
from repro.kvstore.errors import WriteStalledError
from repro.kvstore.lsm import LSMStore
from repro.obs.profile import QueryProfile, profile_scope
from repro.runtime.backpressure import WriteLimits


def k(i: int) -> bytes:
    return b"key-%06d" % i


VALUE = b"v" * 100
# Attempts per write after a hard-watermark rejection (each may stall 20 ms).
RESUME_RETRIES = 50


@pytest.fixture(params=["mem", "dir"])
def make_store(request, tmp_path):
    """A factory of no-flusher stores on one medium (closed at teardown)."""
    opened = []

    def make(**kwargs):
        if request.param == "mem":
            return LSMStore(**kwargs)
        store = DurableLSMStore(tmp_path / f"db{len(opened)}", sync=False, **kwargs)
        opened.append(store)
        return store

    yield make
    for store in opened:
        store.close()


class TestWriteLimits:
    def test_validation(self):
        with pytest.raises(ValueError):
            WriteLimits(soft_bytes=0)
        with pytest.raises(ValueError):
            WriteLimits(hard_bytes=-1)
        with pytest.raises(ValueError):
            WriteLimits(soft_bytes=1000, hard_bytes=500)
        with pytest.raises(ValueError):
            WriteLimits(stall_timeout_ms=-1)

    def test_enabled_requires_a_watermark(self):
        assert not WriteLimits().enabled
        assert WriteLimits(soft_bytes=1).enabled
        assert WriteLimits(hard_bytes=1).enabled


class TestSoftWatermark:
    def test_throttle_counted_and_flush_scheduled(self, make_store):
        limits = WriteLimits(soft_bytes=2_000, throttle_ms=0.01)
        store = make_store(flush_bytes=1 << 20, write_limits=limits)
        ledger = QueryProfile("writes")
        with profile_scope(ledger):
            for i in range(100):
                store.put(k(i), VALUE)
        assert ledger.throttled_writes > 0
        # Frozen memtables were flushed inline (no flusher pool configured).
        assert store.sstable_count > 0
        assert store.memtable_bytes < 100 * (len(VALUE) + 10)

    def test_reads_see_rows_across_all_levels(self, make_store):
        limits = WriteLimits(soft_bytes=1_000, throttle_ms=0.0)
        store = make_store(flush_bytes=1 << 20, write_limits=limits)
        for i in range(200):
            store.put(k(i), VALUE)
        store.delete(k(5))
        assert store.get(k(0)) == VALUE
        assert store.get(k(199)) == VALUE
        assert store.get(k(5)) is None
        keys = [key for key, _ in store.scan()]
        assert len(keys) == 199
        assert keys == sorted(keys)

    def test_async_flush_on_flusher_pool(self):
        limits = WriteLimits(soft_bytes=1_000, throttle_ms=0.0)
        with ThreadPoolExecutor(max_workers=1) as pool:
            store = LSMStore(
                flush_bytes=1 << 20, write_limits=limits, flusher=pool
            )
            for i in range(300):
                store.put(k(i), VALUE)
            store.flush()  # drain the pipeline
            assert store.sstable_count > 0
            assert [key for key, _ in store.scan()] == sorted(
                k(i) for i in range(300)
            )


class TestHardWatermark:
    def test_inline_stall_recovers(self, make_store):
        limits = WriteLimits(hard_bytes=5_000, throttle_ms=0.0)
        store = make_store(flush_bytes=1 << 20, write_limits=limits)
        ledger = QueryProfile("writes")
        with profile_scope(ledger):
            for i in range(500):
                store.put(k(i), VALUE)
        assert ledger.stalled_writes > 0
        assert ledger.rejected_writes == 0  # an inline drain always frees the memtable
        assert store.sstable_count > 0
        assert [key for key, _ in store.scan()] == sorted(k(i) for i in range(500))

    def test_stall_recovers_when_flusher_catches_up(self):
        limits = WriteLimits(
            soft_bytes=1_000, hard_bytes=5_000, stall_timeout_ms=5_000,
            throttle_ms=0.0,
        )
        with ThreadPoolExecutor(max_workers=1) as pool:
            store = LSMStore(
                flush_bytes=1 << 20, write_limits=limits, flusher=pool
            )
            ledger = QueryProfile("writes")
            with profile_scope(ledger):
                for i in range(500):
                    store.put(k(i), VALUE)
            assert ledger.rejected_writes == 0  # every stall recovered within its budget
            store.flush()
            assert [key for key, _ in store.scan()] == sorted(
                k(i) for i in range(500)
            )

    def test_stall_timeout_rejects_with_write_stalled_error(self):
        # Wedge the single flusher worker so the flush pipeline cannot make
        # progress; the hard-watermark stall must give up within its bounded
        # timeout instead of hanging the writer.
        release = threading.Event()
        limits = WriteLimits(
            soft_bytes=500, hard_bytes=1_000, stall_timeout_ms=20,
            throttle_ms=0.0,
        )
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            pool.submit(release.wait, 30)  # occupies the only worker
            store = LSMStore(
                flush_bytes=1 << 20, write_limits=limits, flusher=pool
            )
            ledger = QueryProfile("writes")
            with profile_scope(ledger), pytest.raises(WriteStalledError):
                for i in range(500):
                    store.put(k(i), VALUE)
            assert ledger.rejected_writes == 1
        finally:
            release.set()
            pool.shutdown(wait=True)

    def test_writes_resume_after_rejection(self):
        release = threading.Event()
        limits = WriteLimits(
            soft_bytes=500, hard_bytes=1_000, stall_timeout_ms=20,
            throttle_ms=0.0,
        )
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            pool.submit(release.wait, 30)
            store = LSMStore(
                flush_bytes=1 << 20, write_limits=limits, flusher=pool
            )
            wrote = 0
            try:
                for i in range(500):
                    store.put(k(i), VALUE)
                    wrote += 1
            except WriteStalledError:
                pass
            assert wrote < 500  # the wedged flusher got a write rejected
            release.set()  # unwedge the flusher
            store.flush()
            for i in range(wrote, 500):
                # The resumed stream may reach the hard watermark again
                # before the flusher thread drains it: a rejected write is
                # told to slow down and retry, so it does, a bounded number
                # of times.
                for attempt in range(RESUME_RETRIES):
                    try:
                        store.put(k(i), VALUE)
                        break
                    except WriteStalledError:
                        if attempt == RESUME_RETRIES - 1:
                            raise
            store.flush()
            assert [key for key, _ in store.scan()] == sorted(
                k(i) for i in range(500)
            )
        finally:
            release.set()
            pool.shutdown(wait=True)


class TestDisabledEquivalence:
    def test_disabled_limits_match_seed_store(self, make_store):
        plain = make_store(flush_bytes=4_000)
        limited = make_store(flush_bytes=4_000, write_limits=WriteLimits())
        for i in range(300):
            plain.put(k(i), VALUE)
            limited.put(k(i), VALUE)
        for i in range(0, 300, 7):
            plain.delete(k(i))
            limited.delete(k(i))
        assert list(plain.scan()) == list(limited.scan())
        assert plain.sstable_count == limited.sstable_count


class TestConcurrentWriters:
    def test_inline_drains_lose_no_write(self, make_store):
        # Writers share one store whose soft watermark makes each of them
        # drain inline (flush, WAL truncate, compaction) under the store
        # lock while the others write and read.
        import sys

        limits = WriteLimits(soft_bytes=1_000, throttle_ms=0.0)
        store = make_store(flush_bytes=1 << 20, max_tables=4, write_limits=limits)
        errors: list[BaseException] = []

        def writer(w: int) -> None:
            try:
                for i in range(w, 1_200, 6):
                    store.put(k(i), VALUE)
                    assert store.get(k(i)) == VALUE
            except BaseException as exc:  # reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(w,)) for w in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert [key for key, _ in store.scan()] == [k(i) for i in range(1_200)]


class TestReopen:
    def test_reopen_after_watermark_flush_returns_every_acknowledged_row(self, tmp_path):
        # Watermark flushes truncate the WAL; rows written after the last
        # one live only in the log and must survive the reopen too.
        limits = WriteLimits(soft_bytes=1_000, hard_bytes=4_000, throttle_ms=0.0)
        store = DurableLSMStore(
            tmp_path / "db", sync=False, flush_bytes=1 << 20, write_limits=limits
        )
        for i in range(300):
            store.put(k(i), VALUE)
        for i in range(0, 300, 7):
            store.delete(k(i))
        assert store.sstable_count > 0
        assert store.memtable_bytes > 0
        store.close()
        reopened = DurableLSMStore(tmp_path / "db")
        assert list(reopened.scan()) == [(k(i), VALUE) for i in range(300) if i % 7]
        reopened.close()


class TestWriterReport:
    def test_bulk_load_reports_throttles(self):
        from repro import TMan, TManConfig
        from repro.datasets import TDRIVE_SPEC, tdrive_like

        config = TManConfig(
            boundary=TDRIVE_SPEC.boundary,
            max_resolution=12,
            kv_workers=2,
            memtable_soft_bytes=4_096,
            write_throttle_ms=0.01,
        )
        with TMan(config) as tman:
            report = tman.bulk_load(tdrive_like(30, seed=5))
            assert report.rows_written == 30
            assert report.throttled_writes > 0
            assert report.rejected_writes == 0

    def test_concurrent_deployments_report_only_their_own_batch(self):
        # Two deployments bulk-load side by side behind a barrier; each
        # report must equal the same load run alone.
        from repro import TMan, TManConfig
        from repro.datasets import TDRIVE_SPEC, tdrive_like

        config = TManConfig(
            boundary=TDRIVE_SPEC.boundary,
            max_resolution=12,
            kv_workers=2,
            memtable_soft_bytes=4_096,
            write_throttle_ms=0.01,
        )
        data = tdrive_like(60, seed=5)

        def toll(report):
            return (report.throttled_writes, report.stalled_writes,
                    report.stall_seconds, report.rejected_writes)

        with TMan(config) as tman:
            alone = toll(tman.bulk_load(data))
        assert alone[0] > 0
        barrier = threading.Barrier(2)
        reports: dict[int, tuple] = {}
        errors: list[BaseException] = []

        def load(i: int) -> None:
            try:
                with TMan(config) as tman:
                    barrier.wait(30)
                    reports[i] = toll(tman.bulk_load(data))
            except BaseException as exc:  # reported below
                errors.append(exc)
                barrier.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=load, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert reports == {0: alone, 1: alone}

    def test_unlimited_deployment_reports_zero(self):
        from repro import TMan, TManConfig
        from repro.datasets import TDRIVE_SPEC, tdrive_like

        config = TManConfig(
            boundary=TDRIVE_SPEC.boundary, max_resolution=12, kv_workers=1
        )
        with TMan(config) as tman:
            report = tman.bulk_load(tdrive_like(10, seed=5))
            assert report.throttled_writes == 0
            assert report.stalled_writes == 0
            assert report.stall_seconds == 0.0
            assert report.rejected_writes == 0
