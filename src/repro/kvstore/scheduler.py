"""Multi-range scan scheduling: concurrent region cursors, in-order rows.

The hot read path is "scan a window list": N temporal intervals or a list
of TShape code ranges.  The table cuts the list into per-region runs, one
region cursor each; this module overlaps the runs on the cluster worker
pool while rows are yielded strictly in run order (key order within a
region, window order across them), so the scheduled execution is
byte-for-byte identical to the serial loop.

Two properties the query layer depends on:

- **Bounded buffering.**  Each admitted stream pipelines chunks ahead of
  the consumer only while its undelivered rows stay under a row budget
  (its ``batch_rows``), and chunk sizes ramp from ``INITIAL_CHUNK_ROWS``
  up to ``batch_rows``; each chunk the consumer takes admits at most one
  more run, and no more streams are live than the pool has workers.  The
  pipelining matters: against a remote kvstore each region cursor is an
  RPC, and a stream that stopped after one prefetched chunk would
  serialize those round trips again.
- **Cancellation.**  Closing the iterator (a ``Limit``/``TopK`` sink
  breaking out) cancels every in-flight chunk and never starts the
  remaining runs.
"""

from __future__ import annotations

import itertools
import logging
import threading
from collections import deque
from time import perf_counter
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from concurrent.futures import Future, ThreadPoolExecutor

from repro.obs import counter as _obs_counter
from repro.obs.profile import current_profile, run_with_profile
from repro.runtime.deadline import Deadline

_log = logging.getLogger(__name__)

T = TypeVar("T")
Row = tuple[bytes, bytes]

INITIAL_CHUNK_ROWS = 16
CHUNK_GROWTH = 4

_CHUNKS_CANCELLED = _obs_counter(
    "kv_multirange_chunks_cancelled_total",
    "In-flight chunk prefetches cancelled by early termination",
)
_CHUNK_ERRORS = _obs_counter(
    "kv_multirange_errors_total",
    "Worker chunk failures observed by the scheduler (delivered or drained)",
)


def next_chunk(gen: Iterator[T], batch: int) -> list[T]:
    """Pull up to ``batch`` items from ``gen`` (runs on the worker pool)."""
    return list(itertools.islice(gen, batch))


class ChunkedStream:
    """One generator's items, pulled in pool-prefetched chunks.

    The stream keeps itself ahead of the consumer: as each chunk
    completes on the pool it is buffered and — while the buffered rows
    stay under ``batch`` — the next chunk is submitted immediately from
    the completion callback, without waiting for the consumer.  At most
    one chunk is ever in flight, so the underlying generator is only
    touched by one worker at a time and items arrive strictly in order.
    ``initial`` starts the chunk-size ramp below ``batch`` (cheap early
    termination); ``on_chunk`` fires on the consumer thread as each
    chunk is delivered, which the window scheduler uses to top up its
    admission horizon.  ``close()`` cancels or drains the in-flight
    chunk before closing the generator, so an abandoned stream never
    races its worker.
    """

    def __init__(
        self,
        executor: ThreadPoolExecutor,
        gen: Iterator[T],
        batch: int,
        initial: Optional[int] = None,
        on_chunk: Optional[Callable[[], None]] = None,
        deadline: Optional[Deadline] = None,
    ):
        self._executor = executor
        self._gen = gen
        self._batch = batch
        # Context vars don't cross pool submits: capture the constructing
        # (query) thread's profile and re-activate it on every worker.
        self._profile = current_profile()
        self._next_size = min(initial, batch) if initial else batch
        self._on_chunk = on_chunk
        self._deadline = deadline
        self._ready = threading.Condition(threading.Lock())
        self._chunks: deque[list[T]] = deque()
        self._buffered = 0
        self._pending: Optional[Future] = None
        self._pending_size = 0
        self._submitting = False
        self._exhausted = False
        self._error: Optional[BaseException] = None
        self._closed = False
        self._close_done = False

    def start(self) -> None:
        """Kick off the first chunk prefetch (idempotent)."""
        self._maybe_submit()

    def _maybe_submit(self) -> None:
        # Two phases so the executor is never called under the lock: a
        # future that completes instantly runs its done-callback on the
        # submitting thread, which would self-deadlock on re-acquire.
        with self._ready:
            if (
                self._closed
                or self._exhausted
                or self._error is not None
                or self._submitting
                or self._pending is not None
                or self._buffered >= self._batch
                # An expired deadline stops new submissions; already
                # buffered chunks drain (the consumer decides whether
                # expiry is an error or a partial-result truncation).
                or (self._deadline is not None and self._deadline.expired())
            ):
                return
            self._submitting = True
            self._pending_size = self._next_size
            self._next_size = min(self._next_size * CHUNK_GROWTH, self._batch)
        future = self._executor.submit(
            run_with_profile, self._profile, next_chunk, self._gen, self._pending_size
        )
        with self._ready:
            self._pending = future
            self._submitting = False
            self._ready.notify_all()
        future.add_done_callback(self._chunk_done)

    def _chunk_done(self, future: Future) -> None:
        with self._ready:
            if future is not self._pending:
                # close() already detached (and cancelled or drained) it.
                self._ready.notify_all()
                return
            self._pending = None
            try:
                chunk = future.result()
            except BaseException as exc:  # propagate to the consumer
                _CHUNK_ERRORS.inc()
                self._error = exc
                self._ready.notify_all()
                return
            if not self._closed:
                self._chunks.append(chunk)
                self._buffered += len(chunk)
                if len(chunk) < self._pending_size:
                    self._exhausted = True
            self._ready.notify_all()
        self._maybe_submit()

    def __iter__(self) -> Iterator[T]:
        deadline = self._deadline
        profile = self._profile
        stall_s = 0.0  # consumer time blocked on prefetch, flushed once
        try:
            while True:
                self._maybe_submit()
                with self._ready:
                    while (
                        not self._chunks
                        and self._error is None
                        and not self._closed
                        and (self._pending is not None or self._submitting)
                    ):
                        waited_from = perf_counter() if profile is not None else 0.0
                        if deadline is not None:
                            remaining = deadline.remaining_s()
                            if remaining <= 0:
                                break
                            self._ready.wait(remaining)
                        else:
                            self._ready.wait()
                        if profile is not None:
                            stall_s += perf_counter() - waited_from
                    if self._error is not None:
                        raise self._error
                    if self._closed:
                        # Closed from another thread (or a previous partial
                        # iteration): the stream is over, never spin on it.
                        return
                    if not self._chunks:
                        if self._exhausted:
                            return
                        if deadline is not None:
                            # Nothing buffered and submissions stopped (or the
                            # in-flight wait ran out of budget): surface expiry
                            # here rather than spinning on a starved stream.
                            deadline.check("scheduler.chunked_stream")
                        continue  # nothing in flight and not done: resubmit
                    chunk = self._chunks.popleft()
                    self._buffered -= len(chunk)
                self._maybe_submit()
                if self._on_chunk is not None:
                    self._on_chunk()
                yield from chunk
        finally:
            if profile is not None and stall_s > 0.0:
                profile.add(stall_ms=stall_s * 1000.0)

    def close(self) -> None:
        """Cancel (or await) the in-flight chunk and close the generator.

        Idempotent: a second close is a no-op, so a deadline abort that
        closes a stream mid-iteration composes with the scheduler's own
        cleanup.  Consumers blocked waiting for a chunk are woken and see
        the closed flag.
        """
        with self._ready:
            if self._close_done:
                return
            self._close_done = True
            self._closed = True
            while self._submitting:
                self._ready.wait()
            pending, self._pending = self._pending, None
            self._ready.notify_all()  # wake consumers blocked on a chunk
        if pending is not None:
            if pending.cancel():
                _CHUNKS_CANCELLED.inc()
            else:
                try:
                    pending.result()
                except Exception as exc:
                    # The stream is being abandoned, so nobody will consume
                    # this failure: count it and leave a debug breadcrumb
                    # instead of letting it vanish.
                    _CHUNK_ERRORS.inc()
                    _log.debug(
                        "multirange chunk failed while draining a closed "
                        "stream: %r",
                        exc,
                    )
        close = getattr(self._gen, "close", None)
        if close is not None:  # plain iterators have nothing to release
            close()


def scan_scheduled(
    scan_factory: Callable[[T], Iterator[Row]],
    runs: Iterable[T],
    executor: ThreadPoolExecutor,
    batch: int,
    deadline: Optional[Deadline] = None,
) -> Iterator[Row]:
    """Stream ``runs`` concurrently, one chunked stream each, rows in run order.

    ``scan_factory`` maps a run (a region's window list) to its row
    iterator.  Admission is lazy: the head run starts alone and every
    chunk the consumer takes admits at most one more, so a consumer that
    stops early never opens the later runs.
    """
    runs_iter = iter(runs)
    # More live streams than pool workers would only queue.
    width = max(1, getattr(executor, "_max_workers", 1))
    active: deque[ChunkedStream] = deque()
    exhausted = False

    def admit() -> None:
        nonlocal exhausted
        if exhausted or len(active) >= width:
            return
        if deadline is not None and deadline.expired():
            return  # expired: never plan, let alone open, more runs
        run = next(runs_iter, None)
        if run is None:
            exhausted = True
            return
        stream = ChunkedStream(
            executor,
            scan_factory(run),
            batch,
            initial=INITIAL_CHUNK_ROWS,
            on_chunk=admit,
            deadline=deadline,
        )
        active.append(stream)
        stream.start()

    try:
        admit()
        while active:
            # Consume the head run; its chunk arrivals admit the next ones.
            yield from active[0]
            active.popleft()
            admit()
    finally:
        for stream in active:
            stream.close()
