"""Multi-range scan execution: each region run read on the caller, the runs
behind it read ahead on the worker pool.

Every read of a table's window list streams its per-region runs (one
region cursor each) through :func:`read_runs`.  The head run is read on the
calling thread.  With a worker pool, each run behind it reads a first chunk
of up to ``batch`` rows on the pool, opening its cursor (an RPC against a
remote kvstore) while the caller reads the head; when the run becomes the
head, the caller takes that chunk and reads the rest inline.  Rows come in
run order, so a read with a pool is byte-for-byte the one without.  The
query layer depends on two properties:

- **Lazy admission.**  The read-ahead queue may grow by one run each time a
  run becomes the head, up to the pool's worker count, so a consumer that
  stops early never plans the later runs.
- **Cancellation.**  Closing the iterator (a ``Limit``/``TopK`` sink
  breaking out), or a deadline that expires while the caller waits on a
  read-ahead, cancels or drains every read-ahead before closing its
  generator: no pool task is left running a closed generator.
"""

from __future__ import annotations

import itertools
import logging
from collections import deque
from concurrent.futures import Executor, Future, wait
from time import perf_counter
from typing import Callable, Iterable, Iterator, Optional, TypeVar

from repro.obs import counter as _obs_counter
from repro.obs.profile import current_profile, run_with_profile
from repro.runtime.deadline import Deadline

_log = logging.getLogger(__name__)

T = TypeVar("T")
Row = tuple[bytes, bytes]

_SCANS_BY_MODE = _obs_counter(
    "kv_multirange_scans_total", "Multi-range scans executed", labelnames=("mode",)
)
_CHUNKS_CANCELLED = _obs_counter(
    "kv_multirange_chunks_cancelled_total",
    "Read-ahead chunks cancelled before they ran by early termination",
)
_CHUNK_ERRORS = _obs_counter(
    "kv_multirange_errors_total",
    "Read-ahead chunk failures observed by the scheduler (delivered or drained)",
)


def next_chunk(gen: Iterator[T], batch: int) -> list[T]:
    """Pull up to ``batch`` items from ``gen`` (runs on the worker pool)."""
    return list(itertools.islice(gen, batch))


def _release(gen: Iterator[Row], future: Optional[Future] = None) -> None:
    """Cancel ``gen``'s read-ahead, or wait out the one already running, so
    that ``gen`` is idle; then close it."""
    if future is not None and future.cancel():
        _CHUNKS_CANCELLED.inc()
    elif future is not None:
        try:
            future.result()
        except Exception as exc:  # nobody consumes it: count it, log it
            _CHUNK_ERRORS.inc()
            _log.debug("read-ahead failed while its scan closed: %r", exc)
    if hasattr(gen, "close"):  # plain iterators have nothing to release
        gen.close()


def scan_scheduled(*args, **kwargs) -> Iterator[Row]:
    """:func:`read_runs` under the name a tracer wraps (the benchmark
    spine's does).  Tables call :func:`read_runs` itself, so a traced table
    read nests no second span."""
    return read_runs(*args, **kwargs)


def read_runs(
    scan_factory: Callable[[T], Iterator[Row]],
    runs: Iterable[T],
    executor: Optional[Executor],
    batch: int,
    deadline: Optional[Deadline] = None,
) -> Iterator[Row]:
    """Stream ``runs`` in order, ``scan_factory(run)``'s rows each.

    ``scan_factory`` maps a run (a region's window list) to its row
    iterator; without a pool the runs are read one after another on the
    calling thread.  An expired ``deadline`` plans no further run: the next
    head raises :class:`~repro.runtime.deadline.QueryTimeoutError`, as does
    a wait on a read-ahead that outlasts it.
    """
    runs_iter = iter(runs)
    # The caller reads the head off the pool: one read-ahead per worker.
    width = getattr(executor, "_max_workers", 0)
    profile = current_profile()
    ahead: deque[tuple[Iterator[Row], Future]] = deque()
    depth = 0  # read-aheads admitted at most: one more per run started
    head: Optional[Iterator[Row]] = None
    mode = "serial"
    stall_s = 0.0  # caller time blocked on read-aheads, flushed once
    try:
        while True:
            if ahead:
                gen, future = ahead[0]
                while not future.done():
                    if deadline is not None:
                        deadline.check("scheduler.read_ahead")
                    waited_from = perf_counter()
                    wait((future,), None if deadline is None else deadline.remaining_s())
                    stall_s += perf_counter() - waited_from
                ahead.popleft()
                head = gen
                try:
                    chunk = future.result()
                except BaseException:
                    _CHUNK_ERRORS.inc()
                    raise
            else:
                run = next(runs_iter, None)
                if run is None:
                    return
                if deadline is not None:
                    deadline.check("scheduler")
                head, chunk = scan_factory(run), []
            depth = min(width, depth + 1)
            while len(ahead) < depth and not (deadline is not None and deadline.expired()):
                run = next(runs_iter, None)
                if run is None:
                    break
                gen = scan_factory(run)
                # Context vars don't cross pool submits: the read-ahead
                # runs under the caller's query profile.
                future = executor.submit(  # type: ignore[union-attr]
                    run_with_profile, profile, next_chunk, gen, batch
                )
                ahead.append((gen, future))
                mode = "scheduled"
            yield from chunk
            yield from head
    finally:
        for gen, future in ahead:
            _release(gen, future)
        if head is not None:
            _release(head)
        _SCANS_BY_MODE.labels(mode=mode).inc()
        if profile is not None and stall_s > 0.0:
            profile.add(stall_ms=stall_s * 1000.0)
