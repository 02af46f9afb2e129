"""Admission control: bound inflight queries, queue briefly, then shed.

Under overload the worst failure mode is *convoy collapse*: every new
query piles onto the worker pool, latency grows without bound, and no
query finishes.  :class:`AdmissionController` caps the number of queries
executing at once; excess arrivals wait in a FIFO queue (per priority
class) for a bounded time and are then rejected fast with
:class:`AdmissionRejectedError` — a shed query costs microseconds, a
queued-forever query costs a thread.

Two priority classes: ``"interactive"`` waiters are always admitted ahead
of ``"batch"`` waiters, regardless of arrival order; within a class the
queue is FIFO.  A waiter whose query deadline expires while queued fails
with :class:`~repro.runtime.deadline.QueryTimeoutError` instead — the
caller asked for a time bound, not a queue-capacity bound.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.obs import counter as _obs_counter, gauge as _obs_gauge, histogram as _obs_histogram
from repro.obs.profile import current_profile
from repro.runtime.deadline import Deadline, QueryTimeoutError

INTERACTIVE = "interactive"
BATCH = "batch"
PRIORITIES = (INTERACTIVE, BATCH)

_SHED_TOTAL = _obs_counter(
    "admission_shed_total",
    "Queries rejected by admission control",
    labelnames=("reason",),
)
_QUEUE_WAIT_MS = _obs_histogram(
    "admission_queue_wait_ms",
    "Time admitted queries spent waiting in the admission queue",
)
_INFLIGHT = _obs_gauge(
    "admission_inflight", "Queries currently executing under admission control"
)
_QUEUED = _obs_gauge(
    "admission_queued", "Queries currently waiting in the admission queue"
)


class AdmissionRejectedError(Exception):
    """The query was shed by admission control instead of executing.

    ``reason`` is ``"queue_full"`` (the wait queue was at capacity on
    arrival) or ``"queue_timeout"`` (the queue wait exceeded its bound).
    """

    def __init__(self, reason: str, detail: str):
        super().__init__(f"query shed by admission control ({reason}): {detail}")
        self.reason = reason


class AdmissionController:
    """Bounded inflight-query limiter with a priority FIFO wait queue.

    ``max_inflight`` queries execute concurrently; up to ``max_queue``
    more wait (across both priority classes combined).  A waiter is
    admitted when a slot frees, it is at the head of its class's queue,
    and — for batch waiters — no interactive waiter is queued.  Waits
    are bounded by ``queue_timeout_ms`` and by the query's own deadline,
    whichever is tighter.
    """

    def __init__(
        self,
        max_inflight: int,
        max_queue: int = 16,
        queue_timeout_ms: float = 1000.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be positive, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue must be >= 0, got {max_queue}")
        if queue_timeout_ms < 0:
            raise ValueError(
                f"queue_timeout_ms must be >= 0, got {queue_timeout_ms}"
            )
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.queue_timeout_ms = queue_timeout_ms
        self._clock = clock
        self._cond = threading.Condition(threading.Lock())
        self._inflight = 0
        self._queues: dict[str, deque[object]] = {p: deque() for p in PRIORITIES}
        self._shed: dict[str, int] = {"queue_full": 0, "queue_timeout": 0}
        self._admitted = 0
        _INFLIGHT.set_callback(lambda: float(self._inflight))
        _QUEUED.set_callback(lambda: float(self._queued_locked()))

    # -- introspection -------------------------------------------------------

    def _queued_locked(self) -> int:
        return sum(len(q) for q in self._queues.values())

    @property
    def inflight(self) -> int:
        """Queries currently holding an execution slot."""
        with self._cond:
            return self._inflight

    @property
    def queued(self) -> int:
        """Queries currently waiting for a slot."""
        with self._cond:
            return self._queued_locked()

    def stats(self) -> dict:
        """Snapshot for ``repro health``: slots, queue depth, shed counts."""
        with self._cond:
            return {
                "max_inflight": self.max_inflight,
                "inflight": self._inflight,
                "max_queue": self.max_queue,
                "queued": self._queued_locked(),
                "admitted": self._admitted,
                "shed_queue_full": self._shed["queue_full"],
                "shed_queue_timeout": self._shed["queue_timeout"],
            }

    # -- admission -----------------------------------------------------------

    def _eligible_locked(self, token: object, priority: str) -> bool:
        if self._inflight >= self.max_inflight:
            return False
        queue = self._queues[priority]
        if not queue or queue[0] is not token:
            return False
        # Batch yields to any queued interactive waiter.
        return priority == INTERACTIVE or not self._queues[INTERACTIVE]

    def _reject_locked(self, reason: str, detail: str) -> AdmissionRejectedError:
        self._shed[reason] += 1
        _SHED_TOTAL.labels(reason=reason).inc()
        return AdmissionRejectedError(reason, detail)

    def acquire(
        self, priority: str = INTERACTIVE, deadline: Optional[Deadline] = None
    ) -> None:
        """Take an execution slot, waiting in the priority queue if needed.

        Raises :class:`AdmissionRejectedError` when the queue is full on
        arrival or the bounded wait times out, and
        :class:`~repro.runtime.deadline.QueryTimeoutError` when the
        query's own deadline expires while queued.
        """
        if priority not in self._queues:
            raise ValueError(f"unknown priority {priority!r} (use {PRIORITIES})")
        token = object()
        with self._cond:
            # Fast path: a free slot and nobody eligible queued ahead of us.
            if self._inflight < self.max_inflight and not (
                self._queues[INTERACTIVE]
                or (priority == BATCH and self._queues[BATCH])
            ):
                self._inflight += 1
                self._admitted += 1
                return
            if self._queued_locked() >= self.max_queue:
                raise self._reject_locked(
                    "queue_full",
                    f"{self._queued_locked()} queued >= max_queue={self.max_queue}",
                )
            queue = self._queues[priority]
            queue.append(token)
            waited_from = self._clock()
            give_up_at = waited_from + self.queue_timeout_ms / 1000.0
            try:
                while not self._eligible_locked(token, priority):
                    timeout = give_up_at - self._clock()
                    if deadline is not None:
                        timeout = min(timeout, deadline.remaining_s())
                    if timeout <= 0 or not self._cond.wait(timeout):
                        # Timed out (or zero budget).  Decide which bound hit.
                        if self._eligible_locked(token, priority):
                            break  # slot appeared in the race window
                        if deadline is not None and deadline.expired():
                            raise QueryTimeoutError("admission", deadline.budget_ms)
                        if self._clock() >= give_up_at:
                            raise self._reject_locked(
                                "queue_timeout",
                                f"waited {self.queue_timeout_ms:.0f} ms for a slot",
                            )
                queue.remove(token)
                token = None  # admitted: the finally below must not dequeue
                self._inflight += 1
                self._admitted += 1
                # Our departure exposes a new queue head; if slots remain
                # (several released at once) it must wake to claim one.
                self._cond.notify_all()
                wait_ms = (self._clock() - waited_from) * 1000.0
                _QUEUE_WAIT_MS.observe(wait_ms)
                profile = current_profile()
                if profile is not None:
                    profile.add(admission_wait_ms=wait_ms)
            finally:
                if token is not None and token in queue:
                    queue.remove(token)
                    # Our departure may make the next waiter (possibly in
                    # the other class) eligible: a batch waiter blocked
                    # only by a queued interactive token must wake.
                    self._cond.notify_all()

    def release(self) -> None:
        """Return an execution slot and wake queued waiters."""
        with self._cond:
            if self._inflight <= 0:
                raise RuntimeError("release() without a matching acquire()")
            self._inflight -= 1
            self._cond.notify_all()

    @contextmanager
    def admit(
        self, priority: str = INTERACTIVE, deadline: Optional[Deadline] = None
    ) -> Iterator[None]:
        """``with controller.admit(...):`` — acquire/release as a scope."""
        self.acquire(priority, deadline)
        try:
            yield
        finally:
            self.release()
