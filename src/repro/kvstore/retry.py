"""Retry with decorrelated-jitter backoff, and per-region circuit breakers.

The read path treats every region interaction as an RPC that can fail
transiently (see :mod:`repro.kvstore.simfault` for the emulated failure
source).  :class:`RetryPolicy` is the single classification point:
subclasses of :class:`~repro.kvstore.errors.TransientError` are retried
with exponential backoff and decorrelated jitter under a per-operation
attempt and deadline budget; everything else is fatal and propagates
unchanged.  A budget overrun raises
:class:`~repro.kvstore.errors.RetryExhaustedError` chained to the last
underlying failure.

:class:`CircuitBreaker` tracks consecutive failures per region.  The
kvstore never *blocks* requests on an open breaker — results must stay
correct, so every operation is still attempted — instead an open breaker
degrades the execution strategy: the multi-range scheduler falls back to
serial window execution and ``multi_get`` stops dispatching to the worker
pool until the region recovers (half-open probe succeeds).
"""

from __future__ import annotations

import threading
import time
from collections import namedtuple
from collections.abc import Callable

from repro.kvstore.errors import RetryExhaustedError, TransientError
from repro.obs import counter as _obs_counter, gauge as _obs_gauge
from repro.obs.profile import current_profile
from repro.runtime.deadline import Deadline, QueryTimeoutError

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from typing import TypeVar

    T = TypeVar("T")

_RETRY_TOTAL = _obs_counter(
    "kv_retry_total",
    "Retries performed after transient RPC/IO failures "
    "(capped=yes when the backoff sleep was shortened or skipped to fit "
    "the query's remaining deadline)",
    labelnames=("op", "capped"),
)
_RPC_FAILURE_TOTAL = _obs_counter(
    "kv_rpc_failure_total",
    "Transient RPC/IO failures observed (before retry)",
    labelnames=("op",),
)
_BREAKER_STATE = _obs_gauge(
    "kv_breaker_state",
    "Per-region circuit breaker state (0=closed, 1=half-open, 2=open)",
    labelnames=("region",),
)
_BREAKER_TRANSITIONS = _obs_counter(
    "kv_breaker_transitions_total",
    "Circuit breaker state transitions",
    labelnames=("region", "to"),
)

def is_retryable(exc: BaseException) -> bool:
    """True when the retry layer may re-attempt after this failure."""
    return isinstance(exc, TransientError)


class RetryPolicy(
    namedtuple(
        "RetryPolicy",
        "max_attempts base_delay_ms max_delay_ms deadline_ms jitter_seed sleep clock",
        defaults=(6, 1.0, 50.0, 10_000.0, None, time.sleep, time.monotonic),
    )
):
    """Backoff budget for one class of operations (an immutable record).

    Delays follow AWS-style *decorrelated jitter*: each sleep is drawn
    uniformly from ``[base, prev * 3]`` and capped at ``max_delay_ms``,
    which spreads concurrent retriers apart instead of synchronizing them
    the way plain exponential backoff does.  ``deadline_ms`` bounds the
    total time an operation may spend across attempts; ``max_attempts``
    bounds their number.  ``jitter_seed`` seeds the jitter (``None``: the
    OS).  ``sleep`` and ``clock`` are injectable for tests.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be positive, got {self.max_attempts}")
        if self.base_delay_ms < 0 or self.max_delay_ms < self.base_delay_ms:
            raise ValueError(
                f"need 0 <= base_delay_ms <= max_delay_ms, got "
                f"{self.base_delay_ms}/{self.max_delay_ms}"
            )
        if self.deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be positive, got {self.deadline_ms}")
        return self

    def attempts(
        self, op: str = "op", deadline: Deadline | None = None
    ) -> "AttemptTracker":
        """A fresh attempt/deadline budget for one logical operation.

        ``deadline`` (the *query's* deadline, distinct from this policy's
        per-operation ``deadline_ms``) caps every backoff sleep to the
        remaining query budget and fails the operation with
        :class:`~repro.runtime.deadline.QueryTimeoutError` once that
        budget is spent — a retry layer must never out-wait its caller.
        """
        return AttemptTracker(self, op, deadline=deadline)

    def run(
        self,
        fn: Callable[[], T],
        op: str = "op",
        breaker: CircuitBreaker | None = None,
        deadline: Deadline | None = None,
    ) -> T:
        """Call ``fn`` under this policy, retrying transient failures.

        ``breaker`` (when given) records each transient failure and the
        final success, driving the region's degradation state.
        """
        tracker = self.attempts(op, deadline=deadline)
        while True:
            try:
                value = fn()
            except Exception as exc:
                if not is_retryable(exc):
                    raise
                if breaker is not None:
                    breaker.record_failure()
                tracker.failed(exc)  # sleeps, or raises RetryExhaustedError
            else:
                if breaker is not None:
                    breaker.record_success()
                return value


class AttemptTracker:
    """Mutable attempt/deadline state for one retried operation.

    ``failed(exc)`` either sleeps the next backoff delay and returns (the
    caller re-attempts) or raises ``RetryExhaustedError`` chained to
    ``exc``.  ``reset()`` refills the attempt budget — used by resumable
    scans, where delivered progress means the next attempt is a *new* RPC
    (the overall deadline still stands).
    """

    def __init__(
        self,
        policy: RetryPolicy,
        op: str,
        deadline: Deadline | None = None,
    ):
        self._policy = policy
        self._op = op
        self._rng = None  # the jitter source, made at the first failure
        self._deadline = policy.clock() + policy.deadline_ms / 1000.0
        self._query_deadline = deadline
        self._failures = 0
        self._prev_delay_ms = policy.base_delay_ms

    @property
    def failures(self) -> int:
        """Transient failures seen since the last reset."""
        return self._failures

    def reset(self) -> None:
        """Refill the attempt budget (progress was made)."""
        self._failures = 0
        self._prev_delay_ms = self._policy.base_delay_ms

    def failed(self, exc: BaseException) -> None:
        """Account one transient failure: back off, or give up.

        The failure, and the retry when there is one, are attributed to the
        calling query's profile.
        """
        policy = self._policy
        self._failures += 1
        if _RPC_FAILURE_TOTAL._registry.enabled:
            _RPC_FAILURE_TOTAL.labels(op=self._op).inc()
        profile = current_profile()
        if profile is not None:
            profile.add(rpc_failures=1)
        out_of_attempts = self._failures >= policy.max_attempts
        out_of_time = policy.clock() >= self._deadline
        if out_of_attempts or out_of_time:
            budget = "attempts" if out_of_attempts else "deadline"
            raise RetryExhaustedError(
                f"{self._op}: {budget} budget exhausted after "
                f"{self._failures} transient failures"
            ) from exc
        query_deadline = self._query_deadline
        if query_deadline is not None and query_deadline.expired():
            # The query's budget is gone: retrying could still succeed,
            # but nobody is waiting for the answer any more.
            raise QueryTimeoutError(
                f"retry:{self._op}", query_deadline.budget_ms
            ) from exc
        if self._rng is None:
            import random  # only here: most operations never back off

            self._rng = random.Random(policy.jitter_seed)
        delay_ms = min(
            policy.max_delay_ms,
            self._rng.uniform(policy.base_delay_ms, self._prev_delay_ms * 3.0),
        )
        self._prev_delay_ms = max(delay_ms, policy.base_delay_ms)
        capped = False
        if query_deadline is not None:
            remaining_ms = query_deadline.remaining_ms()
            if delay_ms > remaining_ms:
                # Never sleep past the remaining query budget: shorten the
                # backoff (possibly to zero) and let the next attempt run
                # against whatever budget is left.
                delay_ms = max(0.0, remaining_ms)
                capped = True
        if _RETRY_TOTAL._registry.enabled:
            _RETRY_TOTAL.labels(
                op=self._op, capped="yes" if capped else "no"
            ).inc()
        if profile is not None:
            profile.add(retries=1, retry_backoff_ms=delay_ms)
        if delay_ms > 0:
            policy.sleep(delay_ms / 1000.0)


CLOSED = "closed"
HALF_OPEN = "half_open"
OPEN = "open"
_STATE_VALUE = {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}


class CircuitBreaker:
    """Consecutive-failure breaker for one region.

    ``closed`` is healthy.  ``failure_threshold`` consecutive failures
    open the breaker; after ``reset_after_s`` it moves to ``half_open``
    (one probe allowed), and the next success closes it again while a
    failure re-opens it.  State is exported through the
    ``kv_breaker_state`` gauge.
    """

    def __init__(
        self,
        failure_threshold: int = 8,
        reset_after_s: float = 5.0,
        clock: Callable[[], float] = time.monotonic,
        name: str = "",
    ):
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be positive, got {failure_threshold}"
            )
        self.name = name
        self._threshold = failure_threshold
        self._reset_after = reset_after_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive = 0
        self._opened_at = 0.0

    def _set_state(self, state: str) -> None:
        if state == self._state:
            return
        self._state = state
        if _BREAKER_STATE._registry.enabled:
            _BREAKER_STATE.labels(region=self.name or "-").set(_STATE_VALUE[state])
            _BREAKER_TRANSITIONS.labels(region=self.name or "-", to=state).inc()

    @property
    def state(self) -> str:
        """Current state, promoting ``open`` to ``half_open`` after cooldown."""
        with self._lock:
            if (
                self._state == OPEN
                and self._clock() - self._opened_at >= self._reset_after
            ):
                self._set_state(HALF_OPEN)
            return self._state

    @property
    def healthy(self) -> bool:
        """False while the breaker is open (cooldown not yet elapsed)."""
        return self.state != OPEN

    def allow(self) -> bool:
        """True when a caller that *can* skip work should proceed normally."""
        return self.state != OPEN

    def record_success(self) -> None:
        """Note a successful operation: closes the breaker."""
        with self._lock:
            self._consecutive = 0
            self._set_state(CLOSED)

    def record_failure(self) -> None:
        """Note a failed operation: may open the breaker."""
        with self._lock:
            self._consecutive += 1
            if self._state == HALF_OPEN or self._consecutive >= self._threshold:
                self._opened_at = self._clock()
                self._set_state(OPEN)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CircuitBreaker({self.name!r}, state={self.state})"
