"""Unit tests for the Deadline token and deadline-aware retry backoff."""

from __future__ import annotations

import pytest

from repro.kvstore.errors import RetryExhaustedError, TransientError
from repro.kvstore.retry import RetryPolicy
from repro.runtime.deadline import Deadline, QueryTimeoutError


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestDeadline:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            Deadline(0)
        with pytest.raises(ValueError):
            Deadline(-5)

    def test_remaining_counts_down(self):
        clock = FakeClock()
        d = Deadline(1000, clock=clock)
        assert d.remaining_ms() == pytest.approx(1000)
        clock.advance(0.4)
        assert d.remaining_ms() == pytest.approx(600)
        assert not d.expired()
        clock.advance(0.6)
        assert d.expired()
        assert d.remaining_ms() <= 0

    def test_check_raises_with_location(self):
        clock = FakeClock()
        d = Deadline(50, clock=clock)
        d.check("region.scan")  # not expired: no-op
        clock.advance(1.0)
        with pytest.raises(QueryTimeoutError) as exc:
            d.check("region.scan")
        assert exc.value.where == "region.scan"
        assert exc.value.budget_ms == 50
        assert "50 ms" in str(exc.value)

    def test_cancel_force_expires(self):
        d = Deadline(60_000)
        assert not d.expired()
        d.cancel()
        assert d.expired()
        assert d.remaining_s() == 0.0
        with pytest.raises(QueryTimeoutError):
            d.check("cancelled")

    def test_partial_flag_is_one_way(self):
        d = Deadline(1000, allow_partial=True)
        assert d.allow_partial
        assert not d.partial
        d.note_partial()
        assert d.partial
        d.note_partial()  # idempotent
        assert d.partial


class TestRetryDeadlineCap:
    def _policy(self, clock, sleeps):
        return RetryPolicy(
            max_attempts=10,
            base_delay_ms=40.0,
            max_delay_ms=40.0,
            deadline_ms=60_000.0,
            jitter_seed=1,
            sleep=sleeps.append,
            clock=clock,
        )

    def test_backoff_never_sleeps_past_remaining_budget(self):
        clock = FakeClock()
        sleeps: list[float] = []
        policy = self._policy(clock, sleeps)
        # 25 ms of query budget left, backoff wants 40 ms: capped to 25 ms.
        deadline = Deadline(25, clock=clock)
        tracker = policy.attempts("scan", deadline=deadline)
        tracker.failed(TransientError("boom"))
        assert len(sleeps) == 1
        assert sleeps[0] * 1000.0 <= 25.0 + 1e-9

    def test_expired_budget_raises_query_timeout(self):
        clock = FakeClock()
        sleeps: list[float] = []
        policy = self._policy(clock, sleeps)
        deadline = Deadline(10, clock=clock)
        tracker = policy.attempts("get", deadline=deadline)
        clock.advance(0.05)  # budget gone before the first retry decision
        cause = TransientError("boom")
        with pytest.raises(QueryTimeoutError) as exc:
            tracker.failed(cause)
        assert exc.value.where == "retry:get"
        assert exc.value.__cause__ is cause
        assert sleeps == []  # never slept on a dead query

    def test_capped_retries_surface_in_metrics(self):
        from repro import obs

        clock = FakeClock()
        sleeps: list[float] = []
        policy = self._policy(clock, sleeps)
        counter = obs.registry().get("kv_retry_total")
        capped_before = counter.labels(op="scan", capped="yes").value
        uncapped_before = counter.labels(op="scan", capped="no").value
        deadline = Deadline(25, clock=clock)
        tracker = policy.attempts("scan", deadline=deadline)
        tracker.failed(TransientError("boom"))
        tracker2 = policy.attempts("scan")  # no query deadline
        tracker2.failed(TransientError("boom"))
        assert counter.labels(op="scan", capped="yes").value == capped_before + 1
        assert counter.labels(op="scan", capped="no").value == uncapped_before + 1

    def test_without_query_deadline_behaves_as_before(self):
        clock = FakeClock()
        sleeps: list[float] = []
        policy = self._policy(clock, sleeps)
        tracker = policy.attempts("scan")
        for _ in range(policy.max_attempts - 1):
            tracker.failed(TransientError("boom"))
        with pytest.raises(RetryExhaustedError):
            tracker.failed(TransientError("boom"))
        assert len(sleeps) == policy.max_attempts - 1
        assert all(s * 1000.0 <= policy.max_delay_ms for s in sleeps)

    def test_run_propagates_query_timeout(self):
        clock = FakeClock()
        sleeps: list[float] = []
        policy = self._policy(clock, sleeps)
        deadline = Deadline(10, clock=clock)

        def always_fails():
            clock.advance(0.02)  # each attempt burns past the budget
            raise TransientError("flaky")

        with pytest.raises(QueryTimeoutError):
            policy.run(always_fails, op="get", deadline=deadline)
