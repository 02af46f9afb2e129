"""Tests for the retry policy and its attempt and deadline budgets."""

from __future__ import annotations

import pytest

from repro import obs
from repro.kvstore.errors import RetryExhaustedError, TransientRPCError
from repro.kvstore.retry import RetryPolicy, is_retryable
from repro.obs.profile import QueryProfile, profile_scope


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, s: float) -> None:
        self.now += s


def _policy(**overrides) -> tuple[RetryPolicy, list[float]]:
    """A fast test policy with recorded (not slept) delays."""
    sleeps: list[float] = []
    defaults = dict(
        max_attempts=4,
        base_delay_ms=1.0,
        max_delay_ms=10.0,
        deadline_ms=10_000.0,
        jitter_seed=7,
        sleep=sleeps.append,
    )
    defaults.update(overrides)
    return RetryPolicy(**defaults), sleeps


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_ms=5.0, max_delay_ms=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(deadline_ms=0.0)

    def test_success_passthrough(self):
        policy, sleeps = _policy()
        assert policy.run(lambda: 41 + 1, op="t") == 42
        assert sleeps == []

    def test_transient_failures_are_retried(self):
        policy, sleeps = _policy()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientRPCError("blip")
            return "ok"

        assert policy.run(flaky, op="t") == "ok"
        assert calls["n"] == 3
        assert len(sleeps) == 2
        # Decorrelated jitter stays inside [base, max].
        assert all(0.001 <= s <= 0.010 for s in sleeps)

    def test_fatal_errors_propagate_immediately(self):
        policy, sleeps = _policy()
        with pytest.raises(ValueError):
            policy.run(lambda: (_ for _ in ()).throw(ValueError("fatal")), op="t")
        assert sleeps == []

    def test_attempt_budget_exhaustion_chains_cause(self):
        policy, _ = _policy(max_attempts=3)

        def always_fail():
            raise TransientRPCError("down")

        with pytest.raises(RetryExhaustedError) as err:
            policy.run(always_fail, op="t")
        assert "attempts" in str(err.value)
        assert isinstance(err.value.__cause__, TransientRPCError)

    def test_deadline_budget(self):
        clock = FakeClock()
        policy, _ = _policy(deadline_ms=100.0, max_attempts=1000, clock=clock)
        tracker = policy.attempts("t")
        tracker.failed(TransientRPCError("1"))  # within deadline: backs off
        clock.advance(1.0)  # a second: way past the 100 ms deadline
        with pytest.raises(RetryExhaustedError) as err:
            tracker.failed(TransientRPCError("2"))
        assert "deadline" in str(err.value)

    def test_tracker_reset_refills_attempts(self):
        policy, _ = _policy(max_attempts=2)
        tracker = policy.attempts("scan")
        tracker.failed(TransientRPCError("1"))
        tracker.reset()  # progress was made: new RPC, new budget
        tracker.failed(TransientRPCError("2"))
        with pytest.raises(RetryExhaustedError):
            tracker.failed(TransientRPCError("3"))

    def test_zero_delay_policy_never_sleeps(self):
        policy, sleeps = _policy(base_delay_ms=0.0, max_delay_ms=0.0)
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise TransientRPCError("blip")
            return "ok"

        assert policy.run(flaky, op="t") == "ok"
        assert sleeps == []

    def test_failure_and_retry_attributed_to_active_profile(self):
        def once_failing():
            calls = {"n": 0}

            def flaky():
                calls["n"] += 1
                if calls["n"] < 2:
                    raise TransientRPCError("blip")
                return "ok"

            return flaky

        policy, _ = _policy()
        profile = QueryProfile("t")
        with profile_scope(profile):
            assert policy.run(once_failing(), op="t") == "ok"
        assert (profile.retries, profile.rpc_failures) == (1, 1)
        # Outside any profile the same recovery is attributed nowhere.
        assert policy.run(once_failing(), op="t") == "ok"
        assert (profile.retries, profile.rpc_failures) == (1, 1)

    def test_is_retryable_classification(self):
        assert is_retryable(TransientRPCError("x"))
        assert not is_retryable(ValueError("x"))
        assert not is_retryable(RetryExhaustedError("x"))

