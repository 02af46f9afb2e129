"""Tests for the deterministic, seeded fault injector, and what its RPC
delays prove about the multi-range scheduler and batched multi_get."""

from __future__ import annotations

import threading
import time

import pytest

from repro.kvstore import Cluster, Scan, simfault
from repro.kvstore.errors import (
    TransientError,
    TransientIOError,
    TransientRPCError,
)
from repro.kvstore.simfault import (
    CRASH_POINTS,
    FaultConfig,
    FaultInjector,
    SimulatedCrash,
    fault_injection,
    fault_injector,
    get_fault,
    scan_fault,
    set_fault_injector,
)


@pytest.fixture(autouse=True)
def _no_global_injector():
    set_fault_injector(None)
    yield
    set_fault_injector(None)


def k(i):
    return i.to_bytes(4, "big")


@pytest.fixture()
def cluster(tmp_path):
    c = Cluster(workers=4, split_rows=200)
    t = c.create_table("t")
    for i in range(600):
        t.put(k(i), b"v%06d" % i)
    yield c, t
    c.close()


def _scan_outcomes(injector: FaultInjector, n: int) -> list[bool]:
    out = []
    for _ in range(n):
        try:
            injector.scan_fault()
            out.append(True)
        except TransientRPCError:
            out.append(False)
    return out


class TestFaultConfig:
    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            FaultConfig(scan_fail_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(get_fail_rate=-0.1)

    def test_rejects_bad_max_consecutive(self):
        with pytest.raises(ValueError):
            FaultConfig(max_consecutive=0)

    def test_rejects_unknown_crash_point(self):
        with pytest.raises(ValueError):
            FaultConfig(crash_points=frozenset({"flush.nope"}))

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            FaultConfig(scan_delay_ms=-1.0)
        with pytest.raises(ValueError):
            FaultConfig(get_delay_ms=-0.5)

    def test_uniform_sets_every_rate(self):
        cfg = FaultConfig.uniform(0.25, seed=9)
        assert (
            cfg.scan_fail_rate
            == cfg.get_fail_rate
            == cfg.flush_fail_rate
            == cfg.compact_fail_rate
            == 0.25
        )
        assert cfg.seed == 9


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        cfg = FaultConfig(scan_fail_rate=0.3, seed=5)
        a = _scan_outcomes(FaultInjector(cfg), 200)
        b = _scan_outcomes(FaultInjector(cfg), 200)
        assert a == b
        assert not all(a) and any(a)  # the rate actually bites

    def test_different_seed_different_sequence(self):
        a = _scan_outcomes(FaultInjector(FaultConfig(scan_fail_rate=0.3, seed=1)), 200)
        b = _scan_outcomes(FaultInjector(FaultConfig(scan_fail_rate=0.3, seed=2)), 200)
        assert a != b

    def test_sites_have_independent_streams(self):
        # Interleaving get draws must not perturb the scan stream.
        cfg = FaultConfig.uniform(0.3, seed=7)
        plain = _scan_outcomes(FaultInjector(cfg), 100)
        interleaved = FaultInjector(cfg)
        out = []
        for i in range(100):
            for _ in range(i % 3):
                try:
                    interleaved.get_fault()
                except TransientRPCError:
                    pass
            try:
                interleaved.scan_fault()
                out.append(True)
            except TransientRPCError:
                out.append(False)
        assert out == plain

    def test_max_consecutive_bounds_failure_streaks(self):
        inj = FaultInjector(FaultConfig(scan_fail_rate=1.0, max_consecutive=3))
        outcomes = _scan_outcomes(inj, 12)
        # Certain failure, but every 4th attempt is forced to succeed.
        assert outcomes == [False, False, False, True] * 3

    def test_zero_rate_never_fails(self):
        inj = FaultInjector(FaultConfig())
        assert all(_scan_outcomes(inj, 50))
        assert inj.injected == 0

    def test_injected_counter(self):
        inj = FaultInjector(FaultConfig(scan_fail_rate=1.0, max_consecutive=2))
        _scan_outcomes(inj, 6)
        assert inj.injected == 4  # F F S F F S

    def test_fault_types_by_site(self):
        inj = FaultInjector(FaultConfig.uniform(1.0))
        with pytest.raises(TransientRPCError):
            inj.get_fault()
        with pytest.raises(TransientIOError):
            inj.flush_fault()
        with pytest.raises(TransientIOError):
            inj.compact_fault()
        # Both are retryable transients.
        assert issubclass(TransientRPCError, TransientError)
        assert issubclass(TransientIOError, TransientError)


class TestCrashPoints:
    def test_crash_is_one_shot(self):
        inj = FaultInjector(
            FaultConfig(crash_points=frozenset({"flush.pre_rename"}))
        )
        with pytest.raises(SimulatedCrash) as err:
            inj.crash("flush.pre_rename")
        assert err.value.point == "flush.pre_rename"
        inj.crash("flush.pre_rename")  # disarmed: no-op
        assert inj.crashes == 1

    def test_rearm(self):
        inj = FaultInjector(FaultConfig())
        inj.crash("compact.post_rename")  # not armed: no-op
        inj.arm("compact.post_rename")
        assert inj.armed() == frozenset({"compact.post_rename"})
        with pytest.raises(SimulatedCrash):
            inj.crash("compact.post_rename")
        assert inj.armed() == frozenset()

    def test_unknown_point_rejected(self):
        inj = FaultInjector(FaultConfig())
        with pytest.raises(ValueError):
            inj.crash("bogus")
        with pytest.raises(ValueError):
            inj.arm("bogus")

    def test_simulated_crash_is_not_an_exception(self):
        # `except Exception` cleanup (retry loops, drain paths) must never
        # swallow a simulated process death.
        assert not isinstance(SimulatedCrash("flush.pre_rename"), Exception)
        assert isinstance(SimulatedCrash("flush.pre_rename"), BaseException)

    def test_all_points_named(self):
        assert set(CRASH_POINTS) == {
            "flush.pre_rename",
            "flush.post_rename",
            "compact.pre_rename",
            "compact.post_rename",
            "rpc.scan",
            "rpc.get",
        }


class TestProcessGlobalHooks:
    def test_hooks_are_noops_when_disabled(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr(simfault.time, "sleep", sleeps.append)
        assert fault_injector() is None
        scan_fault()  # must not raise
        get_fault()
        assert sleeps == []

    def test_context_manager_installs_and_restores(self):
        outer = FaultInjector(FaultConfig())
        set_fault_injector(outer)
        with fault_injection(FaultConfig.uniform(1.0, max_consecutive=1)) as inj:
            assert fault_injector() is inj
            with pytest.raises(TransientRPCError):
                scan_fault()
        assert fault_injector() is outer

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with fault_injection(FaultConfig()):
                raise RuntimeError("boom")
        assert fault_injector() is None


class TestRPCAccounting:
    """One emulated RPC per request: sleeps counted, not timed."""

    @pytest.fixture()
    def sleeps(self, monkeypatch):
        calls = []
        monkeypatch.setattr(simfault.time, "sleep", lambda s: calls.append(s))
        return calls

    def test_point_get_pays_one_rpc(self, cluster, sleeps):
        _, t = cluster
        with fault_injection(FaultConfig(get_delay_ms=1.0)):
            t.get(k(5))
        assert len(sleeps) == 1

    def test_multi_get_batches_pay_per_region(self, cluster, sleeps):
        _, t = cluster
        keys = [k(i) for i in range(0, 600, 10)]  # spans every region
        with fault_injection(FaultConfig(get_delay_ms=1.0)):
            values = t.multi_get(keys)
        assert values == [b"v%06d" % i for i in range(0, 600, 10)]
        # One RPC per region batch, far fewer than one per key.
        assert len(sleeps) <= len(t.regions)
        assert len(sleeps) < len(keys)

    def test_region_scan_pays_one_rpc(self, cluster, sleeps):
        _, t = cluster
        with fault_injection(FaultConfig(scan_delay_ms=1.0)):
            rows = list(t.regions[0].execute_scan(Scan(k(0), k(10))))
        assert len(rows) == 10
        assert len(sleeps) == 1


class TestSchedulerOverlap:
    def test_scheduled_overlaps_remote_scans(self, cluster, monkeypatch):
        """The tentpole property: under remote-RPC latency the scheduler
        overlaps the region scans a pool-less table pays one at a time.
        Counted as scan delays in flight at once, not timed, so a loaded
        machine cannot flip it."""
        _, t = cluster
        poolless = Cluster(workers=1, split_rows=200)
        serial_t = poolless.create_table("t")
        for key, value in t.scan(Scan()):
            serial_t.put(key, value)
        windows = [(k(i * 12), k(i * 12 + 12)) for i in range(50)]  # every region
        model = FaultConfig(scan_delay_ms=100.0)
        sleep = time.sleep
        lock = threading.Lock()
        in_flight = [0, 0]  # now, most at once

        def tracked(seconds):
            if seconds != model.scan_delay_ms / 1000.0:
                return sleep(seconds)
            with lock:
                in_flight[0] += 1
                in_flight[1] = max(in_flight[1], in_flight[0])
            try:
                sleep(seconds)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr(simfault.time, "sleep", tracked)

        def run(table):
            in_flight[1] = 0
            with fault_injection(model):
                rows = list(table.multi_range_scan(windows))
            return rows, in_flight[1]

        try:
            serial_rows, serial_peak = run(serial_t)
        finally:
            poolless.close()
        sched_rows, sched_peak = run(t)
        assert len(t.regions) >= 3
        assert sched_rows == serial_rows and len(sched_rows) == 600
        assert serial_peak == 1
        assert sched_peak >= 2
