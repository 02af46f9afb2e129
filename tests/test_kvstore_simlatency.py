"""Tests for simulated remote-RPC latency and what it proves about the
multi-range scheduler and batched multi_get."""

from __future__ import annotations

import threading
import time

import pytest

from repro.kvstore import Cluster, Scan
from repro.kvstore import simlatency
from repro.kvstore.simlatency import (
    SimulatedRPC,
    rpc_latency,
    set_simulated_rpc,
    simulated_rpc,
)


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


class TestKnob:
    def test_disabled_by_default(self):
        assert simulated_rpc() is None

    def test_context_sets_and_restores(self):
        with rpc_latency(SimulatedRPC(scan_ms=1.0)):
            assert simulated_rpc().scan_ms == 1.0
            with rpc_latency(SimulatedRPC(scan_ms=2.0)):
                assert simulated_rpc().scan_ms == 2.0
            assert simulated_rpc().scan_ms == 1.0
        assert simulated_rpc() is None

    def test_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with rpc_latency(SimulatedRPC(scan_ms=1.0)):
                raise RuntimeError("boom")
        assert simulated_rpc() is None

    def test_set_none_disables(self):
        set_simulated_rpc(SimulatedRPC(get_ms=1.0))
        assert simulated_rpc() is not None
        set_simulated_rpc(None)
        assert simulated_rpc() is None

    def test_delays_are_free_when_disabled(self, monkeypatch):
        calls = []
        monkeypatch.setattr(simlatency.time, "sleep", lambda s: calls.append(s))
        simlatency.scan_delay()
        simlatency.get_delay()
        assert calls == []


class TestRPCAccounting:
    """One emulated RPC per request: sleeps counted, not timed."""

    @pytest.fixture()
    def sleeps(self, monkeypatch):
        calls = []
        monkeypatch.setattr(simlatency.time, "sleep", lambda s: calls.append(s))
        return calls

    def test_point_get_pays_one_rpc(self, cluster, sleeps):
        _, t = cluster
        with rpc_latency(SimulatedRPC(get_ms=1.0)):
            t.get(k(5))
        assert len(sleeps) == 1

    def test_multi_get_batches_pay_per_region(self, cluster, sleeps):
        _, t = cluster
        keys = [k(i) for i in range(0, 600, 10)]  # spans every region
        with rpc_latency(SimulatedRPC(get_ms=1.0)):
            values = t.multi_get(keys)
        assert values == [b"v%06d" % i for i in range(0, 600, 10)]
        # One RPC per region batch, far fewer than one per key.
        assert len(sleeps) <= len(t.regions)
        assert len(sleeps) < len(keys)

    def test_region_scan_pays_one_rpc(self, cluster, sleeps):
        _, t = cluster
        with rpc_latency(SimulatedRPC(scan_ms=1.0)):
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
        model = SimulatedRPC(scan_ms=100.0)
        sleep = time.sleep
        lock = threading.Lock()
        in_flight = [0, 0]  # now, most at once

        def tracked(seconds):
            if seconds != model.scan_ms / 1000.0:
                return sleep(seconds)
            with lock:
                in_flight[0] += 1
                in_flight[1] = max(in_flight[1], in_flight[0])
            try:
                sleep(seconds)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr(simlatency.time, "sleep", tracked)

        def run(table):
            in_flight[1] = 0
            with rpc_latency(model):
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
