"""Overload smoke: the system degrades gracefully, never hangs.

32 concurrent mixed queries run against an emulated-remote deployment
(the fault injector's per-RPC delay) with a tight deadline and a small admission
window.  Every query must terminate promptly — completed, partial, shed by
admission, or failed fast on its deadline — and the deployment must serve
follow-up queries normally afterwards.  A watchdog timeout on the futures
is the no-hang assertion.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor, as_completed

import pytest

from repro import (
    AdmissionRejectedError,
    QueryTimeoutError,
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
    TMan,
    TManConfig,
)
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.kvstore.simfault import FaultConfig, fault_injection
from repro.model import MBR, TimeRange

N_CLIENTS = 32
DEADLINE_MS = 50.0
# Generous multiple of the deadline: a query may burn one full in-flight
# RPC past expiry, but must never wait out the whole workload.
WATCHDOG_S = 30.0


@pytest.fixture(scope="module")
def tman():
    config = TManConfig(
        boundary=TDRIVE_SPEC.boundary,
        max_resolution=12,
        num_shards=2,
        kv_workers=4,
        split_rows=200,
        admission_max_inflight=4,
        admission_max_queue=8,
        admission_queue_timeout_ms=DEADLINE_MS,
    )
    t = TMan(config)
    t.bulk_load(tdrive_like(80, seed=11))
    yield t
    t.close()


def _mixed_queries():
    span = TDRIVE_SPEC.boundary
    mid_x = (span.x1 + span.x2) / 2
    mid_y = (span.y1 + span.y2) / 2
    window = MBR(span.x1, span.y1, mid_x, mid_y)
    return [
        TemporalRangeQuery(TimeRange(0, 10**9)),
        SpatialRangeQuery(window),
        STRangeQuery(window, TimeRange(0, 10**9)),
    ]


def test_overload_completes_and_recovers(tman):
    queries = _mixed_queries()
    outcomes = {"ok": 0, "partial": 0, "timeout": 0, "shed": 0}
    lock = threading.Lock()

    def client(i: int) -> str:
        q = queries[i % len(queries)]
        try:
            res = tman.query(
                q,
                deadline_ms=DEADLINE_MS,
                allow_partial=(i % 2 == 0),
                priority="interactive" if i % 4 else "batch",
            )
            return "partial" if res.partial else "ok"
        except QueryTimeoutError:
            return "timeout"
        except AdmissionRejectedError:
            return "shed"

    with fault_injection(FaultConfig(scan_delay_ms=5.0, get_delay_ms=1.0)):
        with ThreadPoolExecutor(max_workers=N_CLIENTS) as pool:
            futures = [pool.submit(client, i) for i in range(N_CLIENTS)]
            for future in as_completed(futures, timeout=WATCHDOG_S):
                outcome = future.result()
                with lock:
                    outcomes[outcome] += 1

    assert sum(outcomes.values()) == N_CLIENTS
    # Graceful degradation, not collapse: something made it through, and
    # anything that did not was shed or timed out deliberately.
    assert outcomes["ok"] + outcomes["partial"] >= 1
    # Bounded shed: admission never rejects more than the arrivals beyond
    # slots + queue capacity.
    assert outcomes["shed"] <= N_CLIENTS - 4

    # No slots leaked: the controller is fully drained.
    stats = tman.admission.stats()
    assert stats["inflight"] == 0
    assert stats["queued"] == 0

    # The deployment recovers: an unloaded follow-up query succeeds.
    res = tman.query(_mixed_queries()[0], deadline_ms=10_000.0)
    assert len(res) > 0
    assert res.partial is False


def test_no_thread_leaks(tman):
    before = threading.active_count()
    with fault_injection(FaultConfig(scan_delay_ms=2.0)):
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(
                    lambda: tman.query(
                        _mixed_queries()[0],
                        deadline_ms=DEADLINE_MS,
                        allow_partial=True,
                    )
                )
                for _ in range(16)
            ]
            for future in as_completed(futures, timeout=WATCHDOG_S):
                future.result()
    # The client pool is gone; only the deployment's own workers remain.
    assert threading.active_count() <= before + 1
