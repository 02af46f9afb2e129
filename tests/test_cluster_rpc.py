"""RPC framing round-trips and the cross-process deadline contract."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.cluster import rpc
from repro.runtime.deadline import Deadline


@pytest.fixture()
def sockpair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


def test_request_round_trip(sockpair):
    a, b = sockpair
    args = ("table/region-0001", b"\x00key", b"value\xff", [1, 2, 3])
    rpc.send_request(a, rpc.OP_PUT, args, remaining_ms=250.0)
    op, remaining_ms, got = rpc.recv_request(b)
    assert op == rpc.OP_PUT
    assert remaining_ms == 250.0
    assert got == args


def test_request_defaults_to_unbounded(sockpair):
    a, b = sockpair
    rpc.send_request(a, rpc.OP_STATS, ())
    _, remaining_ms, _ = rpc.recv_request(b)
    assert remaining_ms == float("inf")


def test_response_round_trip_all_statuses(sockpair):
    a, b = sockpair
    for status, body in (
        (rpc.STATUS_OK, [(b"k", b"v")]),
        (rpc.STATUS_ERROR, ("KeyError", "boom")),
        (rpc.STATUS_EXPIRED, ([(b"k", b"v")], False)),
    ):
        a.sendall(rpc.response_frame(status, body))
        got_status, got_body = rpc.recv_response(b)
        assert (got_status, got_body) == (status, body)


def test_back_to_back_frames_do_not_bleed(sockpair):
    a, b = sockpair
    rpc.send_request(a, rpc.OP_GET_BATCH, (b"k1",))
    rpc.send_request(a, rpc.OP_GET_BATCH, (b"k2",))
    assert rpc.recv_request(b)[2] == (b"k1",)
    assert rpc.recv_request(b)[2] == (b"k2",)


def test_large_frame_survives(sockpair):
    a, b = sockpair
    blob = b"x" * (2 * 1024 * 1024)
    done = threading.Thread(target=rpc.send_request, args=(a, rpc.OP_PUT, (blob,)))
    done.start()
    _, _, args = rpc.recv_request(b)
    done.join()
    assert args == (blob,)


def test_oversized_frame_rejected(sockpair):
    a, b = sockpair
    a.sendall((rpc.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
    with pytest.raises(rpc.RPCProtocolError):
        rpc.recv_request(b)


def test_peer_death_mid_frame_is_connection_closed(sockpair):
    a, b = sockpair
    a.sendall((100).to_bytes(4, "big") + b"partial")
    a.close()
    with pytest.raises(rpc.ConnectionClosed):
        rpc.recv_request(b)


def test_deadline_budget_on_the_wire():
    assert rpc.deadline_budget_ms(None) == float("inf")
    d = Deadline(10_000.0)
    budget = rpc.deadline_budget_ms(d)
    assert 0.0 < budget <= 10_000.0
    d.cancel()
    assert rpc.deadline_budget_ms(d) == 0.0


def test_reanchor_builds_worker_local_deadline():
    assert rpc.reanchor_deadline(float("inf")) is None
    d = rpc.reanchor_deadline(5_000.0)
    assert d is not None and not d.expired()
    assert 0.0 < d.remaining_ms() <= 5_000.0


def test_reanchor_spent_budget_expires_immediately():
    d = rpc.reanchor_deadline(0.0)
    assert d is not None
    time.sleep(0.001)
    assert d.expired()


def test_budget_shrinks_across_hops():
    # Simulating coordinator -> worker: the re-anchored budget can never
    # exceed what the coordinator had left.
    d = Deadline(50.0)
    time.sleep(0.01)
    budget = rpc.deadline_budget_ms(d)
    worker_side = rpc.reanchor_deadline(budget)
    assert worker_side.budget_ms <= 50.0 - 9.0
