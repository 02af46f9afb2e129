"""The RPC value codec and the frames built on it.

Every value the codec takes comes back with its exact types; every cut and
single-byte change of a request or response frame either parses or raises
``RPCProtocolError`` — never another exception, never a value of a type
the protocol does not carry.  A client that receives a frame it cannot
parse closes that socket and reports the node down.  Tier-1 runs a quarter
of the profile's examples (25); the ``fuzz`` profile sweeps deeper.
"""

from __future__ import annotations

import math
import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import rpc
from repro.cluster.client import NodeClient
from repro.cluster.replication import ReplicatedStore
from repro.cluster.worker import worker_main
from repro.kvstore.errors import ReplicaDownError

WIRE_TYPES = (type(None), bool, int, float, bytes, str, tuple, list, dict)

_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**300), 2**300)
    | st.floats(allow_nan=False)
    | st.binary(max_size=40)
    | st.text(max_size=20)
)
_rows = st.lists(st.tuples(st.binary(max_size=30), st.binary(max_size=60)), max_size=12)
_keys = st.none() | st.booleans() | st.integers() | st.binary(max_size=8) | st.text(max_size=8)


def _values(max_leaves: int):
    return st.recursive(
        _scalars | _rows,
        lambda inner: (
            st.lists(inner, max_size=6)
            | st.lists(inner, max_size=6).map(tuple)
            | st.dictionaries(_keys, inner, max_size=5)
        ),
        max_leaves=max_leaves,
    )


# Frames get smaller values: each is parsed again per cut and per changed byte.
values, frame_values = _values(30), _values(12)
_budgets = st.sampled_from([float("inf"), 0.0, 250.0]) | st.floats(0, 1e9)

# A byte keeps its value under none of these; a drawn value is added per example.
FLIPS = (lambda b: b ^ 0x01, lambda b: b ^ 0x80, lambda b: 0x00, lambda b: 0xFF)


def _same(a, b) -> bool:
    """Equal values of identical types, containers included."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return len(a) == len(b) and all(
            _same(ka, kb) and _same(a[ka], b[kb]) for ka, kb in zip(a, b)
        )
    return a == b


def _only_wire_types(value) -> bool:
    if type(value) not in WIRE_TYPES:
        return False
    if isinstance(value, (tuple, list)):
        return all(_only_wire_types(v) for v in value)
    if isinstance(value, dict):
        return all(_only_wire_types(k) and _only_wire_types(v) for k, v in value.items())
    return True


def _parses_or_protocol_error(parse, payload: bytes) -> None:
    try:
        parsed = parse(payload)
    except rpc.RPCProtocolError:
        return
    assert _only_wire_types(parsed)


def _sweep(parse, payload: bytes, drawn: int) -> None:
    """Every cut and several single-byte changes of ``payload``."""
    for cut in range(len(payload)):
        _parses_or_protocol_error(parse, payload[:cut])
    changed = bytearray(payload)
    for at, byte in enumerate(payload):
        for value in {flip(byte) for flip in FLIPS} | {drawn}:
            if value != byte:
                changed[at] = value
                _parses_or_protocol_error(parse, bytes(changed))
        changed[at] = byte


@settings(derandomize=True, deadline=None)
@given(values)
def test_values_round_trip_with_their_types(value):
    assert _same(rpc.decode(rpc.encode(value)), value)


@settings(derandomize=True, deadline=None, max_examples=settings.default.max_examples // 4)
@given(
    op=st.integers(0, 255),
    budget=_budgets,
    args=st.lists(frame_values, max_size=4).map(tuple),
    drawn=st.integers(0, 255),
)
def test_request_frames_parse_or_raise_protocol_error(op, budget, args, drawn):
    frame = rpc.request_frame(op, args, budget)
    assert rpc.request_frame(op, rpc.encode(args), budget) == frame
    payload = frame[4:]
    assert int.from_bytes(frame[:4], "big") == len(payload)
    got_op, got_budget, got_args = rpc.parse_request(payload)
    assert (got_op, got_budget) == (op, budget) and _same(got_args, args)
    _sweep(rpc.parse_request, payload, drawn)


@settings(derandomize=True, deadline=None, max_examples=settings.default.max_examples // 4)
@given(
    response=st.tuples(st.sampled_from([rpc.STATUS_OK, rpc.STATUS_EXPIRED]), frame_values)
    | st.tuples(st.just(rpc.STATUS_ERROR), st.tuples(st.text(max_size=20), st.text())),
    drawn=st.integers(0, 255),
)
def test_response_frames_parse_or_raise_protocol_error(response, drawn):
    status, body = response
    payload = rpc.response_frame(status, body)[4:]
    got_status, got_body = rpc.parse_response(payload)
    assert got_status == status and _same(got_body, body)
    _sweep(rpc.parse_response, payload, drawn)


@pytest.mark.parametrize(
    "payload",
    [
        b"x",  # unknown tag
        b"N\x00",  # trailing byte
        b"t" + (1 << 31).to_bytes(4, "big") + b"N",  # count past the frame
        b"r" + (1 << 30).to_bytes(4, "big"),  # row lengths past the frame
        b"m\x00\x00\x00\x01l\x00\x00\x00\x00N",  # unhashable key
        b"s\x00\x00\x00\x01\xff",  # not UTF-8
        b"t\x00\x00\x00\x01" * (rpc.MAX_DEPTH + 1) + b"N",  # nested too deep
    ],
)
def test_malformed_values_raise_protocol_error(payload):
    with pytest.raises(rpc.RPCProtocolError):
        rpc.decode(payload)


def test_encoder_refuses_what_the_decoder_cannot_build():
    for value in (object(), bytearray(b"k"), [(b"k", bytearray(b"v"))]):
        with pytest.raises(TypeError):
            rpc.encode((value,))
    nested: list = []
    for _ in range(rpc.MAX_DEPTH):
        nested = [nested]
    with pytest.raises(ValueError):
        rpc.encode(nested)


def test_error_status_needs_class_name_and_message():
    for body in (None, ("KeyError",), ("KeyError", 3), ["KeyError", "boom"]):
        with pytest.raises(rpc.RPCProtocolError):
            rpc.parse_response(rpc.response_frame(rpc.STATUS_ERROR, body)[4:])
    with pytest.raises(rpc.RPCProtocolError, match="status"):
        rpc.parse_response(bytes([7]) + rpc.encode(None))


def _serve_once(listener: socket.socket, reply: bytes) -> None:
    conn, _ = listener.accept()
    with conn:
        rpc.recv_request(conn)
        conn.sendall(reply)
        conn.recv(1)  # hold the connection until the client closes it


@pytest.mark.parametrize(
    "reply",
    [
        (2).to_bytes(4, "big") + bytes([rpc.STATUS_OK]) + b"?",  # unknown tag
        (2).to_bytes(4, "big") + bytes([9]) + b"N",  # unknown status
        (1).to_bytes(4, "big") + bytes([rpc.STATUS_ERROR]),  # no body
    ],
)
def test_unparseable_response_is_replica_down_and_closes_the_socket(tmp_path, reply):
    path = tmp_path / "node.sock"
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(str(path))
    listener.listen(1)
    server = threading.Thread(target=_serve_once, args=(listener, reply), daemon=True)
    server.start()
    client = NodeClient("node-x", path)
    used: list[socket.socket] = []
    checkout = client._checkout
    client._checkout = lambda: used.append(checkout()) or used[-1]
    try:
        with pytest.raises(ReplicaDownError, match="rpc stats to node-x failed"):
            client.call(rpc.OP_STATS, ())
        assert client._pool == []
        assert used[0].fileno() == -1
    finally:
        server.join(timeout=5.0)
        listener.close()


def test_worker_drops_a_connection_that_sends_an_unparseable_request(tmp_path):
    path = tmp_path / "node.sock"
    listening = threading.Event()
    worker = threading.Thread(
        target=worker_main,
        args=("node-w", str(tmp_path / "data"), str(path), lambda w: listening.set()),
        daemon=True,
    )
    worker.start()
    assert listening.wait(10.0)
    client = NodeClient("node-w", path)
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(5.0)
            sock.connect(str(path))
            payload = bytes([rpc.OP_STATS]) + rpc._F8.pack(float("inf")) + b"?"
            sock.sendall(len(payload).to_bytes(4, "big") + payload)
            assert sock.recv(1) == b""  # closed without a reply
        assert client.call(rpc.OP_STATS, ())["node"] == "node-w"  # still serving
    finally:
        client.call(rpc.OP_SHUTDOWN, ())
        client.close()
        worker.join(timeout=10.0)
    assert not worker.is_alive()


class _RecordingClient:
    def __init__(self):
        self.calls: list = []

    def call(self, op, args, deadline=None):
        self.calls.append((op, args))
        return len(rpc.decode(args)[1]) if op == rpc.OP_PUT_BATCH else True


class _TwoReplicas:
    """A router placing every store on two live, fresh nodes."""

    read_quorum = write_quorum = 2
    page_rows = 512

    def __init__(self):
        self.clients = {"a": _RecordingClient(), "b": _RecordingClient()}

    def replicas(self, store_id):
        return ["a", "b"]

    def client(self, node):
        return self.clients[node]

    def node_is_down(self, node):
        return False

    def node_has_hints(self, node):
        return False


def test_replicated_write_encodes_once_for_every_replica(monkeypatch):
    router = _TwoReplicas()
    store = ReplicatedStore("t/region-0000", router)
    encodes: list = []
    encode = rpc.encode
    monkeypatch.setattr(rpc, "encode", lambda v: encodes.append(v) or encode(v))
    rows = [(b"k%03d" % i, b"v" * i) for i in range(50)]

    store.put_batch(rows)

    assert len(encodes) == 1
    (op_a, sent_a), (op_b, sent_b) = (c.calls[0] for c in router.clients.values())
    assert op_a == op_b == rpc.OP_PUT_BATCH
    assert sent_a is sent_b
    assert rpc.decode(sent_a) == ("t/region-0000", rows)
