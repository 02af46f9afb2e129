"""Length-prefixed binary framing for the region-server RPC protocol.

Request frame::

    u32 length | u8 op | f8 deadline_remaining_ms | value (the args tuple)

Response frame::

    u32 length | u8 status | value (the body)

``length`` counts everything after itself; integers and floats are
big-endian.  ``deadline_remaining_ms`` is the caller's *remaining* budget
(``inf`` when the call is unbounded): monotonic-clock instants are
meaningless across processes, so the worker re-anchors a fresh
:class:`~repro.runtime.deadline.Deadline` of that many milliseconds on its
own clock (see :func:`reanchor_deadline`).

A value is one tag byte and its payload:

====  ==========================================================
tag   payload
====  ==========================================================
``N`` ``None`` (no payload); ``F`` / ``T`` are ``False`` / ``True``
``i`` u8 n, then n bytes of a two's-complement ``int``
``d`` f8, a ``float``
``b`` u32 n, then n bytes
``s`` u32 n, then n bytes of UTF-8 (lone surrogates pass through)
``t`` u32 n, then n values: a ``tuple``
``l`` u32 n, then n values: a ``list``
``m`` u32 n, then n key values and value values, alternating: a ``dict``
``r`` u32 n, then 2n u32 lengths, then the 2n byte strings: a ``list``
      of n ``(bytes, bytes)`` tuples (rows, the bulk of every scan page
      and write batch, without a tag per field)
====  ==========================================================

Containers nest at most :data:`MAX_DEPTH` deep.  The encoder takes these
exact types (no subclass, no ``bytearray``) and raises ``TypeError`` on
anything else.  That is every value the ops and the ``(class name,
message)`` errors carry, and all the decoder can build: it constructs nothing else, and a frame it cannot parse — truncated,
a byte changed, trailing bytes, an unknown tag, op status or error shape —
raises :class:`RPCProtocolError` and nothing else.

Statuses: ``STATUS_OK`` carries the op's return value; ``STATUS_ERROR``
carries ``(exception_class_name, message)``; ``STATUS_EXPIRED`` means the
worker noticed deadline expiry mid-operation and carries whatever partial
body the op defines (scans return the rows produced so far).
"""

from __future__ import annotations

import socket
import struct

from repro.runtime.deadline import Deadline

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from typing import Any

_LEN = struct.Struct(">I")
_REQ_HEAD = struct.Struct(">Bd")  # op, deadline_remaining_ms
_RESP_HEAD = struct.Struct(">B")  # status
_F8 = struct.Struct(">d")

MAX_FRAME_BYTES = 256 * 1024 * 1024
MAX_DEPTH = 32

# Op codes.
OP_PING = 1
OP_PUT = 3
OP_DELETE = 4
OP_GET = 5
OP_GET_BATCH = 6
OP_SCAN_PAGE = 7
OP_DIGEST = 8
OP_FLUSH = 9
OP_DROP = 10
OP_STATS = 11
OP_ARM_CRASH = 12
OP_SHUTDOWN = 13
OP_PUT_BATCH = 14

STATUS_OK = 0
STATUS_ERROR = 1
STATUS_EXPIRED = 2
_STATUSES = (STATUS_OK, STATUS_ERROR, STATUS_EXPIRED)


class RPCProtocolError(Exception):
    """The peer sent a frame this protocol cannot parse."""


class ConnectionClosed(Exception):
    """The peer closed the socket mid-frame (worker death shows up here)."""


# -- values ------------------------------------------------------------------


def _is_rows(value: list) -> bool:
    return all(
        type(row) is tuple
        and len(row) == 2
        and type(row[0]) is bytes
        and type(row[1]) is bytes
        for row in value
    )


def _encode(value: Any, out: list, depth: int) -> None:
    kind = type(value)
    if value is None:
        out.append(b"N")
    elif kind is bool:
        out.append(b"T" if value else b"F")
    elif kind is bytes:
        out.append(b"b" + _LEN.pack(len(value)))
        out.append(value)
    elif kind is int:
        n = (value.bit_length() + 8) // 8
        if n > 255:
            raise ValueError(f"int of {value.bit_length()} bits is too wide for the wire")
        out.append(b"i" + bytes((n,)) + value.to_bytes(n, "big", signed=True))
    elif kind is float:
        out.append(b"d" + _F8.pack(value))
    elif kind is str:
        data = value.encode("utf-8", "surrogatepass")
        out.append(b"s" + _LEN.pack(len(data)))
        out.append(data)
    elif kind in (tuple, list, dict):
        if depth >= MAX_DEPTH:
            raise ValueError(f"value nests deeper than {MAX_DEPTH} containers")
        if kind is list and value and _is_rows(value):
            fields = _fields(value)
            out.append(b"r" + _LEN.pack(len(value)))
            out.append(struct.pack(f">{len(fields)}I", *map(len, fields)))
            out.extend(fields)
            return
        out.append({tuple: b"t", list: b"l", dict: b"m"}[kind] + _LEN.pack(len(value)))
        items = _fields(value.items()) if kind is dict else value
        for item in items:
            _encode(item, out, depth + 1)
    else:
        raise TypeError(f"cannot put a {kind.__name__} on the wire")


def _fields(pairs) -> list:
    return [field for pair in pairs for field in pair]


def encode(value: Any) -> bytes:
    """The wire bytes of ``value`` (see the module docstring for the tags)."""
    out: list = []
    _encode(value, out, 0)
    return b"".join(out)


def _take(buf: bytes, pos: int, n: int) -> int:
    """The end of ``n`` bytes at ``pos``; raises when ``buf`` holds fewer."""
    end = pos + n
    if end > len(buf):
        raise RPCProtocolError(f"value truncated at byte {len(buf)} of {end}")
    return end


def _count(buf: bytes, pos: int, unit: int) -> tuple[int, int]:
    """A u32 item count at ``pos`` and the position after it; the count is
    checked against the bytes left (each item takes at least ``unit``)."""
    end = _take(buf, pos, 4)
    (n,) = _LEN.unpack_from(buf, pos)
    _take(buf, end, n * unit)
    return n, end


def _decode(buf: bytes, pos: int, depth: int) -> tuple[Any, int]:
    end = _take(buf, pos, 1)
    tag = buf[pos]
    pos = end
    if tag == 0x62:  # b
        n, pos = _count(buf, pos, 1)
        return buf[pos : pos + n], pos + n
    if tag == 0x72:  # r
        if depth >= MAX_DEPTH:
            raise RPCProtocolError(f"value nests deeper than {MAX_DEPTH} containers")
        n, pos = _count(buf, pos, 8)
        lengths = struct.unpack_from(f">{2 * n}I", buf, pos)
        pos += 8 * n
        _take(buf, pos, sum(lengths))
        rows = []
        for i in range(0, 2 * n, 2):
            mid = pos + lengths[i]
            end = mid + lengths[i + 1]
            rows.append((buf[pos:mid], buf[mid:end]))
            pos = end
        return rows, pos
    if tag == 0x4E:  # N
        return None, pos
    if tag == 0x54:  # T
        return True, pos
    if tag == 0x46:  # F
        return False, pos
    if tag == 0x69:  # i
        start = _take(buf, pos, 1)
        end = _take(buf, start, buf[pos])
        return int.from_bytes(buf[start:end], "big", signed=True), end
    if tag == 0x64:  # d
        end = _take(buf, pos, 8)
        return _F8.unpack_from(buf, pos)[0], end
    if tag == 0x73:  # s
        n, pos = _count(buf, pos, 1)
        try:
            return buf[pos : pos + n].decode("utf-8", "surrogatepass"), pos + n
        except UnicodeDecodeError as exc:
            raise RPCProtocolError(f"string is not UTF-8: {exc}") from None
    if tag in (0x74, 0x6C, 0x6D):  # t l m
        if depth >= MAX_DEPTH:
            raise RPCProtocolError(f"value nests deeper than {MAX_DEPTH} containers")
        n, pos = _count(buf, pos, 2 if tag == 0x6D else 1)
        items = []
        for _ in range(2 * n if tag == 0x6D else n):
            item, pos = _decode(buf, pos, depth + 1)
            items.append(item)
        if tag == 0x74:
            return tuple(items), pos
        if tag == 0x6C:
            return items, pos
        try:
            return dict(zip(items[::2], items[1::2])), pos
        except TypeError as exc:  # an unhashable key
            raise RPCProtocolError(f"bad dict key: {exc}") from None
    raise RPCProtocolError(f"unknown value tag 0x{tag:02x} at byte {pos - 1}")


def decode(buf: bytes, pos: int = 0) -> Any:
    """The one value encoded in ``buf[pos:]``; :class:`RPCProtocolError`
    when those bytes are not exactly one well-formed value."""
    value, end = _decode(buf, pos, 0)
    if end != len(buf):
        raise RPCProtocolError(f"{len(buf) - end} trailing bytes after the value")
    return value


# -- frames ------------------------------------------------------------------


def request_frame(
    op: int, args: tuple | bytes, remaining_ms: float = float("inf")
) -> bytes:
    """A whole request frame.  ``args`` is the op's tuple or its
    :func:`encode` bytes, so a request sent to several nodes is encoded once."""
    body = args if isinstance(args, bytes) else encode(args)
    head = _REQ_HEAD.pack(op, remaining_ms)
    return _LEN.pack(len(head) + len(body)) + head + body


def parse_request(payload: bytes) -> tuple[int, float, tuple]:
    """``(op, remaining_ms, args)`` of a request frame's bytes after its length."""
    if len(payload) < _REQ_HEAD.size:
        raise RPCProtocolError(f"short request frame ({len(payload)} bytes)")
    op, remaining_ms = _REQ_HEAD.unpack_from(payload)
    if remaining_ms != remaining_ms:
        raise RPCProtocolError("deadline budget is NaN")
    args = decode(payload, _REQ_HEAD.size)
    if not isinstance(args, tuple):
        raise RPCProtocolError(f"request args must be a tuple, got {type(args)}")
    return op, remaining_ms, args


def response_frame(status: int, body: Any) -> bytes:
    """A whole response frame."""
    payload = _RESP_HEAD.pack(status) + encode(body)
    return _LEN.pack(len(payload)) + payload


def parse_response(payload: bytes) -> tuple[int, Any]:
    """``(status, body)`` of a response frame's bytes after its length."""
    if len(payload) < _RESP_HEAD.size:
        raise RPCProtocolError(f"short response frame ({len(payload)} bytes)")
    status = payload[0]
    if status not in _STATUSES:
        raise RPCProtocolError(f"unknown status {status}")
    body = decode(payload, _RESP_HEAD.size)
    if status == STATUS_ERROR and not (
        type(body) is tuple and len(body) == 2 and all(type(s) is str for s in body)
    ):
        raise RPCProtocolError("error body is not (class name, message)")
    return status, body


# -- sockets -----------------------------------------------------------------


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionClosed(f"peer closed after {len(buf)}/{n} bytes")
        buf.extend(chunk)
    return bytes(buf)


def _recv_frame(sock: socket.socket) -> bytes:
    (length,) = _LEN.unpack(_recv_exact(sock, 4))
    if length > MAX_FRAME_BYTES:
        raise RPCProtocolError(f"frame of {length} bytes exceeds the cap")
    return _recv_exact(sock, length)


def send_request(
    sock: socket.socket,
    op: int,
    args: tuple | bytes,
    remaining_ms: float = float("inf"),
) -> None:
    """Write one request frame (``args`` as in :func:`request_frame`)."""
    sock.sendall(request_frame(op, args, remaining_ms))


def recv_request(sock: socket.socket) -> tuple[int, float, tuple]:
    """Read one request frame as ``(op, remaining_ms, args)``."""
    return parse_request(_recv_frame(sock))


def recv_response(sock: socket.socket) -> tuple[int, Any]:
    """Read one response frame as ``(status, body)``."""
    return parse_response(_recv_frame(sock))


# -- deadlines ---------------------------------------------------------------


def deadline_budget_ms(deadline: Deadline | None) -> float:
    """The remaining-budget value to put on the wire (``inf`` = unbounded)."""
    if deadline is None:
        return float("inf")
    return max(0.0, deadline.remaining_ms())


def reanchor_deadline(remaining_ms: float) -> Deadline | None:
    """Rebuild a worker-side deadline from a wire budget.

    ``inf`` (unbounded) maps to ``None``; a budget that arrived already
    spent maps to a token expiring in 1e-6 ms — effectively immediately,
    but still a valid :class:`Deadline` so the op's cooperative checks
    fire through the normal path.
    """
    if remaining_ms == float("inf"):
        return None
    return Deadline(max(1e-6, remaining_ms))
