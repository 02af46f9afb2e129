"""Coordinator-side handles for region-server processes.

:class:`NodeClient` pools unix-socket connections to one worker and turns
transport failures (connection refused/reset, EOF mid-frame — how a dead
worker presents) into
:class:`~repro.kvstore.errors.ReplicaDownError`.  Every call carries the
caller's remaining deadline budget on the wire, and the socket timeout is
derived from that budget plus a margin — a wedged worker can never hang a
query past its deadline.  A response frame it cannot parse is a transport
failure too: the socket is closed, never pooled again.

:class:`WorkerHandle` owns the process lifecycle.  ``launch`` starts
``python -S -m repro.cluster.worker NODE_ID DATA_DIR SOCKET_PATH`` — no
``site``, so the worker loads the storage engine and the standard-library
modules it needs, nothing more — and ``wait_ready`` reads the worker's
readiness line from its stdout (split so a fleet starts side by side).
The worker's stdin is a pipe only this process holds open: when the
coordinator exits, however it dies, the worker reads EOF and shuts down.
SIGKILL is the fault-drill path; SHUTDOWN the graceful one.
"""

from __future__ import annotations

import os
import select
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Optional, Union

from repro.cluster import rpc
from repro.cluster.metrics import RPC_FAILURE_TOTAL, RPC_MS, RPC_TOTAL
from repro.cluster.worker import READY_LINE
from repro.kvstore import errors as kv_errors
from repro.kvstore.errors import FormatMismatchError, KVError, ReplicaDownError
from repro.runtime.deadline import Deadline, QueryTimeoutError

# Ceiling on any single RPC; the no-hang backstop for unbounded calls.
DEFAULT_RPC_TIMEOUT_S = 30.0
# Slack added to the deadline-derived socket timeout so the worker's own
# cooperative expiry (which returns a partial page) wins the race against
# the client-side socket timeout.
RPC_TIMEOUT_MARGIN_S = 2.0

# The directory holding the ``repro`` package this process imported; a
# worker runs without ``site``, so it gets this path explicitly.
_PACKAGE_ROOT = str(Path(__file__).resolve().parents[2])

_OP_NAMES = {
    rpc.OP_PUT: "put",
    rpc.OP_DELETE: "delete",
    rpc.OP_GET_BATCH: "get_batch",
    rpc.OP_SCAN_PAGE: "scan_page",
    rpc.OP_DIGEST: "digest",
    rpc.OP_FLUSH: "flush",
    rpc.OP_DROP: "drop",
    rpc.OP_STATS: "stats",
    rpc.OP_ARM_CRASH: "arm_crash",
    rpc.OP_SHUTDOWN: "shutdown",
    rpc.OP_PUT_BATCH: "put_batch",
}


def _rebuild_error(name: str, message: str) -> Exception:
    """Map a worker-side ``(class name, message)`` back to an exception."""
    cls = getattr(kv_errors, name, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        return cls(message)
    if name == "ValueError":
        return ValueError(message)
    return KVError(f"{name}: {message}")


class NodeClient:
    """A pooled RPC client for one region-server node."""

    def __init__(self, node_id: str, socket_path: Path):
        self.node_id = node_id
        self.socket_path = Path(socket_path)
        self._pool: list[socket.socket] = []
        self._mu = threading.Lock()

    def _checkout(self) -> socket.socket:
        with self._mu:
            if self._pool:
                return self._pool.pop()
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(DEFAULT_RPC_TIMEOUT_S)
            sock.connect(str(self.socket_path))
        except OSError as exc:
            sock.close()
            raise ReplicaDownError(
                f"connect to {self.node_id} failed: {exc}"
            ) from exc
        return sock

    def _checkin(self, sock: socket.socket) -> None:
        with self._mu:
            self._pool.append(sock)

    def close(self) -> None:
        """Drop every pooled connection (idempotent)."""
        with self._mu:
            pool, self._pool = self._pool, []
        for sock in pool:
            try:
                sock.close()
            except OSError:
                pass

    def call(
        self,
        op: int,
        args: Union[tuple, bytes],
        deadline: Optional[Deadline] = None,
    ) -> Any:
        """One RPC round trip; returns the response body.

        ``args`` is the op's argument tuple, or its :func:`rpc.encode`
        bytes when the caller sends the same request to several nodes.
        Raises :class:`ReplicaDownError` on transport failure or a response
        that does not parse, :class:`QueryTimeoutError` when the worker
        reported the deadline spent before it could start the op, and the
        rebuilt worker-side exception on ``STATUS_ERROR``.
        """
        op_name = _OP_NAMES.get(op, str(op))
        remaining = rpc.deadline_budget_ms(deadline)
        timeout = DEFAULT_RPC_TIMEOUT_S
        if remaining != float("inf"):
            timeout = min(timeout, remaining / 1000.0 + RPC_TIMEOUT_MARGIN_S)
        if not isinstance(args, bytes):
            args = rpc.encode(args)  # before checkout: a bad value leaks no socket
        sock = self._checkout()
        t0 = time.perf_counter()
        try:
            sock.settimeout(timeout)
            rpc.send_request(sock, op, args, remaining)
            status, body = rpc.recv_response(sock)
        except (OSError, rpc.ConnectionClosed, rpc.RPCProtocolError) as exc:
            sock.close()
            RPC_FAILURE_TOTAL.labels(node=self.node_id).inc()
            raise ReplicaDownError(
                f"rpc {op_name} to {self.node_id} failed: {exc}"
            ) from exc
        self._checkin(sock)
        RPC_TOTAL.labels(op=op_name, node=self.node_id).inc()
        RPC_MS.labels(op=op_name).observe((time.perf_counter() - t0) * 1000.0)
        if status == rpc.STATUS_OK:
            return body
        if status == rpc.STATUS_EXPIRED:
            budget = deadline.budget_ms if deadline is not None else 0.0
            raise QueryTimeoutError(f"rpc.{op_name}", budget)
        name, message = body
        raise _rebuild_error(name, message)


class WorkerHandle:
    """Lifecycle of one region-server process."""

    def __init__(self, node_id: str, cluster_dir: Path):
        self.node_id = node_id
        self.cluster_dir = Path(cluster_dir)
        self.socket_path = self.cluster_dir / f"{node_id}.sock"
        self.data_dir = self.cluster_dir / node_id
        self._process: Optional[subprocess.Popen] = None
        self.client = NodeClient(node_id, self.socket_path)

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.poll() is None

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    def start(self, ready_timeout_s: float = 30.0) -> None:
        """Start the worker and block until it is ready."""
        self.launch()
        self.wait_ready(ready_timeout_s)

    def launch(self) -> None:
        """Start the worker without waiting for it (no-op while alive); the
        worker replaces any stale socket file itself."""
        if self.alive:
            return
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (_PACKAGE_ROOT, env.get("PYTHONPATH")) if p
        )
        self._process = subprocess.Popen(
            [
                sys.executable,
                "-S",
                "-m",
                "repro.cluster.worker",
                self.node_id,
                str(self.data_dir),
                str(self.socket_path),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )

    def wait_ready(self, ready_timeout_s: float = 30.0) -> None:
        """Block until the launched worker reports that it is listening; a
        worker whose node directory holds another stored format raises
        :class:`FormatMismatchError`."""
        process = self._process
        readable, _, _ = select.select([process.stdout], [], [], ready_timeout_s)
        if not readable:
            raise ReplicaDownError(
                f"worker {self.node_id} not ready after {ready_timeout_s:.0f}s"
            )
        line = process.stdout.readline()
        if line != READY_LINE:
            try:
                code = process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                code = None
            name, _, message = line.decode("utf-8", "replace").rstrip("\n").partition(" ")
            if name == FormatMismatchError.__name__:
                raise FormatMismatchError(message)
            raise ReplicaDownError(
                f"worker {self.node_id} died during startup (exit {code})"
            )
        process.stdout.close()

    def kill(self) -> None:
        """SIGKILL the worker — the fault-drill path, nothing is drained."""
        if self.alive:
            self._process.kill()
            self._process.wait(timeout=5.0)
        self.client.close()

    def stop(self) -> None:
        """Graceful shutdown: drain, fsync, exit (idempotent).

        The pool closes once ``SHUTDOWN`` is answered, so the worker's
        thread behind every other pooled connection sees EOF and exits.  A
        worker that cannot take ``SHUTDOWN`` (not yet listening) is killed.
        """
        process = self._process
        if process is None:
            return
        if self.alive:
            try:
                self.client.call(rpc.OP_SHUTDOWN, ())
            except (ReplicaDownError, QueryTimeoutError):
                process.kill()
        self.client.close()
        try:
            process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=5.0)
        for pipe in (process.stdin, process.stdout):
            if pipe is not None:
                pipe.close()
        self._process = None
