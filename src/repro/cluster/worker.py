"""The region-server worker process.

One worker == one shared-nothing node: it owns a private data directory
(``<cluster_dir>/<node_id>/``), opens one
:class:`~repro.kvstore.durable.DurableLSMStore` per hosted region replica
(*lazily, post-spawn* — the parent's WAL/SSTable handles are never
inherited, see the fork-safety notes in :mod:`repro.kvstore.wal`), and
serves the :mod:`repro.cluster.rpc` protocol over a unix-domain socket
with one thread per coordinator connection.

Scans are stateless pages: ``SCAN_PAGE(store_id, windows, max_rows)``
reads a region's sorted, disjoint window list with one
``scan_windows`` cursor, materializes up to ``max_rows`` rows and tells
the client whether the list is exhausted.  The client resumes with the
window list trimmed to after its last key — and because no cursor lives
on the worker, it can resume the same page walk on a *different replica*
when this one dies, yielding a byte-identical stream (the replication
layer's failover contract).

Deadlines arrive as remaining-budget milliseconds and are re-anchored on
this process's monotonic clock (:func:`repro.cluster.rpc.reanchor_deadline`);
a page that runs out of budget returns the rows produced so far with
``expired=True`` instead of hanging.

The ``rpc.scan`` / ``rpc.get`` crash points (armed via ``OP_ARM_CRASH``)
kill the worker with ``os._exit(1)`` mid-request — the real-process
analogue of the thread-mode :class:`~repro.kvstore.simfault.SimulatedCrash`,
observed by the coordinator as a dead connection.

The node directory carries the format stamp
(:func:`~repro.kvstore.durable.claim_format`), checked before the socket
listens: a worker started on a directory of another format writes
``FormatMismatchError <message>`` to stdout instead of :data:`READY_LINE`
and exits.

Run as ``python -S -m repro.cluster.worker NODE_ID DATA_DIR SOCKET_PATH``
(what :class:`~repro.cluster.client.WorkerHandle` starts): the worker writes
:data:`READY_LINE` to stdout once its socket listens, and shuts down when
stdin reaches EOF — the coordinator holds the only write end, so the
worker outlives it by no more than a drain.  Keep this module's imports to
the RPC framing and the engine: ``tests/test_package_imports.py`` pins the
closure.  It has no ``dataclasses``, runtime ``typing``, ``pathlib`` or
``random``: the engine's records are named tuples, its files ``os.path``
strings, and the fault injector and retry jitter import ``random`` when
they first draw.
"""

from __future__ import annotations

import contextlib
import os
import socket
import sys
import threading
from collections.abc import Callable

from repro.cluster import rpc
from repro.kvstore import simfault
from repro.kvstore.durable import DurableLSMStore, claim_format
from repro.kvstore.errors import FormatMismatchError
from repro.kvstore.memtable import TOMBSTONE, Window
from repro.runtime.deadline import Deadline

# Rows between cooperative deadline checks inside a scan page (mirrors
# repro.kvstore.region.DEADLINE_CHECK_ROWS).
DEADLINE_CHECK_ROWS = 64

# What a worker writes to stdout once it accepts connections.
READY_LINE = b"ready\n"


class _Worker:
    """Per-process state: the stores this node hosts, and their locks."""

    def __init__(self, node_id: str, data_dir: str):
        self.node_id = node_id
        self.data_dir = data_dir
        self._stores: dict[str, DurableLSMStore] = {}
        self._locks: dict[str, threading.RLock] = {}
        self._mu = threading.Lock()
        self.shutting_down = threading.Event()
        self.listener: socket.socket | None = None

    def shutdown(self) -> None:
        """Stop serving: wake the accept loop, which then drains and exits."""
        self.shutting_down.set()
        if self.listener is not None:
            with contextlib.suppress(OSError):  # a second SHUTDOWN
                self.listener.shutdown(socket.SHUT_RDWR)

    def store(self, store_id: str) -> tuple[DurableLSMStore, threading.RLock]:
        """The (lazily opened) store and its op lock for ``store_id``."""
        with self._mu:
            store = self._stores.get(store_id)
            if store is None:
                # Replicas make a write durable; no fsync per WAL append.
                store = DurableLSMStore(os.path.join(self.data_dir, store_id), sync=False)
                self._stores[store_id] = store
                self._locks[store_id] = threading.RLock()
            return store, self._locks[store_id]

    def drop(self, store_id: str) -> None:
        """Delete a store and its directory (replica moved away or region
        retired); a store not opened since the worker started is opened
        first, so its directory goes too."""
        store, lock = self.store(store_id)
        with self._mu:
            self._stores.pop(store_id, None)
            self._locks.pop(store_id, None)
        with lock:
            store.destroy()

    def close_all(self) -> None:
        with self._mu:
            stores = list(self._stores.values())
            self._stores.clear()
            self._locks.clear()
        for store in stores:
            store.close()

    def stats(self) -> dict:
        with self._mu:
            return {
                "node": self.node_id,
                "pid": os.getpid(),
                "stores": {
                    sid: {"memtable_bytes": store.memtable_bytes}
                    for sid, store in sorted(self._stores.items())
                },
            }


def _scan_page(
    store: DurableLSMStore,
    windows: list[Window],
    max_rows: int,
    deadline: Deadline | None,
) -> tuple[list[tuple[bytes, bytes]], bool, bool]:
    """``(rows, done, expired)`` for one stateless page of a window list."""
    rows: list[tuple[bytes, bytes]] = []
    scanned = 0
    for key, value in store.scan_windows(windows):
        scanned += 1
        if (
            deadline is not None
            and scanned % DEADLINE_CHECK_ROWS == 0
            and deadline.expired()
        ):
            return rows, False, True
        rows.append((key, value))
        if len(rows) >= max_rows:
            return rows, False, False
    return rows, True, False


def _page_digest(rows: list[tuple[bytes, bytes]]) -> int:
    """CRC32 over a page's keys and values (length-delimited).

    The quorum read path compares this against the digest of the page the
    primary replica streamed; replicas that agree need not ship the rows.
    """
    import zlib

    crc = 0
    for key, value in rows:
        crc = zlib.crc32(len(key).to_bytes(4, "big") + key, crc)
        crc = zlib.crc32(len(value).to_bytes(4, "big") + value, crc)
    return crc


def _handle(worker: _Worker, op: int, remaining_ms: float, args: tuple):
    """Execute one request; returns ``(status, body)``."""
    deadline = rpc.reanchor_deadline(remaining_ms)
    if deadline is not None and deadline.expired():
        return rpc.STATUS_EXPIRED, None

    if op == rpc.OP_PUT:
        store_id, key, value = args
        store, lock = worker.store(store_id)
        with lock:
            store.put(key, value)
        return rpc.STATUS_OK, True

    if op == rpc.OP_PUT_BATCH:
        store_id, rows = args
        store, lock = worker.store(store_id)
        with lock:
            for key, value in rows:
                if value == TOMBSTONE:
                    store.delete(key)
                else:
                    store.put(key, value)
        return rpc.STATUS_OK, len(rows)

    if op == rpc.OP_DELETE:
        store_id, key = args
        store, lock = worker.store(store_id)
        with lock:
            store.delete(key)
        return rpc.STATUS_OK, True

    if op == rpc.OP_GET_BATCH:
        store_id, keys = args
        simfault.crash_point("rpc.get")
        store, lock = worker.store(store_id)
        with lock:
            return rpc.STATUS_OK, store.get_batch(keys)

    if op == rpc.OP_SCAN_PAGE:
        store_id, windows, max_rows = args
        simfault.crash_point("rpc.scan")
        store, lock = worker.store(store_id)
        with lock:
            return rpc.STATUS_OK, _scan_page(store, windows, max_rows, deadline)

    if op == rpc.OP_DIGEST:
        store_id, windows, max_rows = args
        store, lock = worker.store(store_id)
        with lock:
            rows, done, expired = _scan_page(store, windows, max_rows, deadline)
        return rpc.STATUS_OK, (_page_digest(rows), len(rows), done, expired)

    if op == rpc.OP_FLUSH:
        (store_id,) = args
        store, lock = worker.store(store_id)
        with lock:
            store.flush()
        return rpc.STATUS_OK, True

    if op == rpc.OP_DROP:
        (store_id,) = args
        worker.drop(store_id)
        return rpc.STATUS_OK, True

    if op == rpc.OP_STATS:
        return rpc.STATUS_OK, worker.stats()

    if op == rpc.OP_ARM_CRASH:
        (point,) = args
        injector = simfault.fault_injector()
        if injector is None:
            injector = simfault.FaultInjector(simfault.FaultConfig())
            simfault.set_fault_injector(injector)
        injector.arm(point)
        return rpc.STATUS_OK, True

    if op == rpc.OP_SHUTDOWN:
        worker.shutdown()
        return rpc.STATUS_OK, True

    return rpc.STATUS_ERROR, ("RPCProtocolError", f"unknown op {op}")


def _serve_connection(worker: _Worker, conn: socket.socket) -> None:
    try:
        while True:
            try:
                op, remaining_ms, args = rpc.recv_request(conn)
            except (rpc.ConnectionClosed, rpc.RPCProtocolError, OSError):
                return
            try:
                frame = rpc.response_frame(*_handle(worker, op, remaining_ms, args))
            except simfault.SimulatedCrash:
                # The armed crash point fired: die the way a killed
                # process would — no response, no cleanup, no close.
                os._exit(1)
            except Exception as exc:  # noqa: BLE001 - wire errors to caller
                frame = rpc.response_frame(
                    rpc.STATUS_ERROR, (type(exc).__name__, str(exc))
                )
            try:
                conn.sendall(frame)
            except OSError:
                return
            if worker.shutting_down.is_set():
                return
    finally:
        conn.close()


def worker_main(
    node_id: str,
    data_dir: str,
    socket_path: str,
    on_listening: Callable[[_Worker], None] | None = None,
) -> None:
    """Serve one node until ``SHUTDOWN``; ``on_listening(worker)`` runs once
    the socket accepts connections.  A node directory of another stored
    format raises :class:`FormatMismatchError` before anything is served."""
    claim_format(data_dir)
    worker = _Worker(node_id, data_dir)
    with contextlib.suppress(FileNotFoundError):
        os.unlink(socket_path)
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(socket_path)
    os.chmod(socket_path, 0o700)
    listener.listen(16)
    # SHUTDOWN shuts the listener down, which fails the blocked accept.
    worker.listener = listener
    if on_listening is not None:
        on_listening(worker)
    threads: list[threading.Thread] = []
    try:
        while not worker.shutting_down.is_set():
            try:
                conn, _ = listener.accept()
            except OSError:
                break
            t = threading.Thread(
                target=_serve_connection,
                args=(worker, conn),
                daemon=True,
                name=f"rs-{node_id}-conn",
            )
            t.start()
            threads.append(t)
    finally:
        listener.close()
        for t in threads:
            t.join(timeout=2.0)
        worker.close_all()
        with contextlib.suppress(FileNotFoundError):
            os.unlink(socket_path)


def _shutdown_on_eof(worker: _Worker) -> None:
    """Read stdin to EOF — the coordinator has gone — then shut down."""
    while os.read(0, 4096):
        pass
    worker.shutdown()


def _listening(worker: _Worker) -> None:
    threading.Thread(
        target=_shutdown_on_eof, args=(worker,), daemon=True, name="rs-stdin"
    ).start()
    os.write(1, READY_LINE)


def main(argv: list[str] | None = None) -> None:
    """``python -S -m repro.cluster.worker NODE_ID DATA_DIR SOCKET_PATH``."""
    node_id, data_dir, socket_path = sys.argv[1:] if argv is None else argv
    try:
        worker_main(node_id, data_dir, socket_path, _listening)
    except FormatMismatchError as exc:
        os.write(1, f"{type(exc).__name__} {exc}\n".encode())
        sys.exit(1)


if __name__ == "__main__":
    main()
