"""Process-cluster start-up and shutdown.

The fleet launches every worker before waiting on any, a failed start
leaves no worker, thread pool or owned directory behind, and a graceful
stop releases every pooled connection before it waits for the worker.
All assertions are on order and counts, never on elapsed time.
"""

from __future__ import annotations

import multiprocessing
import tempfile
import threading

import pytest

from repro.cluster import rpc
from repro.cluster.client import WorkerHandle
from repro.cluster.process_cluster import ProcessCluster
from repro.cluster.worker import worker_main
from repro.kvstore.errors import ReplicaDownError


def _record_launches(monkeypatch) -> tuple[list[tuple[str, str]], list]:
    """Patch ``WorkerHandle`` to log ``(call, node)`` and keep each process."""
    calls: list[tuple[str, str]] = []
    processes: list = []
    launch, wait_ready = WorkerHandle.launch, WorkerHandle.wait_ready

    def logged_launch(self):
        calls.append(("launch", self.node_id))
        launch(self)
        processes.append(self._process)

    def logged_wait_ready(self, *args, **kwargs):
        calls.append(("wait_ready", self.node_id))
        return wait_ready(self, *args, **kwargs)

    monkeypatch.setattr(WorkerHandle, "launch", logged_launch)
    monkeypatch.setattr(WorkerHandle, "wait_ready", logged_wait_ready)
    return calls, processes


def test_fleet_launches_every_worker_before_waiting(monkeypatch):
    calls, _ = _record_launches(monkeypatch)
    pc = ProcessCluster(nodes=3, replication_factor=2, workers=2)
    try:
        assert calls == [("launch", f"node-{i}") for i in range(3)] + [
            ("wait_ready", f"node-{i}") for i in range(3)
        ]
        assert pc.nodes == ("node-0", "node-1", "node-2")
        assert all(pc.cluster_health()["nodes"][n]["alive"] for n in pc.nodes)
    finally:
        pc.close()


def test_failed_start_stops_launched_workers_and_removes_owned_dir(
    tmp_path, monkeypatch
):
    owned = tmp_path / "owned"
    # A directory at node-1's socket path: that worker cannot replace it
    # with its socket and dies during start-up.
    (owned / "node-1.sock").mkdir(parents=True)
    monkeypatch.setattr(tempfile, "mkdtemp", lambda prefix=None: str(owned))
    _, processes = _record_launches(monkeypatch)

    with pytest.raises(ReplicaDownError, match="node-1 died during startup"):
        ProcessCluster(nodes=3, replication_factor=2, workers=2)

    assert len(processes) == 3
    assert not any(p.is_alive() for p in processes)
    assert multiprocessing.active_children() == []
    assert not owned.exists()


class _ThreadProcess:
    """``worker_main`` on a thread, shaped like the process a handle owns.

    Records which of the worker's connection threads are still alive when
    ``worker_main`` returns, i.e. after its own join on them.
    """

    exitcode = None

    def __init__(self, node_id: str, data_dir: str, socket_path: str):
        self.lingering: list[threading.Thread] = []
        self._thread = threading.Thread(
            target=self._run, args=(node_id, data_dir, socket_path), daemon=True
        )
        self._thread.start()

    def _run(self, node_id: str, data_dir: str, socket_path: str) -> None:
        worker_main(node_id, data_dir, socket_path)
        self.lingering = [
            t
            for t in threading.enumerate()
            if t.name == f"rs-{node_id}-conn" and t.is_alive()
        ]

    def is_alive(self) -> bool:
        return self._thread.is_alive()

    def join(self, timeout=None) -> None:
        self._thread.join(timeout)

    def kill(self) -> None:  # a thread cannot be killed; stop() must not need it
        raise AssertionError("graceful stop fell back to kill")


def test_stop_releases_pooled_connections_before_joining(tmp_path):
    handle = WorkerHandle("node-t", tmp_path)
    process = _ThreadProcess(
        handle.node_id, str(handle.data_dir), str(handle.socket_path)
    )
    handle._process = process
    handle.wait_ready()
    client = handle.client
    pooled = [client._checkout() for _ in range(4)]
    for sock in pooled:
        client._checkin(sock)

    handle.stop()

    assert not process.is_alive()
    assert process.lingering == []


def test_close_after_concurrent_clients_leaves_no_live_worker(monkeypatch):
    _, processes = _record_launches(monkeypatch)
    pc = ProcessCluster(nodes=2, replication_factor=2, workers=2)
    client = pc.client("node-0")
    barrier = threading.Barrier(4)

    def stats() -> None:
        sock = client._checkout()
        barrier.wait()
        client._checkin(sock)
        client.call(rpc.OP_STATS, ())

    readers = [threading.Thread(target=stats) for _ in range(4)]
    for t in readers:
        t.start()
    for t in readers:
        t.join()
    assert len(client._pool) == 4

    pc.close()

    assert not any(p.is_alive() for p in processes)
    assert [p.exitcode for p in processes] == [0, 0]
    live = multiprocessing.active_children()
    assert not any(p in live for p in processes)
