"""Process-cluster start-up and shutdown.

The fleet launches every worker before waiting on any, a failed start
leaves no worker, thread pool or owned directory behind, a graceful
stop releases every pooled connection before it waits for the worker, and
a coordinator that dies without stopping its fleet takes the fleet with
it.  All assertions are on order and counts, never on elapsed time, except
the 5 s a killed coordinator's workers get to exit.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.cluster import rpc
from repro.cluster.client import WorkerHandle
from repro.cluster.process_cluster import ProcessCluster
from repro.cluster.worker import READY_LINE, worker_main
from repro.kvstore.errors import ReplicaDownError
from tests.conftest import reaped

SRC = Path(__file__).resolve().parents[1] / "src"


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
    assert all(reaped(p) for p in processes)
    assert processes[1].returncode != 0
    assert not owned.exists()


class _ThreadProcess:
    """``worker_main`` on a thread, shaped like the ``Popen`` a handle owns
    (its readiness line arrives on ``stdout`` as a real worker's does).

    Records which of the worker's connection threads are still alive when
    ``worker_main`` returns, i.e. after its own join on them.
    """

    pid = None
    stdin = None

    def __init__(self, node_id: str, data_dir: str, socket_path: str):
        self.lingering: list[threading.Thread] = []
        self.returncode = None
        read_end, self._write_end = os.pipe()
        self.stdout = os.fdopen(read_end, "rb")
        self._thread = threading.Thread(
            target=self._run, args=(node_id, data_dir, socket_path), daemon=True
        )
        self._thread.start()

    def _run(self, node_id: str, data_dir: str, socket_path: str) -> None:
        try:
            worker_main(node_id, data_dir, socket_path, self._ready)
        finally:
            os.close(self._write_end)
        self.lingering = [
            t
            for t in threading.enumerate()
            if t.name == f"rs-{node_id}-conn" and t.is_alive()
        ]
        self.returncode = 0

    def _ready(self, worker) -> None:
        os.write(self._write_end, READY_LINE)

    def poll(self):
        return None if self._thread.is_alive() else self.returncode

    def wait(self, timeout=None):
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise subprocess.TimeoutExpired("worker thread", timeout)
        return self.returncode

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

    assert process.poll() == 0
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

    assert all(reaped(p) for p in processes)
    assert [p.returncode for p in processes] == [0, 0]


_ORPHANING_COORDINATOR = """
import os, signal, sys
from repro.cluster.process_cluster import ProcessCluster

pc = ProcessCluster(nodes=2, replication_factor=2, workers=1,
                    cluster_data_dir=sys.argv[1])
pc.create_table("t").put(b"k", b"v")
print(*(pc.cluster_health()["nodes"][n]["pid"] for n in pc.nodes), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


def _gone(pid: int) -> bool:
    """No such process, or only a zombie left for its new parent to reap."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_killed_coordinator_leaves_no_worker(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    # Files, not pipes: a worker that inherits one must not keep this wait open.
    with out.open("wb") as stdout, err.open("wb") as stderr:
        coordinator = subprocess.run(
            [sys.executable, "-c", _ORPHANING_COORDINATOR, str(tmp_path / "fleet")],
            env=env,
            stdout=stdout,
            stderr=stderr,
            timeout=60,
        )
    assert coordinator.returncode == -signal.SIGKILL, err.read_text()
    pids = [int(pid) for pid in out.read_text().split()]
    assert len(pids) == 2
    give_up = time.monotonic() + 5.0
    while not all(_gone(pid) for pid in pids) and time.monotonic() < give_up:
        time.sleep(0.05)
    assert [pid for pid in pids if not _gone(pid)] == []
