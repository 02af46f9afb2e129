"""Fork safety: WAL handle ownership and single-writer pid lockfiles.

A ``fork()`` (or a ``fork``-start-method worker) copies the parent's open
file descriptors; parent and child then share one file *offset*, and
interleaved appends through the shared WAL handle tear records.  The WAL
re-checks its owner pid on every mutating entry point and reopens a
private handle in the child; the durable store claims its directory with
a pid lockfile so two live processes can never write one WAL.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.kvstore.durable import DurableLSMStore
from repro.kvstore.errors import StoreLockedError
from repro.kvstore.wal import OP_PUT, WriteAheadLog


# -- WAL handle ownership ---------------------------------------------------


def test_wal_records_owner_pid(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log", sync=False)
    try:
        assert wal._owner_pid == os.getpid()
    finally:
        wal.close()


def test_wal_reopens_handle_when_owner_pid_differs(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log", sync=False)
    try:
        wal.append_put(b"k1", b"v1")
        inherited = wal._fh
        # Simulate waking up in a forked child: the recorded owner is
        # some other pid, so the next append must go through a fresh
        # private handle.
        wal._owner_pid = os.getpid() + 1
        wal.append_put(b"k2", b"v2")
        assert wal._fh is not inherited
        assert wal._owner_pid == os.getpid()
        assert [(op, k, v) for op, k, v in wal.replay()] == [
            (OP_PUT, b"k1", b"v1"),
            (OP_PUT, b"k2", b"v2"),
        ]
    finally:
        wal.close()


def test_wal_truncate_and_fsync_guard_against_foreign_handle(tmp_path):
    wal = WriteAheadLog(tmp_path / "wal.log", sync=False)
    try:
        wal.append_put(b"k", b"v")
        wal._owner_pid = os.getpid() + 1
        wal.fsync()  # must not raise; reopens first
        assert wal._owner_pid == os.getpid()
        wal._owner_pid = os.getpid() + 1
        wal.truncate()
        assert wal._owner_pid == os.getpid()
        assert list(wal.replay()) == []
        wal.append_put(b"after", b"1")
        assert len(list(wal.replay())) == 1
    finally:
        wal.close()


def _child_appends(path, results):
    wal = WriteAheadLog(path, sync=False)
    try:
        wal.append_put(b"child", b"cv")
        results.put(("owner_is_child", wal._owner_pid == os.getpid()))
    finally:
        wal.close()


def test_forked_child_appends_through_private_handle(tmp_path):
    # A real fork: parent writes, child writes through its own reopened
    # handle, and both records replay intact (no torn interleaving).
    path = tmp_path / "wal.log"
    parent = WriteAheadLog(path, sync=False)
    try:
        parent.append_put(b"parent", b"pv")
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        proc = ctx.Process(target=_child_appends, args=(path, results))
        proc.start()
        proc.join(30)
        assert proc.exitcode == 0
        label, owned = results.get(timeout=5)
        assert (label, owned) == ("owner_is_child", True)
        parent.append_put(b"parent2", b"pv2")
        replayed = {k: v for _, k, v in parent.replay()}
        assert replayed == {b"parent": b"pv", b"child": b"cv", b"parent2": b"pv2"}
    finally:
        parent.close()


# -- durable store pid lockfile ---------------------------------------------


def test_lockfile_written_and_released(tmp_path):
    store = DurableLSMStore(tmp_path / "store", sync=False)
    lock = tmp_path / "store" / "LOCK"
    assert lock.read_text().strip() == str(os.getpid())
    store.close()
    assert not lock.exists()


def test_reopen_by_same_process_is_fine(tmp_path):
    store = DurableLSMStore(tmp_path / "store", sync=False)
    store.put(b"k", b"v")
    store.close()
    reopened = DurableLSMStore(tmp_path / "store", sync=False)
    assert reopened.get(b"k") == b"v"
    reopened.close()


def test_stale_lock_from_dead_pid_is_reclaimed(tmp_path):
    directory = tmp_path / "store"
    directory.mkdir()
    # A pid that cannot be alive: beyond pid_max on any Linux default.
    (directory / "LOCK").write_text("99999999")
    store = DurableLSMStore(directory, sync=False)
    assert (directory / "LOCK").read_text().strip() == str(os.getpid())
    store.close()


def test_garbage_lock_content_is_reclaimed(tmp_path):
    directory = tmp_path / "store"
    directory.mkdir()
    (directory / "LOCK").write_text("not-a-pid")
    store = DurableLSMStore(directory, sync=False)
    store.close()


def _hold_store_open(directory, ready, release):
    store = DurableLSMStore(directory, sync=False)
    try:
        ready.set()
        release.wait(30)
    finally:
        store.close()


def test_live_foreign_owner_is_a_hard_error(tmp_path):
    directory = tmp_path / "store"
    ctx = multiprocessing.get_context("spawn")
    ready = ctx.Event()
    release = ctx.Event()
    proc = ctx.Process(target=_hold_store_open, args=(directory, ready, release))
    proc.start()
    try:
        assert ready.wait(30), "holder process never opened the store"
        with pytest.raises(StoreLockedError):
            DurableLSMStore(directory, sync=False)
    finally:
        release.set()
        proc.join(30)
    assert proc.exitcode == 0
    # The holder released cleanly; the directory is claimable again.
    store = DurableLSMStore(directory, sync=False)
    store.close()


def test_lock_claimed_between_read_and_claim_is_a_hard_error(tmp_path, monkeypatch):
    # Another opener claims the directory right after this one read LOCK
    # (and found none): the claim must fail on the existing file, not
    # overwrite it.
    directory = tmp_path / "store"
    directory.mkdir()
    foreign = os.getppid()  # a live process that is not this one
    assert foreign != os.getpid()
    real_lock_owner = DurableLSMStore._lock_owner
    raced: list[bool] = []

    def read_then_race(self):
        try:
            return real_lock_owner(self)
        finally:
            if not raced:
                raced.append(True)
                (directory / "LOCK").write_text(str(foreign))

    monkeypatch.setattr(DurableLSMStore, "_lock_owner", read_then_race)
    with pytest.raises(StoreLockedError):
        DurableLSMStore(directory, sync=False)
    assert raced
    assert (directory / "LOCK").read_text() == str(foreign)


def test_close_does_not_steal_foreign_lock(tmp_path):
    directory = tmp_path / "store"
    store = DurableLSMStore(directory, sync=False)
    # Another process re-claimed the lock (e.g. stale-lock reclaim after
    # this one was presumed dead): our close must not unlink their claim.
    (directory / "LOCK").write_text("12345")
    store.close()
    assert (directory / "LOCK").read_text() == "12345"
