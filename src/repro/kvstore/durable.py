"""The LSM engine's directory medium: a WAL in front of on-disk runs.

:class:`DurableLSMStore` is :class:`repro.kvstore.lsm.LSMStore` with its
runs on disk: every mutation hits the write-ahead log before the memtable,
flushes produce numbered ``sst-<n>.sst`` files, and opening a directory
replays the WAL and discovers existing runs.  The write path,
backpressure, flush pipeline, compaction trigger and reads are
``LSMStore``'s; this module holds the directory lock, the files and the
crash protocol.  There is no flusher pool: the WAL is a single file
truncated at flush, so a background flush racing WAL appends would drop
acknowledged writes at the truncate.  The watermarks drain inline.

Crash safety protocol (exercised by :mod:`repro.kvstore.simfault`'s crash
points, recovered by :meth:`DurableLSMStore.__init__`):

- **Flush**: the frozen memtable is written to ``sst-<n>.sst.tmp``,
  fsynced, atomically renamed to ``sst-<n>.sst`` (directory fsynced), and
  only then, with no unflushed write left in memory, is the WAL
  truncated.  A crash before the rename leaves a ``.tmp`` leftover
  (deleted on reopen; the WAL still holds the data); a crash after it
  replays the WAL over an identical SSTable — idempotent.
- **Compaction**: the merged run is written the same tmp→fsync→rename
  way *before* the superseded runs are unlinked.  Tombstones are
  preserved in the merged output: a crash between rename and unlink
  leaves old runs visible alongside the merged run, and a dropped
  tombstone would resurrect deleted keys from them.  Stale runs left by
  such a crash are shadowed (the merged run is newest) and reclaimed by
  the next compaction.
- **Reopen**: ``*.tmp`` leftovers are removed, torn/corrupt
  ``sst-*.sst`` files (pre-protocol crashes, bit rot) are skipped with a
  ``kv_sstable_torn_skipped_total`` count instead of poisoning the open,
  and a torn WAL tail is cut off at the last intact record, so the
  writes appended after recovery replay too.

Format stamp: every durable data directory that holds stores (a cluster's
region root, a worker's node directory) carries a ``FORMAT`` file with
:data:`FORMAT`, written by :func:`claim_format` when the directory is
created and checked by it before any store under it is served.  The
``<table>/region-NNNN`` store directories below a root carry no stamp of
their own: a store is only ever opened through its root's builder
(``DurableStores`` or a worker's node), which claims the root first, and
every store under one root is written by the same build, so one stamp per
root states the format of all of them.
"""

from __future__ import annotations

import contextlib
import os
from collections.abc import Callable

from repro.kvstore import simfault
from repro.kvstore.block_cache import BlockCache
from repro.kvstore.errors import CorruptionError, FormatMismatchError, StoreLockedError
from repro.kvstore.lsm import DEFAULT_FLUSH_BYTES, DEFAULT_MAX_TABLES, LSMStore
from repro.kvstore.memtable import TOMBSTONE
from repro.kvstore.retry import RetryPolicy
from repro.kvstore.sstable import SSTable, write_sstable
from repro.kvstore.stats import IOStats
from repro.kvstore.wal import OP_DELETE, OP_PUT, WriteAheadLog
from repro.obs import counter as _obs_counter
from repro.runtime.backpressure import WriteLimits

_TORN_SKIPPED = _obs_counter(
    "kv_sstable_torn_skipped_total",
    "Torn or corrupt SSTable files skipped during store reopen",
)


# The stored format this tree writes and reads: the row layout
# (storage/serializer.py), the key and mapping-value layouts
# (storage/schema.py), the shape-code mapping rows of the metadata table
# (cache/index_cache.py) and the engine's files.  Bump it with any of them; a
# saved deployment's config.json states it too (storage/persistence.py).
FORMAT = 7
FORMAT_FILE = "FORMAT"


def format_mismatch(where: object, found: object) -> FormatMismatchError:
    """The error for ``where`` holding stored format ``found`` (``None``: no stamp)."""
    stated = "no format stamp" if found is None else f"stored format {found!r}"
    return FormatMismatchError(f"{where} holds {stated}; this build reads format {FORMAT}")


def claim_format(directory: str | os.PathLike) -> None:
    """Stamp a new or empty data directory with :data:`FORMAT`, or check the
    stamp of one in use.  Another stamp, or content without a stamp (written
    before directories were stamped), raises :class:`FormatMismatchError`."""
    path = os.path.join(directory, FORMAT_FILE)
    try:
        with open(path) as fh:
            raw = fh.read().strip()
    except FileNotFoundError:
        os.makedirs(directory, exist_ok=True)
        if os.listdir(directory):
            raise format_mismatch(directory, None) from None
        with open(path, "w") as fh:
            fh.write(f"{FORMAT}\n")
        return
    if raw != str(FORMAT):
        raise format_mismatch(directory, int(raw) if raw.isdigit() else raw)


def _pid_alive(pid: int) -> bool:
    """True when ``pid`` names a live process we could signal."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by another user
        return True
    return True


def _remove(path: str) -> None:
    """Delete a file that may already be gone."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _fsync_dir(path: str | os.PathLike) -> None:
    """Persist a directory entry change (rename/unlink) to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class DurableLSMStore(LSMStore):
    """Crash-safe LSM store rooted at a directory."""

    # See the module docstring's compaction crash window.
    _compaction_keeps_tombstones = True

    # benchmarks/spine/tracing.py wraps flush and compact once per class,
    # through the class __dict__, so both names live here too.  They are
    # the inherited functions, not overrides calling super(): a traced
    # call never nests a same-named traced call.
    flush = LSMStore.flush
    compact = LSMStore.compact

    def __init__(
        self,
        data_dir: str | os.PathLike,
        stats: IOStats | None = None,
        flush_bytes: int = DEFAULT_FLUSH_BYTES,
        max_tables: int = DEFAULT_MAX_TABLES,
        sync: bool = True,
        block_cache: BlockCache | None = None,
        retry: RetryPolicy | None = None,
        write_limits: WriteLimits | None = None,
    ):
        # Kept as the caller named it; the files under it are path strings.
        self.data_dir = data_dir
        os.makedirs(data_dir, exist_ok=True)
        # Single-writer ownership: two processes appending to one WAL
        # interleave records and corrupt the log, so the directory is
        # claimed with a pid lockfile before anything is opened.  A lock
        # left by a dead process (crash, SIGKILL) is stale and reclaimed;
        # a lock held by a *live* different process is a hard error.
        self._lock_path = os.path.join(data_dir, "LOCK")
        self._acquire_lock()
        super().__init__(stats, flush_bytes, max_tables, write_limits)
        self._sync = sync
        self._block_cache = block_cache
        self._retry = retry if retry is not None else RetryPolicy()
        self._closed = False

        # A crash mid-flush/compaction leaves the half-written run at its
        # .tmp path; it was never acknowledged (the WAL still covers it or
        # the pre-compaction runs still exist), so it is plain garbage.
        names = os.listdir(data_dir)
        for name in names:
            if name.endswith(".tmp"):
                _remove(os.path.join(data_dir, name))

        # Discover existing runs (oldest first by sequence number).
        self._next_seq = 0
        for name in sorted(n for n in names if n.startswith("sst-") and n.endswith(".sst")):
            path = os.path.join(data_dir, name)
            seq = int(name[: -len(".sst")].split("-")[1])
            self._next_seq = max(self._next_seq, seq + 1)
            try:
                table = SSTable(path, stats, block_cache=block_cache)
            except (CorruptionError, OSError) as exc:
                # Torn leftover of a pre-protocol crash (or bit rot):
                # quarantine it rather than failing the whole reopen.  Its
                # acknowledged content is covered by the WAL, which was
                # only truncated after the file was durably in place.
                _TORN_SKIPPED.inc()
                import logging  # only here: a worker never loads it otherwise

                logging.getLogger(__name__).warning(
                    "skipping torn SSTable %s: %s", path, exc
                )
                os.rename(path, path + ".corrupt")
                continue
            self._sstables.append(table)

        # Recover un-flushed writes from the WAL.
        self._wal = WriteAheadLog(os.path.join(data_dir, "wal.log"), sync=sync)
        for op, key, value in self._wal.replay():
            if op == OP_PUT:
                self._memtable.put(key, value)
            else:
                self._memtable.delete(key)

    def _lock_owner(self) -> str | None:
        """The raw content of ``LOCK``, or ``None`` when there is none."""
        try:
            with open(self._lock_path) as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def _acquire_lock(self) -> None:
        """Claim the directory for this pid, or raise StoreLockedError.

        The only claim is an exclusive create (``O_CREAT | O_EXCL``), so
        two openers can never both create ``LOCK``.  A lock held by a dead
        process, by garbage or by this pid is removed — unless it changed
        since it was read — and the create retried, re-checking the owner.
        """
        me = os.getpid()
        while True:
            raw = self._lock_owner()
            if raw is not None:
                try:
                    owner: int | None = int(raw.strip())
                except ValueError:
                    owner = None
                if owner is not None and owner != me and _pid_alive(owner):
                    raise StoreLockedError(
                        f"{self.data_dir} is owned by live process {owner} "
                        f"(this is pid {me})"
                    )
                if self._lock_owner() == raw:
                    _remove(self._lock_path)
            try:
                fd = os.open(self._lock_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644)
            except FileExistsError:
                continue  # another opener claimed it first: check that one
            with os.fdopen(fd, "w") as fh:
                fh.write(str(me))
            return

    # -- the medium -----------------------------------------------------------

    def _log_write(self, key: bytes, value: bytes) -> None:
        if value == TOMBSTONE:
            self._wal.append(OP_DELETE, key)
        else:
            self._wal.append(OP_PUT, key, value)

    def _log_flushed(self) -> None:
        self._wal.truncate()

    def _new_run(
        self, entries: list[tuple[bytes, bytes]], stage: str, fault_hook: Callable[[], None]
    ) -> SSTable:
        """Put ``entries`` on disk as the next numbered run, crash-safely.

        The run is written to its ``.tmp`` path and fsynced, the whole
        write retried on transient faults (``fault_hook`` fires before
        each attempt); then it is renamed into place and the directory
        fsynced.  Nothing is visible at the final path until the rename.
        """
        path = os.path.join(self.data_dir, f"sst-{self._next_seq:06d}.sst")
        tmp = path + ".tmp"

        def attempt() -> None:
            fault_hook()
            write_sstable(tmp, entries, fsync=True)

        try:
            self._retry.run(attempt, op="sstable_write")
        except BaseException:
            _remove(tmp)
            raise
        # CP1: the run exists only at its .tmp path; the WAL (flush) or the
        # superseded runs (compaction) are intact.
        simfault.crash_point(f"{stage}.pre_rename")
        os.replace(tmp, path)
        _fsync_dir(self.data_dir)
        # CP2: the run is durably visible.  Flush: the WAL is not yet
        # truncated — replay over the identical run is idempotent.
        # Compaction: the superseded runs are not yet unlinked — they are
        # fully shadowed (the merged run is newest).
        simfault.crash_point(f"{stage}.post_rename")
        self._next_seq += 1
        return SSTable(path, self._stats, block_cache=self._block_cache)

    def _flush_run(self, entries: list[tuple[bytes, bytes]]) -> SSTable:
        return self._new_run(entries, "flush", simfault.flush_fault)

    def _compaction_runs(self, entries: list[tuple[bytes, bytes]]) -> list[SSTable]:
        merged = self._new_run(entries, "compact", simfault.compact_fault)
        for old in self._sstables:
            # Reclaim the dead runs' cache residency before unlinking them.
            old.release_cache()
            _remove(old.path)
        return [merged]

    def close(self) -> None:
        """Release the resources held by this object (idempotent).

        Safe to call any number of times, including after a ``with``
        block already closed the store: the second and later calls are
        no-ops, so the fsync/close below never hit a closed handle.
        """
        if self._closed:
            return
        self._closed = True
        if not self._sync:
            self._wal.fsync()
        self._wal.close()
        for table in self._sstables:
            table.release_cache()
        # Release single-writer ownership — but only if this pid still
        # holds it (a restarted process may have reclaimed a stale lock).
        with contextlib.suppress(ValueError, OSError):
            if int(self._lock_owner() or "-1") == os.getpid():
                os.remove(self._lock_path)

    def destroy(self) -> None:
        """Close the store and remove its directory."""
        self.close()
        import shutil  # only here: it loads the bz2 and lzma modules

        shutil.rmtree(self.data_dir, ignore_errors=True)

    def __enter__(self) -> "DurableLSMStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
