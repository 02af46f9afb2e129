"""Durable LSM store: WAL-protected memtable over on-disk SSTables.

The same contract as :class:`repro.kvstore.lsm.LSMStore`, but writes survive
process crashes: every mutation hits the write-ahead log before the
memtable, flushes produce numbered ``sst-<n>.sst`` files, and opening a
directory replays the WAL and discovers existing runs.

Crash safety protocol (exercised by :mod:`repro.kvstore.simfault`'s crash
points, recovered by :meth:`DurableLSMStore.__init__`):

- **Flush**: the frozen memtable is written to ``sst-<n>.sst.tmp``,
  fsynced, atomically renamed to ``sst-<n>.sst`` (directory fsynced), and
  only then is the WAL truncated.  A crash before the rename leaves a
  ``.tmp`` leftover (deleted on reopen; the WAL still holds the data); a
  crash after it replays the WAL over an identical SSTable — idempotent.
- **Compaction**: the merged run is written the same tmp→fsync→rename
  way *before* the superseded runs are unlinked.  Tombstones are
  preserved in the merged output: a crash between rename and unlink
  leaves old runs visible alongside the merged run, and a dropped
  tombstone would resurrect deleted keys from them.  Stale runs left by
  such a crash are shadowed (the merged run is newest) and reclaimed by
  the next compaction.
- **Reopen**: ``*.tmp`` leftovers are removed, and torn/corrupt
  ``sst-*.sst`` files (pre-protocol crashes, bit rot) are skipped with a
  ``kv_sstable_torn_skipped_total`` count instead of poisoning the open.
"""

from __future__ import annotations

import logging
import os
import time
from pathlib import Path
from typing import Iterator, Optional, Sequence, Union

from repro.kvstore import simfault
from repro.kvstore.block_cache import BlockCache
from repro.kvstore.census import census_rows
from repro.kvstore.disk_sstable import DiskSSTable, write_disk_sstable
from repro.kvstore.errors import CorruptionError, StoreLockedError
from repro.kvstore.memtable import TOMBSTONE, MemTable, merge_live, newest_values
from repro.kvstore.retry import RetryPolicy
from repro.kvstore.scan import Window
from repro.kvstore.stats import IOStats
from repro.kvstore.wal import OP_DELETE, OP_PUT, WriteAheadLog
from repro.obs import counter as _obs_counter
from repro.runtime.backpressure import (
    WriteLimits,
    record_stall,
    record_throttle,
)

_log = logging.getLogger(__name__)

DEFAULT_FLUSH_BYTES = 4 * 1024 * 1024
DEFAULT_MAX_TABLES = 8

_FLUSH_TOTAL = _obs_counter(
    "kv_memtable_flush_total", "Memtable freezes into an SSTable run"
)
_FLUSH_BYTES = _obs_counter(
    "kv_memtable_flush_bytes_total", "Approximate bytes frozen by memtable flushes"
)
_COMPACT_TOTAL = _obs_counter(
    "kv_compaction_total", "Size-tiered full compactions executed"
)
_COMPACT_BYTES = _obs_counter(
    "kv_compaction_bytes_total", "Live bytes rewritten by compactions"
)
_TORN_SKIPPED = _obs_counter(
    "kv_sstable_torn_skipped_total",
    "Torn or corrupt SSTable files skipped during store reopen",
)


def _pid_alive(pid: int) -> bool:
    """True when ``pid`` names a live process we could signal."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by another user
        return True
    return True


def _fsync_dir(path: Path) -> None:
    """Persist a directory entry change (rename/unlink) to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class DurableLSMStore:
    """Crash-safe LSM store rooted at a directory."""

    def __init__(
        self,
        data_dir: Union[str, Path],
        stats: Optional[IOStats] = None,
        flush_bytes: int = DEFAULT_FLUSH_BYTES,
        max_tables: int = DEFAULT_MAX_TABLES,
        sync: bool = True,
        block_cache: Optional[BlockCache] = None,
        retry: Optional[RetryPolicy] = None,
        write_limits: Optional[WriteLimits] = None,
    ):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        # Single-writer ownership: two processes appending to one WAL
        # interleave records and corrupt the log, so the directory is
        # claimed with a pid lockfile before anything is opened.  A lock
        # left by a dead process (crash, SIGKILL) is stale and reclaimed;
        # a lock held by a *live* different process is a hard error.
        self._lock_path = self.data_dir / "LOCK"
        self._acquire_lock()
        self._stats = stats
        self._flush_bytes = flush_bytes
        self._max_tables = max_tables
        self._sync = sync
        self._block_cache = block_cache
        self._retry = retry if retry is not None else RetryPolicy()
        # Backpressure is synchronous here: the WAL is a single file
        # truncated at flush, so a background flush racing WAL appends
        # would drop acknowledged writes at the truncate.  The watermarks
        # instead trigger an early inline flush plus a throttle delay.
        self._limits = (
            write_limits if write_limits is not None and write_limits.enabled else None
        )
        self._memtable = MemTable()
        self._closed = False
        # Trajectory row versions seen by the most recent compaction
        # (None until one runs); see repro.kvstore.census.
        self.last_format_census: Optional[dict[int, int]] = None

        # A crash mid-flush/compaction leaves the half-written run at its
        # .tmp path; it was never acknowledged (the WAL still covers it or
        # the pre-compaction runs still exist), so it is plain garbage.
        for leftover in self.data_dir.glob("*.tmp"):
            leftover.unlink(missing_ok=True)

        # Discover existing runs (oldest first by sequence number).
        self._sstables: list[DiskSSTable] = []
        self._next_seq = 0
        for path in sorted(self.data_dir.glob("sst-*.sst")):
            seq = int(path.stem.split("-")[1])
            self._next_seq = max(self._next_seq, seq + 1)
            try:
                table = DiskSSTable(path, stats, block_cache=block_cache)
            except (CorruptionError, OSError) as exc:
                # Torn leftover of a pre-protocol crash (or bit rot):
                # quarantine it rather than failing the whole reopen.  Its
                # acknowledged content is covered by the WAL, which was
                # only truncated after the file was durably in place.
                _TORN_SKIPPED.inc()
                _log.warning("skipping torn SSTable %s: %s", path, exc)
                path.rename(path.with_name(path.name + ".corrupt"))
                continue
            self._sstables.append(table)

        # Recover un-flushed writes from the WAL.
        self._wal = WriteAheadLog(self.data_dir / "wal.log", sync=sync)
        for op, key, value in self._wal.replay():
            if op == OP_PUT:
                self._memtable.put(key, value)
            else:
                self._memtable.delete(key)

    def _acquire_lock(self) -> None:
        """Claim the directory for this pid, or raise StoreLockedError."""
        try:
            owner = int(self._lock_path.read_text().strip())
        except (FileNotFoundError, ValueError):
            owner = None
        if owner is not None and owner != os.getpid() and _pid_alive(owner):
            raise StoreLockedError(
                f"{self.data_dir} is owned by live process {owner} "
                f"(this is pid {os.getpid()})"
            )
        self._lock_path.write_text(str(os.getpid()))

    # -- writes -------------------------------------------------------------

    @property
    def memtable_bytes(self) -> int:
        """Unflushed bytes buffered in the memtable."""
        return self._memtable.approx_bytes

    def _enforce_limits(self) -> None:
        """Synchronous watermark backpressure (see ``__init__``).

        The hard watermark flushes inline and accounts the wait as a
        stall; the soft watermark flushes inline and throttles.  Neither
        can reject: an inline flush always frees the memtable, so the
        bounded-stall-then-reject path is unreachable here.
        """
        limits = self._limits
        if limits is None:
            return
        buffered = self._memtable.approx_bytes
        if limits.hard_bytes is not None and buffered >= limits.hard_bytes:
            t0 = time.monotonic()
            self.flush()
            record_stall(time.monotonic() - t0, rejected=False)
            return
        if limits.soft_bytes is not None and buffered >= limits.soft_bytes:
            self.flush()
            if limits.throttle_ms > 0:
                record_throttle()
                time.sleep(limits.throttle_ms / 1000.0)

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key`` with ``value``."""
        if value == TOMBSTONE:
            raise ValueError("the tombstone sentinel cannot be stored as a value")
        self._enforce_limits()
        self._wal.append(OP_PUT, key, value)
        self._memtable.put(key, value)
        if self._memtable.approx_bytes >= self._flush_bytes:
            self.flush()

    def put_batch(self, rows: Sequence[tuple[bytes, bytes]]) -> None:
        """Insert many rows, in order (each exactly as :meth:`put`)."""
        for key, value in rows:
            self.put(key, value)

    def delete(self, key: bytes) -> None:
        """Remove ``key``."""
        self._enforce_limits()
        self._wal.append(OP_DELETE, key)
        self._memtable.delete(key)
        if self._memtable.approx_bytes >= self._flush_bytes:
            self.flush()

    def _write_run(self, path: Path, entries, fault_hook) -> None:
        """Write ``entries`` to ``path`` via tmp+fsync+rename (retried).

        The transient-IO fault hook fires before each attempt's write, so
        a retry re-runs the whole write; nothing is visible at ``path``
        until the atomic rename, and the rename itself is durable once
        the directory is fsynced.
        """
        tmp = path.with_name(path.name + ".tmp")

        def attempt() -> None:
            fault_hook()
            write_disk_sstable(tmp, entries, fsync=True)

        try:
            self._retry.run(attempt, op="sstable_write")
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    def flush(self) -> None:
        """Freeze the memtable to a new disk SSTable and reset the WAL."""
        if len(self._memtable) == 0:
            return
        _FLUSH_TOTAL.inc()
        _FLUSH_BYTES.inc(self._memtable.approx_bytes)
        path = self.data_dir / f"sst-{self._next_seq:06d}.sst"
        entries = list(self._memtable.items())
        self._write_run(path, entries, simfault.flush_fault)
        # CP1: the run exists only at its .tmp path; the WAL is intact.
        simfault.crash_point("flush.pre_rename")
        os.replace(path.with_name(path.name + ".tmp"), path)
        _fsync_dir(self.data_dir)
        # CP2: the run is durably visible but the WAL not yet truncated —
        # replay over the identical SSTable is idempotent.
        simfault.crash_point("flush.post_rename")
        self._next_seq += 1
        self._sstables.append(
            DiskSSTable(path, self._stats, block_cache=self._block_cache)
        )
        self._memtable = MemTable()
        self._wal.truncate()
        if len(self._sstables) > self._max_tables:
            self.compact()

    def compact(self) -> None:
        """Merge every run into one file, dropping shadowed keys.

        Tombstones are *kept* in the merged output: between the rename
        and the unlinks below there is a crash window in which the old
        runs are still on disk, and a reopen that merged a tombstone-free
        run with them would resurrect deleted keys.
        """
        merged: dict[bytes, bytes] = {}
        for table in self._sstables:  # oldest first; later wins
            for k, v in table.scan():
                merged[k] = v
        entries = sorted(merged.items())
        _COMPACT_TOTAL.inc()
        _COMPACT_BYTES.inc(
            sum(len(k) + len(v) for k, v in entries if v != TOMBSTONE)
        )
        self.last_format_census = census_rows(
            (k, v) for k, v in entries if v != TOMBSTONE
        )
        old_tables = list(self._sstables)
        path = self.data_dir / f"sst-{self._next_seq:06d}.sst"
        self._write_run(path, entries, simfault.compact_fault)
        # CP1: merged run exists only at its .tmp path; old runs intact.
        simfault.crash_point("compact.pre_rename")
        os.replace(path.with_name(path.name + ".tmp"), path)
        _fsync_dir(self.data_dir)
        # CP2: merged run durably visible, superseded runs not yet
        # unlinked — they are fully shadowed (merged run is newest).
        simfault.crash_point("compact.post_rename")
        self._next_seq += 1
        self._sstables = [DiskSSTable(path, self._stats, block_cache=self._block_cache)]
        for old in old_tables:
            # Reclaim the dead runs' cache residency before unlinking them.
            old.release_cache()
            old.path.unlink(missing_ok=True)

    # -- reads --------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value stored under ``key``, or ``None`` when absent."""
        return self.get_batch([key])[0]

    def get_batch(self, keys: Sequence[bytes]) -> list[Optional[bytes]]:
        """Values (or ``None``) of ``keys``, in input order.

        Disk SSTables have no bloom filter, so the sorted, de-duplicated
        batch is swept through the same level cursors as a scan: one
        forward pass per level instead of one sparse-block re-parse per key.
        """
        levels = [self._memtable, *reversed(self._sstables)]
        found = newest_values(levels, sorted(set(keys)))
        return [found.get(key) for key in keys]

    def scan(
        self, start: Optional[bytes] = None, stop: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(key, value)`` pairs in ``[start, stop)`` in key order."""
        return self.scan_windows(((start, stop),))

    def scan_windows(self, windows: Sequence[Window]) -> Iterator[tuple[bytes, bytes]]:
        """Yield the live pairs of sorted, disjoint ``windows`` in key order."""
        levels = [self._memtable, *reversed(self._sstables)]
        return merge_live(level.scan_windows(windows) for level in levels)

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
        try:
            if int(self._lock_path.read_text().strip()) == os.getpid():
                self._lock_path.unlink()
        except (FileNotFoundError, ValueError, OSError):
            pass

    def __enter__(self) -> "DurableLSMStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
