"""LSM-tree store: memtable + tiered sorted runs with compaction.

One engine over two storage media.  :class:`LSMStore` owns the write path,
watermark backpressure, the freeze/flush pipeline, the compaction trigger
and the read path.  The medium supplies only how a write is logged
(``_log_write`` / ``_log_flushed``), how a frozen memtable or a compaction
becomes a run (``_flush_run`` / ``_compaction_runs``), and whether
compaction may drop tombstones.  This class is the memory medium
(bloom-filtered :class:`~repro.kvstore.sstable.SSTable` runs, no log);
:class:`repro.kvstore.durable.DurableLSMStore` is the directory medium.

Every write goes through one flush pipeline: when the active memtable
crosses ``flush_bytes`` (or, with
:class:`~repro.runtime.backpressure.WriteLimits`, the soft watermark) it
is *frozen* — swapped for a fresh one and never mutated again, which
makes it safe to read from another thread — and queued for flushing.
With a flusher pool the queue drains in the background while the writer
is briefly throttled, and at the hard watermark writers stall until
flushing catches up, for at most a bounded timeout, after which the
write is rejected with :class:`~repro.kvstore.errors.WriteStalledError`.
Without a flusher the write drains the queue inline, through
:meth:`LSMStore.flush`, before it returns.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Iterator, Sequence

from repro.kvstore.errors import WriteStalledError
from repro.kvstore.memtable import TOMBSTONE, MemTable, Window, merge_live, newest_values
from repro.kvstore.sstable import SSTable
from repro.kvstore.stats import IOStats
from repro.obs import counter as _obs_counter
from repro.runtime.backpressure import (
    WriteLimits,
    record_stall,
    record_throttle,
)

TYPE_CHECKING = False
if TYPE_CHECKING:  # only annotated here; importing it loads logging into a worker
    from concurrent.futures import ThreadPoolExecutor

    from repro.runtime.deadline import Deadline

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


class LSMStore:
    """A single-range log-structured merge store.

    Writes go to the memtable; when it exceeds ``flush_bytes`` it becomes an
    immutable run.  When more than ``max_tables`` runs accumulate, they are
    merged (size-tiered full compaction).  Scans merge the memtable and
    every run, newest first.
    """

    # In memory the merged run replaces every older run at once, so nothing
    # is left for a tombstone to shadow and compaction drops them.
    _compaction_keeps_tombstones = False

    def __init__(
        self,
        stats: IOStats | None = None,
        flush_bytes: int = DEFAULT_FLUSH_BYTES,
        max_tables: int = DEFAULT_MAX_TABLES,
        write_limits: WriteLimits | None = None,
        flusher: ThreadPoolExecutor | None = None,
    ):
        self._stats = stats
        self._flush_bytes = flush_bytes
        self._max_tables = max_tables
        self._memtable = MemTable()
        self._sstables: list = []  # the medium's runs, newest last
        self._limits = write_limits if write_limits is not None else WriteLimits()
        self._flusher = flusher
        # Guards the level lists (_memtable, _frozen, _sstables) and the
        # flush-pipeline state; _cond, over the same lock, is waited on by
        # stalled writers and flush().  Re-entrant: without a flusher a
        # write drains through flush(), and every drain compacts through
        # compact(), all under this lock.
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._frozen: list[MemTable] = []  # oldest first, flush order
        self._flush_inflight = False
        self._flush_error: BaseException | None = None

    def __len__(self) -> int:
        """Upper bound on live entries (duplicates across levels counted once per scan)."""
        return sum(1 for _ in self.scan())

    @property
    def sstable_count(self) -> int:
        """Number of immutable runs currently on disk/in memory."""
        return len(self._sstables)

    @property
    def memtable_bytes(self) -> int:
        """Unflushed bytes: the active memtable plus frozen ones awaiting flush."""
        with self._lock:
            return self._unflushed_bytes_locked()

    # -- writes -------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key`` with ``value``.

        With write limits configured this may throttle (soft watermark),
        stall (hard watermark), or raise
        :class:`~repro.kvstore.errors.WriteStalledError` when the stall
        outlasts its bounded timeout.
        """
        if value == TOMBSTONE:
            raise ValueError("the tombstone sentinel cannot be stored as a value")
        self._write(key, value)

    def put_batch(self, rows: Sequence[tuple[bytes, bytes]]) -> None:
        """Insert many rows, in order (each exactly as :meth:`put`)."""
        for key, value in rows:
            self.put(key, value)

    def delete(self, key: bytes) -> None:
        """Remove ``key``."""
        self._write(key, TOMBSTONE)

    def _write(self, key: bytes, value: bytes) -> None:
        limits = self._limits
        throttle = False
        with self._lock:
            self._raise_flush_error_locked()
            if (
                limits.hard_bytes is not None
                and self._unflushed_bytes_locked() >= limits.hard_bytes
            ):
                self._stall_locked()
            if (
                limits.soft_bytes is not None
                and self._memtable.approx_bytes >= limits.soft_bytes
            ):
                self._freeze_locked()
                throttle = limits.throttle_ms > 0
            self._log_write(key, value)
            self._memtable.put(key, value)
            if self._memtable.approx_bytes >= self._flush_bytes:
                self._freeze_locked()
        if throttle:
            # Smear the flush cost across the burst: a short sleep outside
            # the lock per freeze, not per put.
            record_throttle()
            time.sleep(limits.throttle_ms / 1000.0)

    def _unflushed_bytes_locked(self) -> int:
        return self._memtable.approx_bytes + sum(
            mt.approx_bytes for mt in self._frozen
        )

    def _raise_flush_error_locked(self) -> None:
        if self._flush_error is not None:
            exc, self._flush_error = self._flush_error, None
            raise exc

    def _stall_locked(self) -> None:
        """Block until flushing brings unflushed bytes under the hard mark.

        Without a flusher the freeze below drains everything inline, so
        the wait loop never runs and the stall cannot be rejected.
        """
        limits = self._limits
        t0 = time.monotonic()
        give_up_at = t0 + limits.stall_timeout_ms / 1000.0
        self._freeze_locked()
        while self._unflushed_bytes_locked() >= limits.hard_bytes:
            self._raise_flush_error_locked()
            timeout = give_up_at - time.monotonic()
            if timeout <= 0:
                record_stall(time.monotonic() - t0, rejected=True)
                raise WriteStalledError(
                    f"write stalled {limits.stall_timeout_ms:.0f} ms at the "
                    f"hard memtable watermark ({limits.hard_bytes} bytes) "
                    f"with {self._unflushed_bytes_locked()} bytes unflushed"
                )
            self._cond.wait(timeout)
        record_stall(time.monotonic() - t0, rejected=False)

    def _freeze_locked(self) -> None:
        """Freeze the active memtable and get it flushed: inline through
        :meth:`flush` without a flusher, else on the flusher pool."""
        if self._flusher is None:
            self.flush()
            return
        if len(self._memtable) == 0:
            return
        self._frozen.append(self._memtable)
        self._memtable = MemTable()
        if not self._flush_inflight:
            self._flush_inflight = True
            self._flusher.submit(self._background_flush)

    def _flush_frozen(self, frozen: MemTable):
        _FLUSH_TOTAL.inc()
        _FLUSH_BYTES.inc(frozen.approx_bytes)
        return self._flush_run(list(frozen.items()))

    def _install_run_locked(self, run) -> None:
        """Swap a flushed run in for the oldest frozen memtable.

        The source is dequeued in the same step, so readers never see the
        rows in both places or in neither.
        """
        self._sstables.append(run)
        self._frozen.pop(0)
        if not self._frozen and len(self._memtable) == 0:
            self._log_flushed()  # no unflushed write is left in memory
        if len(self._sstables) > self._max_tables:
            self.compact()
        self._cond.notify_all()

    def _background_flush(self) -> None:
        """Flusher-pool task: drain the frozen queue, oldest first.

        The run is built outside the lock (the frozen memtable is
        immutable), then installed under it.
        """
        try:
            while True:
                with self._lock:
                    if not self._frozen:
                        self._flush_inflight = False
                        self._cond.notify_all()
                        return
                    frozen = self._frozen[0]
                run = self._flush_frozen(frozen)
                with self._lock:
                    self._install_run_locked(run)
        except BaseException as exc:  # surfaced on the next write/flush
            with self._lock:
                self._flush_error = exc
                self._flush_inflight = False
                self._cond.notify_all()

    # -- flush / compaction --------------------------------------------------

    def flush(self) -> None:
        """Freeze the memtable into a run (no-op when empty).

        Also drains the background flush pipeline, so on return every
        previously written row is in a run.
        """
        with self._lock:
            self._raise_flush_error_locked()
            if len(self._memtable):
                self._frozen.append(self._memtable)
                self._memtable = MemTable()
            while self._flush_inflight:
                self._cond.wait()
                self._raise_flush_error_locked()
            while self._frozen:
                self._install_run_locked(self._flush_frozen(self._frozen[0]))

    def compact(self) -> None:
        """Merge every run into one, dropping shadowed values.

        Tombstones are dropped too unless the medium keeps them
        (``_compaction_keeps_tombstones``).
        """
        with self._lock:
            merged: dict[bytes, bytes] = {}
            for table in self._sstables:  # oldest first; later wins
                merged.update(table.scan())
            entries = sorted(merged.items())
            live = [(k, v) for k, v in entries if v != TOMBSTONE]
            _COMPACT_TOTAL.inc()
            _COMPACT_BYTES.inc(sum(len(k) + len(v) for k, v in live))
            self._sstables = self._compaction_runs(
                entries if self._compaction_keeps_tombstones else live
            )

    # -- the medium (memory; DurableLSMStore overrides) -----------------------

    def _log_write(self, key: bytes, value: bytes) -> None:
        """Record a write (``TOMBSTONE`` for a delete) before the memtable
        takes it; memory keeps no log."""

    def _log_flushed(self) -> None:
        """Every logged write is now in a run; memory keeps no log."""

    def _flush_run(self, entries: list[tuple[bytes, bytes]]) -> SSTable:
        """A run holding a frozen memtable's sorted ``entries``."""
        return SSTable(entries, self._stats)

    def _compaction_runs(self, entries: list[tuple[bytes, bytes]]) -> list:
        """The run list replacing every run after a compaction to ``entries``."""
        return [SSTable(entries, self._stats)] if entries else []

    # -- reads --------------------------------------------------------------

    def _levels_snapshot(self) -> list:
        """Every level, newest first, listed under the lock.

        Frozen memtables are never mutated again and runs never change
        after construction, so reads run lock-free against the snapshot
        while flushes and compactions swap the lists.
        """
        with self._lock:
            return [self._memtable, *reversed(self._frozen), *reversed(self._sstables)]

    def get(self, key: bytes) -> bytes | None:
        """Return the live value for ``key`` or ``None``."""
        return self.get_batch([key])[0]

    def get_batch(self, keys: Sequence[bytes]) -> list[bytes | None]:
        """Values (or ``None``) of ``keys``, in input order.

        One level snapshot serves the sorted, de-duplicated batch; each
        level, newest first, looks up only the keys no newer level decided
        (bloom-filtered probes on in-memory runs, one forward cursor pass
        on a disk run).
        """
        found = newest_values(self._levels_snapshot(), sorted(set(keys)))
        return [found.get(key) for key in keys]

    def scan(
        self, start: bytes | None = None, stop: bytes | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield live entries in ``[start, stop)`` in key order."""
        return self.scan_windows(((start, stop),))

    def scan_windows(
        self, windows: Sequence[Window], deadline: Deadline | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield the live entries of sorted, disjoint ``windows`` in key order.

        One level snapshot serves the whole list.  For duplicate keys the
        newest level (memtable, frozen memtables newest-first, then
        youngest run) wins, and tombstones suppress the key entirely.  The
        cursor runs in the caller's process, so the caller checks
        ``deadline`` between rows.
        """
        return merge_live(level.scan_windows(windows) for level in self._levels_snapshot())

    def close(self) -> None:
        """Release the store's handles, keeping its data (memory has none)."""

    def destroy(self) -> None:
        """Close the store and delete its data (memory: dropped with it)."""
