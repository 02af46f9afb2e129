"""LSM-tree store: memtable + tiered SSTables with compaction.

Every write goes through one flush pipeline: when the active memtable
crosses ``flush_bytes`` (or, with
:class:`~repro.runtime.backpressure.WriteLimits`, the soft watermark) it
is *frozen* — swapped for a fresh one and never mutated again, which
makes it safe to read from another thread — and queued for flushing.
With a flusher pool the queue drains in the background while the writer
is briefly throttled, and at the hard watermark writers stall until
flushing catches up, for at most a bounded timeout, after which the
write is rejected with :class:`~repro.kvstore.errors.WriteStalledError`.
Without a flusher the queue drains inline, before the write returns.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Iterator, Optional, Sequence

from repro.kvstore.census import census_rows
from repro.kvstore.errors import WriteStalledError
from repro.kvstore.memtable import TOMBSTONE, MemTable, merge_live, newest_value
from repro.kvstore.scan import Window
from repro.kvstore.sstable import SSTable
from repro.kvstore.stats import IOStats
from repro.obs import counter as _obs_counter
from repro.runtime.backpressure import (
    WriteLimits,
    record_stall,
    record_throttle,
)

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
    immutable SSTable.  When more than ``max_tables`` SSTables accumulate,
    they are merged (size-tiered full compaction), dropping tombstones.
    Scans merge the memtable and every overlapping SSTable, newest first.
    """

    def __init__(
        self,
        stats: Optional[IOStats] = None,
        flush_bytes: int = DEFAULT_FLUSH_BYTES,
        max_tables: int = DEFAULT_MAX_TABLES,
        write_limits: Optional[WriteLimits] = None,
        flusher: Optional[ThreadPoolExecutor] = None,
    ):
        self._stats = stats
        self._flush_bytes = flush_bytes
        self._max_tables = max_tables
        self._memtable = MemTable()
        self._sstables: list[SSTable] = []  # newest last
        # Trajectory row versions seen by the most recent compaction
        # (None until one runs); see repro.kvstore.census.
        self.last_format_census: Optional[dict[int, int]] = None
        self._limits = write_limits if write_limits is not None else WriteLimits()
        self._flusher = flusher
        # Guards the level lists (_memtable, _frozen, _sstables) and the
        # flush-pipeline state; waited on by stalled writers and flush().
        self._cond = threading.Condition(threading.Lock())
        self._frozen: list[MemTable] = []  # oldest first, flush order
        self._flush_inflight = False
        self._flush_error: Optional[BaseException] = None

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
        with self._cond:
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
        with self._cond:
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
                self._freeze_and_schedule_locked()
                throttle = limits.throttle_ms > 0
            self._memtable.put(key, value)
            if self._memtable.approx_bytes >= self._flush_bytes:
                self._freeze_and_schedule_locked()
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
        """Block until flushing brings unflushed bytes under the hard mark."""
        limits = self._limits
        t0 = time.monotonic()
        give_up_at = t0 + limits.stall_timeout_ms / 1000.0
        self._freeze_and_schedule_locked()
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
            if self._flusher is None and not self._flush_inflight:
                # No background flusher: drain inline instead of waiting.
                self._drain_frozen_locked()
                continue
            self._cond.wait(timeout)
        record_stall(time.monotonic() - t0, rejected=False)

    def _freeze_and_schedule_locked(self) -> None:
        """Swap in a fresh active memtable; flush the old one off-thread."""
        if len(self._memtable) == 0:
            return
        self._frozen.append(self._memtable)
        self._memtable = MemTable()
        if self._flusher is None:
            self._drain_frozen_locked()
            return
        if not self._flush_inflight:
            self._flush_inflight = True
            self._flusher.submit(self._background_flush)

    def _build_sstable(self, frozen: MemTable) -> SSTable:
        _FLUSH_TOTAL.inc()
        _FLUSH_BYTES.inc(frozen.approx_bytes)
        return SSTable(list(frozen.items()), self._stats)

    def _drain_frozen_locked(self) -> None:
        """Flush every frozen memtable inline (lock held; no-flusher path)."""
        while self._frozen:
            frozen = self._frozen.pop(0)
            self._sstables.append(self._build_sstable(frozen))
        if len(self._sstables) > self._max_tables:
            self._compact_locked()
        self._cond.notify_all()

    def _background_flush(self) -> None:
        """Flusher-pool task: drain the frozen queue, oldest first.

        The SSTable is built outside the lock (the frozen memtable is
        immutable), then swapped in and the source dequeued atomically so
        readers never see the rows in both places or in neither.
        """
        try:
            while True:
                with self._cond:
                    if not self._frozen:
                        self._flush_inflight = False
                        self._cond.notify_all()
                        return
                    frozen = self._frozen[0]
                table = self._build_sstable(frozen)
                with self._cond:
                    self._sstables.append(table)
                    self._frozen.pop(0)
                    if len(self._sstables) > self._max_tables:
                        self._compact_locked()
                    self._cond.notify_all()
        except BaseException as exc:  # surfaced on the next write/flush
            with self._cond:
                self._flush_error = exc
                self._flush_inflight = False
                self._cond.notify_all()

    # -- flush / compaction --------------------------------------------------

    def flush(self) -> None:
        """Freeze the memtable into an SSTable (no-op when empty).

        Also drains the background flush pipeline, so on return every
        previously written row is in an SSTable.
        """
        with self._cond:
            self._raise_flush_error_locked()
            if len(self._memtable):
                self._frozen.append(self._memtable)
                self._memtable = MemTable()
            while self._flush_inflight:
                self._cond.wait()
                self._raise_flush_error_locked()
            self._drain_frozen_locked()

    def compact(self) -> None:
        """Merge every SSTable into one, dropping shadowed values and tombstones."""
        with self._cond:
            self._compact_locked()

    def _compact_locked(self) -> None:
        merged: dict[bytes, bytes] = {}
        for table in self._sstables:  # oldest first; later wins
            for k, v in table.scan():
                merged[k] = v
        live = sorted((k, v) for k, v in merged.items() if v != TOMBSTONE)
        _COMPACT_TOTAL.inc()
        _COMPACT_BYTES.inc(sum(len(k) + len(v) for k, v in live))
        self.last_format_census = census_rows(live)
        self._sstables = [SSTable(live, self._stats)] if live else []

    # -- reads --------------------------------------------------------------

    def _levels_snapshot(self) -> tuple[list[MemTable], list[SSTable]]:
        """The level lists, each newest first, copied under the lock.

        Frozen memtables are never mutated again and SSTables never
        change after construction, so reads run lock-free against the
        snapshot while flushes and compactions swap the lists.
        """
        with self._cond:
            return (
                [self._memtable, *reversed(self._frozen)],
                self._sstables[::-1],
            )

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the live value for ``key`` or ``None`` (bloom-filtered)."""
        memtables, sstables = self._levels_snapshot()
        return newest_value(memtables + sstables, key)

    def scan(
        self, start: Optional[bytes] = None, stop: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield live entries in ``[start, stop)`` in key order."""
        return self.scan_windows(((start, stop),))

    def scan_windows(self, windows: Sequence[Window]) -> Iterator[tuple[bytes, bytes]]:
        """Yield the live entries of sorted, disjoint ``windows`` in key order.

        One level snapshot serves the whole list.  For duplicate keys the
        newest level (memtable, frozen memtables newest-first, then
        youngest SSTable) wins, and tombstones suppress the key entirely.
        """
        memtables, sstables = self._levels_snapshot()
        return merge_live(level.scan_windows(windows) for level in memtables + sstables)
