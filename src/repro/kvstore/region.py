"""Regions: contiguous key-range shards of a table."""

from __future__ import annotations

import time
from typing import Iterable, Iterator, Optional, Protocol, Sequence

from repro.kvstore import simfault
from repro.kvstore.scan import Scan, Window
from repro.kvstore.stats import IOStats
from repro.obs import counter as _obs_counter, histogram as _obs_histogram
from repro.runtime.deadline import Deadline

# Rows scanned between cooperative deadline checks inside the region scan
# loop.  Small enough that an expired query stops within microseconds of
# work, large enough that the clock read is invisible in scan throughput.
DEADLINE_CHECK_ROWS = 64

_SCAN_MS = _obs_histogram(
    "kv_region_scan_ms",
    "Per-region scan busy time (producing rows, excluding consumer time)",
)
_SCAN_TOTAL = _obs_counter("kv_region_scan_total", "Region range scans opened")
_ROWS_SCANNED = _obs_counter(
    "kv_rows_scanned_total", "Rows touched server-side by region scans"
)
_ROWS_RETURNED = _obs_counter(
    "kv_rows_returned_total", "Rows surviving push-down and shipped to clients"
)
_POINT_GETS = _obs_counter("kv_point_get_total", "Region point lookups")
_ROW_BYTES = _obs_histogram(
    "kv_row_bytes", "Encoded value size of rows written through Region.put"
)


class KVStoreEngine(Protocol):
    """The storage contract of a region, whole: the in-memory
    :class:`~repro.kvstore.lsm.LSMStore`, the on-disk
    :class:`~repro.kvstore.durable.DurableLSMStore` and the process-mode
    :class:`~repro.cluster.replication.ReplicatedStore` implement all of it."""

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key`` with ``value``."""

    def put_batch(self, rows: Sequence[tuple[bytes, bytes]]) -> None:
        """Insert many rows, in order."""

    def delete(self, key: bytes) -> None:
        """Remove ``key``."""

    def get_batch(self, keys: Sequence[bytes]) -> list[Optional[bytes]]:
        """Values (or ``None``) of ``keys``, in input order."""

    def scan(
        self, start: Optional[bytes] = None, stop: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(key, value)`` pairs in ``[start, stop)`` in key order."""

    def scan_windows(
        self, windows: Sequence[Window], deadline: Optional[Deadline] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield the pairs of sorted, disjoint ``windows`` in key order.

        An engine whose cursor runs in another process stops it at
        ``deadline`` there; in-process engines leave the checks to the
        region's scan loop."""

    def flush(self) -> None:
        """Persist buffered writes."""

    def close(self) -> None:
        """Release the engine's handles, keeping its data (idempotent)."""

    def destroy(self) -> None:
        """Close the engine and delete its data (a region retired)."""

    @property
    def memtable_bytes(self) -> int:
        """Unflushed bytes buffered in this process."""


class Region:
    """One key range ``[start_key, end_key)`` of a table with its own store.

    ``start_key=None`` means unbounded low, ``end_key=None`` unbounded high.
    The region executes push-down filters locally, updating the shared
    :class:`IOStats` so a query's candidate and transfer counts are exact.
    Its engine ``store`` comes from the cluster's store builder, and
    ``rows`` is what the store already holds (0 for a new region).
    """

    def __init__(
        self,
        start_key: Optional[bytes],
        end_key: Optional[bytes],
        stats: IOStats,
        store: KVStoreEngine,
        rows: int = 0,
    ):
        if start_key is not None and end_key is not None and end_key <= start_key:
            raise ValueError("region end_key must be greater than start_key")
        self.start_key = start_key
        self.end_key = end_key
        self._stats = stats
        self._store = store
        self._row_count = rows

    def __repr__(self) -> str:
        return f"Region([{self.start_key!r}, {self.end_key!r}), rows~{self._row_count})"

    @property
    def approx_rows(self) -> int:
        """Rows written minus deleted (approximate; duplicates not tracked)."""
        return self._row_count

    @property
    def memtable_bytes(self) -> int:
        """Unflushed bytes buffered in the backing engine's memtable(s)."""
        return self._store.memtable_bytes

    def owns(self, key: bytes) -> bool:
        """True when ``key`` routes to this region."""
        if self.start_key is not None and key < self.start_key:
            return False
        if self.end_key is not None and key >= self.end_key:
            return False
        return True

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key`` with ``value``."""
        self.put_batch(((key, value),))

    def put_batch(self, rows: Sequence[tuple[bytes, bytes]]) -> None:
        """Insert many rows with one engine call (one RPC per replica in
        process mode); row counts and ``kv_row_bytes`` as for :meth:`put`."""
        self._store.put_batch(rows)
        self._row_count += len(rows)
        for _, value in rows:
            _ROW_BYTES.observe(len(value))

    def delete(self, key: bytes) -> None:
        """Remove ``key``."""
        self._store.delete(key)
        self._row_count = max(0, self._row_count - 1)

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value stored under ``key``, or ``None`` when absent.

        May raise :class:`~repro.kvstore.errors.TransientRPCError` under
        fault injection — the table layer retries.
        """
        return self.get_batch([key])[0]

    def get_batch(self, keys: Sequence[bytes]) -> list[Optional[bytes]]:
        """Resolve many point gets as one request (one emulated RPC).

        This is the region half of ``Table.multi_get``: a batch costs a
        single round trip however many keys it carries, and the whole
        batch fails as one RPC under fault injection; the engine resolves
        it with one ``get_batch`` call.  The I/O accounting — one
        ``point_gets`` per key — lives here for every engine, so candidate
        counts match across engines and modes.
        """
        simfault.get_fault()
        values = self._store.get_batch(list(keys))
        found = [len(k) + len(v) for k, v in zip(keys, values) if v is not None]
        _POINT_GETS.inc(len(keys))
        self._stats.add(
            point_gets=len(keys),
            rows_scanned=len(found),
            rows_returned=len(found),
            bytes_transferred=sum(found),
        )
        return values

    def clip(self, windows: Iterable[Window]) -> list[Window]:
        """``windows`` cut to this region's key range, empty ones dropped."""
        lo, hi = self.start_key, self.end_key
        clipped = []
        for start, stop in windows:
            if lo is not None and (start is None or start < lo):
                start = lo
            if hi is not None and (stop is None or stop > hi):
                stop = hi
            if start is None or stop is None or start < stop:
                clipped.append((start, stop))
        return clipped

    def execute_scan(
        self, scan: Scan, windows: Optional[Sequence[Window]] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Read this region's share of ``windows`` with one engine cursor.

        ``windows`` (sorted and disjoint; default the scan's own range)
        are clipped to the region and handed to the engine's
        ``scan_windows`` as one list — one RPC in process mode.  Every row
        touched counts as scanned; rows passing the push-down filter are
        transferred (and counted) to the caller.  ``range_scans`` counts
        one seek per window the cursor reaches, and the row counters are
        batched per window.  The cursor also feeds the ``kv_region_scan_*``
        instruments: busy time (producing rows, excluding the consumer's
        time between pulls) lands in the latency histogram, and row totals
        in the counters when the cursor closes.  ``scan.limit`` is the
        caller's to apply (``Table`` does, across regions).
        """
        windows = self.clip([(scan.start, scan.stop)] if windows is None else windows)
        if not windows:
            return
        deadline = scan.deadline
        if deadline is not None:
            deadline.check("region.scan")
        # The scan RPC fails at open, before any row is produced; a retry
        # (Table._resilient_region_scan) resumes after the last delivered
        # key, so consumers never see duplicates or gaps.
        simfault.scan_fault()
        flt, stats, perf = scan.server_filter, self._stats, time.perf_counter
        busy = 0.0
        total_scanned = total_returned = 0
        # Counters since the last per-window flush; the first window opens now.
        seeks, scanned, evals, returned, nbytes = 1, 0, 0, 0, 0
        i, stop = 0, windows[0][1]
        finished = False
        try:
            t0 = perf()
            for key, value in self._store.scan_windows(windows, deadline):
                if stop is not None and key >= stop:
                    # The cursor left window i: flush its batch, open the
                    # windows up to the one holding this key.
                    stats.add(
                        range_scans=seeks, rows_scanned=scanned, filter_evals=evals,
                        rows_returned=returned, bytes_transferred=nbytes,
                    )
                    total_scanned += scanned
                    total_returned += returned
                    seeks = scanned = evals = returned = nbytes = 0
                    while windows[i][1] is not None and key >= windows[i][1]:
                        i += 1
                        seeks += 1
                    stop = windows[i][1]
                    if deadline is not None:
                        deadline.check("region.scan")
                scanned += 1
                if (
                    deadline is not None
                    and (total_scanned + scanned) % DEADLINE_CHECK_ROWS == 0
                ):
                    deadline.check("region.scan")
                if flt is not None:
                    evals += 1
                    if not flt.test(key, value):
                        continue
                returned += 1
                nbytes += len(key) + len(value)
                busy += perf() - t0
                yield key, value
                t0 = perf()
            finished = True
        finally:
            # An exhausted cursor has reached every window; a closed one
            # only those it opened.
            stats.add(
                range_scans=seeks + (len(windows) - 1 - i if finished else 0),
                rows_scanned=scanned, filter_evals=evals,
                rows_returned=returned, bytes_transferred=nbytes,
            )
            _SCAN_TOTAL.inc()
            _SCAN_MS.observe(busy * 1000.0)
            if total_scanned + scanned:
                _ROWS_SCANNED.inc(total_scanned + scanned)
            if total_returned + returned:
                _ROWS_RETURNED.inc(total_returned + returned)

    def split_key(self) -> Optional[bytes]:
        """Median key of the region, or None when too small to split."""
        self._store.flush()
        keys = [k for k, _ in self._store.scan()]
        if len(keys) < 2:
            return None
        mid = keys[len(keys) // 2]
        if mid == keys[0]:
            return None
        return mid

    def drain(self) -> list[tuple[bytes, bytes]]:
        """Return all live entries (used when splitting)."""
        return list(self._store.scan())

    def retire(self) -> None:
        """Delete the region's data after a split replaced it."""
        self._store.destroy()

    def close(self) -> None:
        """Close the backing engine without deleting data."""
        self._store.close()
