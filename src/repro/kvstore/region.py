"""Regions: contiguous key-range shards of a table."""

from __future__ import annotations

import time
from typing import Iterator, Optional, Protocol, Sequence

from repro.kvstore import simfault, simlatency
from repro.kvstore.lsm import LSMStore
from repro.kvstore.retry import CircuitBreaker
from repro.kvstore.scan import Scan
from repro.kvstore.stats import IOStats
from repro.obs import counter as _obs_counter, histogram as _obs_histogram
from repro.runtime.backpressure import WriteLimits

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
    """The storage contract a region needs (LSMStore and DurableLSMStore)."""

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key`` with ``value``."""

    def put_batch(self, rows: Sequence[tuple[bytes, bytes]]) -> None:
        """Insert many rows, in order."""

    def delete(self, key: bytes) -> None:
        """Remove ``key``."""

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value stored under ``key``, or ``None`` when absent."""

    def scan(
        self, start: Optional[bytes] = None, stop: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(key, value)`` pairs in ``[start, stop)`` in key order."""

    def flush(self) -> None:
        """Persist buffered writes."""


class Region:
    """One key range ``[start_key, end_key)`` of a table with its own store.

    ``start_key=None`` means unbounded low, ``end_key=None`` unbounded high.
    The region executes push-down filters locally, updating the shared
    :class:`IOStats` so a query's candidate and transfer counts are exact.
    The backing engine defaults to the in-memory LSM; tables opened with a
    ``data_dir`` supply durable engines instead.
    """

    def __init__(
        self,
        start_key: Optional[bytes],
        end_key: Optional[bytes],
        stats: IOStats,
        flush_bytes: int = 4 * 1024 * 1024,
        store: Optional[KVStoreEngine] = None,
        breaker: Optional[CircuitBreaker] = None,
        write_limits: Optional[WriteLimits] = None,
        flusher=None,
    ):
        if start_key is not None and end_key is not None and end_key <= start_key:
            raise ValueError("region end_key must be greater than start_key")
        self.start_key = start_key
        self.end_key = end_key
        # Consecutive RPC failures against this region trip the breaker,
        # which degrades the table's execution strategy (serial windows,
        # inline multi_get) until a probe succeeds.
        self.breaker = breaker if breaker is not None else CircuitBreaker(
            name=f"[{start_key!r},{end_key!r})"
        )
        self._stats = stats
        self._store = store if store is not None else LSMStore(
            stats,
            flush_bytes=flush_bytes,
            write_limits=write_limits,
            flusher=flusher,
        )
        self._row_count = 0
        # Recover the row estimate for pre-existing durable stores.
        if store is not None:
            self._row_count = sum(1 for _ in self._store.scan())

    def __repr__(self) -> str:
        return f"Region([{self.start_key!r}, {self.end_key!r}), rows~{self._row_count})"

    @property
    def approx_rows(self) -> int:
        """Rows written minus deleted (approximate; duplicates not tracked)."""
        return self._row_count

    @property
    def memtable_bytes(self) -> int:
        """Unflushed bytes buffered in the backing engine's memtable(s)."""
        return getattr(self._store, "memtable_bytes", 0)

    @property
    def format_census(self) -> Optional[dict[int, int]]:
        """Trajectory row versions seen at the engine's last compaction."""
        return getattr(self._store, "last_format_census", None)

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
        simfault.get_fault()
        simlatency.get_delay()
        return self._get_local(key)

    def get_batch(self, keys: list[bytes]) -> list[Optional[bytes]]:
        """Resolve many point gets as one request (one emulated RPC).

        This is the region half of ``Table.multi_get``: a batch costs a
        single round trip however many keys it carries, versus one per
        key through :meth:`get`.  Like :meth:`get`, the whole batch fails
        as one RPC under fault injection.  Engines that expose their own
        ``get_batch`` (the replicated process-mode store) resolve the
        whole batch in one real RPC; the per-key I/O accounting stays
        here either way, so candidate counts match across engines.
        """
        simfault.get_fault()
        simlatency.get_delay()
        batch = getattr(self._store, "get_batch", None)
        if batch is None:
            return [self._get_local(key) for key in keys]
        values = batch(list(keys))
        for key, value in zip(keys, values):
            _POINT_GETS.inc()
            if value is not None:
                self._stats.add(
                    rows_scanned=1,
                    rows_returned=1,
                    bytes_transferred=len(key) + len(value),
                )
        return values

    def _get_local(self, key: bytes) -> Optional[bytes]:
        _POINT_GETS.inc()
        value = self._store.get(key)
        if value is not None:
            self._stats.add(
                rows_scanned=1, rows_returned=1, bytes_transferred=len(key) + len(value)
            )
        return value

    def clamp(self, scan: Scan) -> tuple[Optional[bytes], Optional[bytes]]:
        """Intersect the scan range with this region's key range."""
        start = scan.start
        stop = scan.stop
        if self.start_key is not None and (start is None or start < self.start_key):
            start = self.start_key
        if self.end_key is not None and (stop is None or stop > self.end_key):
            stop = self.end_key
        return start, stop

    def execute_scan(self, scan: Scan) -> Iterator[tuple[bytes, bytes]]:
        """Run the scan's portion that falls inside this region.

        Every row touched counts as scanned; rows passing the push-down
        filter are transferred (and counted) to the caller.  With metrics
        enabled the scan also feeds the ``kv_region_scan_*`` instruments:
        busy time (time spent producing rows, excluding the consumer's
        time between pulls) lands in the latency histogram, and row totals
        are batched into the counters when the scan closes.
        """
        start, stop = self.clamp(scan)
        if start is not None and stop is not None and stop <= start:
            return
        deadline = scan.deadline
        if deadline is not None:
            deadline.check("region.scan")
        # The scan RPC fails at open, before any row is produced; a retry
        # (Table._resilient_region_scan) reopens from after the last
        # delivered key, so consumers never see duplicates or gaps.
        simfault.scan_fault()
        simlatency.scan_delay()
        self._stats.add(range_scans=1)
        if _SCAN_MS._registry.enabled:
            yield from self._execute_scan_timed(scan, start, stop)
            return
        returned = 0
        scanned = 0
        for key, value in self._store_scan(start, stop, deadline):
            scanned += 1
            if deadline is not None and scanned % DEADLINE_CHECK_ROWS == 0:
                deadline.check("region.scan")
            self._stats.add(rows_scanned=1)
            if scan.server_filter is not None:
                self._stats.add(filter_evals=1)
                if not scan.server_filter.test(key, value):
                    continue
            self._stats.add(rows_returned=1, bytes_transferred=len(key) + len(value))
            yield key, value
            returned += 1
            if scan.limit is not None and returned >= scan.limit:
                return

    def _execute_scan_timed(
        self, scan: Scan, start: Optional[bytes], stop: Optional[bytes]
    ) -> Iterator[tuple[bytes, bytes]]:
        """The metered twin of :meth:`execute_scan`'s row loop."""
        perf = time.perf_counter
        deadline = scan.deadline
        busy = 0.0
        scanned = returned = 0
        try:
            t0 = perf()
            for key, value in self._store_scan(start, stop, deadline):
                scanned += 1
                if deadline is not None and scanned % DEADLINE_CHECK_ROWS == 0:
                    deadline.check("region.scan")
                self._stats.add(rows_scanned=1)
                if scan.server_filter is not None:
                    self._stats.add(filter_evals=1)
                    if not scan.server_filter.test(key, value):
                        t1 = perf()
                        busy += t1 - t0
                        t0 = t1
                        continue
                self._stats.add(
                    rows_returned=1, bytes_transferred=len(key) + len(value)
                )
                returned += 1
                busy += perf() - t0
                yield key, value
                t0 = perf()
                if scan.limit is not None and returned >= scan.limit:
                    return
        finally:
            _SCAN_TOTAL.inc()
            _SCAN_MS.observe(busy * 1000.0)
            if scanned:
                _ROWS_SCANNED.inc(scanned)
            if returned:
                _ROWS_RETURNED.inc(returned)

    def _store_scan(
        self,
        start: Optional[bytes],
        stop: Optional[bytes],
        deadline,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Open the engine scan, forwarding the deadline when supported.

        The engine protocol has no deadline parameter; engines that can
        stop producing on expiry themselves (the process-mode replicated
        store, whose pages are cut worker-side) advertise
        ``accepts_deadline = True`` and receive the token explicitly —
        explicit rather than ambient, like every other deadline hand-off.
        """
        if deadline is not None and getattr(self._store, "accepts_deadline", False):
            return self._store.scan(start, stop, deadline=deadline)
        return self._store.scan(start, stop)

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
        """Release the region's resources after a split replaced it.

        Durable engines are closed and their directory removed; the
        in-memory engine needs nothing.
        """
        # Engines that manage remote or external state (the replicated
        # process-mode store) expose destroy(); it deletes the data on
        # every replica before the local close.
        destroy = getattr(self._store, "destroy", None)
        if callable(destroy):
            destroy()
        close = getattr(self._store, "close", None)
        if callable(close):
            close()
        data_dir = getattr(self._store, "data_dir", None)
        if data_dir is not None:
            import shutil

            shutil.rmtree(data_dir, ignore_errors=True)

    def close(self) -> None:
        """Close the backing engine without deleting data."""
        close = getattr(self._store, "close", None)
        if callable(close):
            close()
