"""Tables: ordered namespaces of rows, partitioned into regions."""

from __future__ import annotations

import bisect
import itertools
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Iterator, Optional, Sequence

from repro.kvstore.block_cache import BlockCache
from repro.kvstore.errors import RegionError, TransientError
from repro.kvstore.region import KVStoreEngine, Region
from repro.kvstore.retry import RetryPolicy
from repro.kvstore.scan import Scan, Window, windows_after
from repro.kvstore.scheduler import scan_scheduled
from repro.kvstore.stats import IOStats
from repro.obs import counter as _obs_counter
from repro.obs.profile import current_profile, run_with_profile
from repro.runtime.deadline import Deadline

DEFAULT_SPLIT_ROWS = 200_000
DEFAULT_BATCH_ROWS = 256
# Below this many keys a multi_get runs inline; pool dispatch costs more.
MULTI_GET_MIN_PARALLEL = 8

_SCANS_BY_MODE = _obs_counter(
    "kv_multirange_scans_total",
    "Multi-range scans executed",
    labelnames=("mode",),
)
_WINDOWS_STARTED = _obs_counter(
    "kv_multirange_windows_started_total",
    "Scan windows in the region runs multi-range scans opened",
)
_MULTIGET_BATCHES = _obs_counter(
    "kv_multiget_batches_total", "Batched point-lookup calls"
)
_MULTIGET_KEYS = _obs_counter(
    "kv_multiget_keys_total", "Keys resolved through batched point lookups"
)


class StoreBuilder:
    """Makes the engine behind every region of a cluster's tables.

    A cluster builds one (``Cluster._store_builder``), so all its regions
    get the same engine with the same arguments.  This base keeps no
    region layout, so a table starts as one region at every open;
    subclasses make the stores.
    """

    block_cache: Optional[BlockCache] = None

    def store(self, table: str, region_id: int) -> KVStoreEngine:
        """A new engine for region ``region_id`` of ``table``."""
        raise NotImplementedError

    def load_layout(self, table: str) -> Optional[dict]:
        """``table``'s persisted region layout, or ``None`` for a new table."""
        return None

    def save_layout(self, table: str, layout: dict) -> None:
        """Persist ``table``'s region layout (kept only where data survives)."""

    def table_names(self) -> list[str]:
        """Tables whose layout survives from an earlier open."""
        return []

    def close(self) -> None:
        """Release the builder's own resources once every table is closed."""


class Table:
    """A sorted table split into contiguous regions.

    Regions are kept in key order.  When a region's row count exceeds
    ``split_rows`` it is split at its median key — the moral equivalent of
    HBase auto-splitting.  ``multi_range_scan`` reads each region's share
    of a window list with one cursor, the regions concurrently on a thread
    pool, which mirrors the paper's "push down filters into relevant table
    regions and execute the query in parallel".  Every region's engine
    comes from ``stores``.
    """

    def __init__(
        self,
        name: str,
        stats: IOStats,
        stores: StoreBuilder,
        split_rows: int = DEFAULT_SPLIT_ROWS,
        executor: Optional[ThreadPoolExecutor] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self.name = name
        self._stats = stats
        self._stores = stores
        self._split_rows = split_rows
        self._executor = executor
        self._retry = retry if retry is not None else RetryPolicy()
        self._next_region_id = 0
        self._regions: list[Region] = []
        # _boundaries[i] is the start key of region i+1.
        self._boundaries: list[bytes] = []

        layout = stores.load_layout(name)
        if layout is None:
            self._regions = [self._build_region(None, None)]
            self._persist_layout()
        else:
            self._next_region_id = layout["next_region_id"]
            for entry in layout["regions"]:
                start = bytes.fromhex(entry["start"]) if entry["start"] else None
                end = bytes.fromhex(entry["end"]) if entry["end"] else None
                self._regions.append(self._build_region(start, end, entry["id"]))
            self._boundaries = [
                r.start_key for r in self._regions[1:]  # type: ignore[misc]
            ]

    # -- region layout -----------------------------------------------------

    def _build_region(self, start, end, region_id: Optional[int] = None) -> Region:
        """A new, empty region; with ``region_id``, one reopened from the
        persisted layout, whose rows are counted once."""
        reopened = region_id is not None
        if not reopened:
            region_id = self._next_region_id
            self._next_region_id += 1
        store = self._stores.store(self.name, region_id)
        region = Region(
            start,
            end,
            self._stats,
            store,
            sum(1 for _ in store.scan()) if reopened else 0,
        )
        region.region_id = region_id  # type: ignore[attr-defined]
        return region

    def _persist_layout(self) -> None:
        self._stores.save_layout(
            self.name,
            {
                "next_region_id": self._next_region_id,
                "regions": [
                    {
                        "id": r.region_id,  # type: ignore[attr-defined]
                        "start": r.start_key.hex() if r.start_key is not None else None,
                        "end": r.end_key.hex() if r.end_key is not None else None,
                    }
                    for r in self._regions
                ],
            },
        )

    def close(self) -> None:
        """Close every region's backing engine (durable tables)."""
        for region in self._regions:
            region.close()

    # -- routing --------------------------------------------------------

    @property
    def regions(self) -> Sequence[Region]:
        """The table's regions in key order."""
        return tuple(self._regions)

    def _region_for(self, key: bytes) -> Region:
        idx = bisect.bisect_right(self._boundaries, key)
        region = self._regions[idx]
        if not region.owns(key):  # pragma: no cover - invariant guard
            raise RegionError(f"routing error: {key!r} not owned by {region}")
        return region

    def _region_runs(
        self, windows: Iterable[Window]
    ) -> Iterator[tuple[Region, list[Window]]]:
        """Group ``windows`` lazily into ``(region, run)`` pairs, one region
        cursor each: consecutive windows overlapping one region, each
        starting at or after the previous one's stop.  A window straddling
        a region boundary joins one run per region (each region clips it);
        overlapping or unsorted input starts a new run."""
        region: Optional[Region] = None
        run: list[Window] = []
        for window in windows:
            start, stop = window
            if start is not None and stop is not None and stop <= start:
                continue  # empty
            lo = 0 if start is None else bisect.bisect_right(self._boundaries, start)
            # stop is exclusive: the region containing stop-epsilon.
            hi = len(self._boundaries)
            if stop is not None:
                hi = min(hi, bisect.bisect_left(self._boundaries, stop))
            for owner in self._regions[lo : hi + 1]:
                if run and (
                    owner is not region or run[-1][1] is None or start is None
                    or start < run[-1][1]
                ):
                    yield region, run
                    run = []
                region = owner
                run.append(window)
        if run:
            yield region, run

    # -- writes -----------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key`` with ``value``."""
        self.put_batch([(key, value)])

    def put_batch(self, rows: Sequence[tuple[bytes, bytes]]) -> None:
        """Insert many rows with one ``Region.put_batch`` per region touched.

        Equivalent to :meth:`put` on each row in order: a region gets its rows
        in their order, cut at the row that takes it past ``split_rows``,
        where it splits; the rest is routed again over the two halves.
        """
        pending = list(rows)
        while pending:
            groups: dict[Region, list[tuple[bytes, bytes]]] = {}
            for row in pending:
                groups.setdefault(self._region_for(row[0]), []).append(row)
            pending = []
            for region, group in groups.items():
                room = max(1, self._split_rows - region.approx_rows + 1)
                region.put_batch(group[:room])
                if region.approx_rows > self._split_rows:
                    self._split(region)
                    pending += group[room:]

    def delete(self, key: bytes) -> None:
        """Remove ``key``."""
        self._region_for(key).delete(key)

    def _split(self, region: Region) -> None:
        mid = region.split_key()
        if mid is None:
            return
        idx = self._regions.index(region)
        left = self._build_region(region.start_key, mid)
        right = self._build_region(mid, region.end_key)
        rows = region.drain()
        left.put_batch([row for row in rows if row[0] < mid])
        right.put_batch([row for row in rows if row[0] >= mid])
        self._regions[idx : idx + 1] = [left, right]
        self._boundaries.insert(idx, mid)
        region.retire()
        self._persist_layout()

    # -- reads --------------------------------------------------------------

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value stored under ``key``, or ``None`` when absent."""
        region = self._region_for(key)
        return self._retry.run(lambda: region.get(key), op="get")

    def _resilient_region_scan(
        self, region: Region, windows: list[Window], scan: Scan
    ) -> Iterator[tuple[bytes, bytes]]:
        """One region cursor over its run of ``windows`` (with the scan's
        filter and deadline), surviving transient RPC failures.

        The scan RPC fails at open (before producing rows), so a retry
        reopens the cursor; after rows were delivered, the reopen resumes
        strictly after the last delivered key by trimming the window list
        (keys are unique and ordered), making the retried stream
        byte-identical to an unfailed one.  Delivered progress refills the
        attempt budget — each resume is a new RPC — while the policy
        deadline still bounds the whole scan.
        """
        sub = Scan(server_filter=scan.server_filter, deadline=scan.deadline)
        tracker = None
        last: Optional[bytes] = None
        while True:
            try:
                for key, value in region.execute_scan(sub, windows):
                    yield key, value
                    last = key
                    if tracker is not None:
                        tracker.reset()
                return
            except TransientError as exc:
                if last is not None:
                    windows, last = windows_after(windows, last), None
                if tracker is None:
                    tracker = self._retry.attempts(
                        "region_scan", deadline=scan.deadline
                    )
                tracker.failed(exc)  # backs off, or raises RetryExhaustedError

    def scan(self, scan: Scan) -> Iterator[tuple[bytes, bytes]]:
        """Sequential scan across overlapping regions in key order."""
        if scan.limit is not None and scan.limit <= 0:
            return
        rows = (
            row
            for region, run in self._region_runs([(scan.start, scan.stop)])
            for row in self._resilient_region_scan(region, run, scan)
        )
        yield from itertools.islice(rows, scan.limit)

    def parallel_scan(self, scan: Scan) -> Iterator[tuple[bytes, bytes]]:
        """A one-window :meth:`multi_range_scan` that applies ``scan.limit``
        once to the merged stream: every overlapping region streams in
        chunks, in key order, and stops being pulled at the limit.  The
        query path calls :meth:`multi_range_scan`; the benchmark spine's
        tracer still wraps this method by name.
        """
        if scan.limit is not None and scan.limit <= 0:
            return
        rows = self.multi_range_scan(
            [(scan.start, scan.stop)], scan.server_filter, scan.deadline
        )
        try:
            yield from itertools.islice(rows, scan.limit)
        finally:
            rows.close()

    def multi_range_scan(
        self,
        windows: Iterable[Window],
        row_filter=None,
        deadline: Optional[Deadline] = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Scan many key windows, yielding each window's rows in order.

        Each region's run of windows (:meth:`_region_runs`) is read by one
        region cursor — one engine pass, one RPC page in process mode.
        With a worker pool and more than one run, the runs stream
        concurrently through :func:`~repro.kvstore.scheduler.scan_scheduled`
        (bounded buffering, lazy admission, cancellation on close) in run
        order, so the result is byte-identical to a serial loop, which is
        what runs without a pool or for a single run.  ``windows`` is
        consumed lazily either way.  :data:`DEFAULT_BATCH_ROWS` bounds each
        scheduled run's buffered rows.
        """
        scan = Scan(server_filter=row_filter, deadline=deadline)

        def read(run: tuple[Region, list[Window]]) -> Iterator[tuple[bytes, bytes]]:
            _WINDOWS_STARTED.inc(len(run[1]))
            return self._resilient_region_scan(*run, scan)

        runs = self._region_runs(windows)
        head = list(itertools.islice(runs, 1 if self._executor is None else 2))
        runs = itertools.chain(head, runs)
        if len(head) < 2:
            _SCANS_BY_MODE.labels(mode="serial").inc()
            for run in runs:
                yield from read(run)
            return
        _SCANS_BY_MODE.labels(mode="scheduled").inc()
        yield from scan_scheduled(
            read, runs, self._executor, DEFAULT_BATCH_ROWS, deadline=deadline
        )

    def multi_get(
        self,
        keys: Sequence[bytes],
        deadline: Optional[Deadline] = None,
    ) -> list[Optional[bytes]]:
        """Batched point lookups; values (or ``None``) in input-key order.

        Keys are grouped by owning region and each group resolves as one
        task on the worker pool, so a batch costs one dispatch per region
        instead of one serialized round trip per key.  Small batches and
        single-region groups run inline — the pool overhead would exceed
        the lookups.
        """
        keys = list(keys)
        _MULTIGET_BATCHES.inc()
        if keys:
            _MULTIGET_KEYS.inc(len(keys))
        if not keys:
            return []
        if deadline is not None:
            deadline.check("multi_get")
        groups: dict[int, list[int]] = {}
        for i, key in enumerate(keys):
            groups.setdefault(bisect.bisect_right(self._boundaries, key), []).append(i)
        out: list[Optional[bytes]] = [None] * len(keys)
        # One batched request per region; the pool only earns its dispatch
        # overhead when several region batches can actually overlap.
        if (
            self._executor is None
            or len(groups) == 1
            or len(keys) < MULTI_GET_MIN_PARALLEL
        ):
            for ridx, idxs in groups.items():
                values = self._get_batch_resilient(
                    self._regions[ridx], [keys[i] for i in idxs], deadline
                )
                for i, value in zip(idxs, values):
                    out[i] = value
            return out
        # Context vars don't cross pool submits: hand the active query
        # profile to every region batch so its gets stay attributed.
        profile = current_profile()
        futures = [
            (idxs, self._executor.submit(
                run_with_profile,
                profile,
                self._get_batch_resilient,
                self._regions[ridx],
                [keys[i] for i in idxs],
                deadline,
            ))
            for ridx, idxs in groups.items()
        ]
        for idxs, future in futures:
            for i, value in zip(idxs, future.result()):
                out[i] = value
        return out

    def _get_batch_resilient(
        self,
        region: Region,
        keys: list[bytes],
        deadline: Optional[Deadline] = None,
    ) -> list[Optional[bytes]]:
        """One region's batched get under the retry policy (inline or on the
        pool), refused up front once ``deadline`` has passed."""
        if deadline is not None:
            deadline.check("multi_get")
        return self._retry.run(
            lambda: region.get_batch(keys),
            op="multi_get",
            deadline=deadline,
        )

    def flush(self) -> None:
        """Flush every region's memtable."""
        for region in self._regions:
            region._store.flush()

    def count_rows(self) -> int:
        """Exact live row count (full scan; test/diagnostic use)."""
        return sum(1 for _ in self.scan(Scan()))

    def memtable_bytes(self) -> int:
        """Unflushed bytes buffered across the table's regions."""
        return sum(region.memtable_bytes for region in self._regions)

