"""Tables: ordered namespaces of rows, partitioned into regions."""

from __future__ import annotations

import bisect
import heapq
import itertools
from concurrent.futures import ThreadPoolExecutor
from typing import Iterable, Iterator, Optional, Sequence

from repro.kvstore.block_cache import BlockCache
from repro.kvstore.census import merge_census
from repro.kvstore.errors import RegionError, TransientError
from repro.kvstore.region import Region
from repro.kvstore.retry import CircuitBreaker, RetryPolicy
from repro.kvstore.scan import Scan
from repro.kvstore.scheduler import (
    DEFAULT_WINDOW_CONCURRENCY,
    ChunkedStream,
    scan_scheduled,
)
from repro.kvstore.stats import IOStats
from repro.obs import counter as _obs_counter
from repro.obs.profile import current_profile, run_with_profile
from repro.runtime.backpressure import WriteLimits
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
_MULTIGET_BATCHES = _obs_counter(
    "kv_multiget_batches_total", "Batched point-lookup calls"
)
_MULTIGET_KEYS = _obs_counter(
    "kv_multiget_keys_total", "Keys resolved through batched point lookups"
)

Window = tuple[Optional[bytes], Optional[bytes]]


class Table:
    """A sorted table split into contiguous regions.

    Regions are kept in key order.  When a region's row count exceeds
    ``split_rows`` it is split at its median key — the moral equivalent of
    HBase auto-splitting.  ``parallel_scan`` fans a scan out to every
    overlapping region on a thread pool and merges results in key order,
    which mirrors the paper's "push down filters into relevant table regions
    and execute the query in parallel".
    """

    def __init__(
        self,
        name: str,
        stats: IOStats,
        split_rows: int = DEFAULT_SPLIT_ROWS,
        executor: Optional[ThreadPoolExecutor] = None,
        data_dir=None,
        block_cache: Optional[BlockCache] = None,
        retry: Optional[RetryPolicy] = None,
        write_limits: Optional[WriteLimits] = None,
        flusher: Optional[ThreadPoolExecutor] = None,
        store_factory=None,
    ):
        self.name = name
        self._stats = stats
        self._split_rows = split_rows
        self._executor = executor
        self._data_dir = data_dir
        # store_factory(table_name, region_id) -> engine: supplied by the
        # process-mode cluster to back regions with replicated remote
        # stores; takes precedence over the data_dir durable branch.
        self._store_factory = store_factory
        self._block_cache = block_cache
        self._retry = retry if retry is not None else RetryPolicy()
        self._write_limits = write_limits
        self._flusher = flusher
        self._next_region_id = 0
        self._regions: list[Region] = []
        # _boundaries[i] is the start key of region i+1.
        self._boundaries: list[bytes] = []

        layout = self._load_layout()
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

    # -- durable layout ----------------------------------------------------

    def _build_region(self, start, end, region_id: Optional[int] = None) -> Region:
        store = None
        if region_id is None and (
            self._store_factory is not None or self._data_dir is not None
        ):
            region_id = self._next_region_id
            self._next_region_id += 1
        if self._store_factory is not None:
            store = self._store_factory(self.name, region_id)
        elif self._data_dir is not None:
            from pathlib import Path

            from repro.kvstore.durable import DurableLSMStore

            region_dir = Path(self._data_dir) / self.name / f"region-{region_id:04d}"
            # Group-commit WAL (sync=False): records reach the OS per write
            # and are fsynced at flush/close, which keeps bulk loads usable.
            store = DurableLSMStore(
                region_dir,
                self._stats,
                sync=False,
                block_cache=self._block_cache,
                retry=self._retry,
                write_limits=self._write_limits,
            )
            store.region_id = region_id  # type: ignore[attr-defined]
        breaker = CircuitBreaker(name=f"{self.name}/[{start!r},{end!r})")
        region = Region(
            start,
            end,
            self._stats,
            store=store,
            breaker=breaker,
            write_limits=self._write_limits,
            flusher=self._flusher,
        )
        region.region_id = region_id  # type: ignore[attr-defined]
        return region

    def _layout_path(self):
        from pathlib import Path

        return Path(self._data_dir) / self.name / "regions.json"

    def _load_layout(self) -> Optional[dict]:
        if self._data_dir is None:
            return None
        path = self._layout_path()
        if not path.exists():
            return None
        import json

        return json.loads(path.read_text())

    def _persist_layout(self) -> None:
        if self._data_dir is None:
            return
        import json

        path = self._layout_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "next_region_id": self._next_region_id,
            "regions": [
                {
                    "id": getattr(r, "region_id", None),
                    "start": r.start_key.hex() if r.start_key is not None else None,
                    "end": r.end_key.hex() if r.end_key is not None else None,
                }
                for r in self._regions
            ],
        }
        path.write_text(json.dumps(doc))

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

    def _regions_healthy(self, regions: Optional[Sequence[Region]] = None) -> bool:
        """False when any (given) region's breaker is open.

        An open breaker degrades execution to the serial strategy: the
        same scans still run (results must stay correct), but window- and
        region-level concurrency is shed so a flapping region is not
        hammered from every pool worker at once.
        """
        check = self._regions if regions is None else regions
        return all(region.breaker.healthy for region in check)

    def _overlapping_regions(self, scan: Scan) -> list[Region]:
        lo = 0
        if scan.start is not None:
            lo = bisect.bisect_right(self._boundaries, scan.start)
        hi = len(self._regions) - 1
        if scan.stop is not None:
            # stop is exclusive: the region containing stop-epsilon.
            hi = bisect.bisect_left(self._boundaries, scan.stop)
            hi = min(hi, len(self._regions) - 1)
        return self._regions[lo : hi + 1]

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
        return self._retry.run(
            lambda: region.get(key), op="get", breaker=region.breaker
        )

    def _resilient_region_scan(
        self, region: Region, scan: Scan
    ) -> Iterator[tuple[bytes, bytes]]:
        """One region's scan, surviving transient RPC failures.

        The scan RPC fails at open (before producing rows), so a retry
        reopens the scan; after rows were delivered, the reopen resumes
        strictly after the last delivered key (keys are unique and
        ordered), making the retried stream byte-identical to an
        unfailed one.  Delivered progress refills the attempt budget —
        each resume is a new RPC — while the policy deadline still bounds
        the whole scan.
        """
        tracker = None
        start = scan.start
        delivered = 0
        while True:
            sub = Scan(
                start,
                scan.stop,
                scan.server_filter,
                None if scan.limit is None else scan.limit - delivered,
                deadline=scan.deadline,
            )
            try:
                for key, value in region.execute_scan(sub):
                    yield key, value
                    delivered += 1
                    start = key + b"\x00"  # resume strictly after key
                    if tracker is not None:
                        tracker.reset()
                region.breaker.record_success()
                return
            except TransientError as exc:
                region.breaker.record_failure()
                if tracker is None:
                    tracker = self._retry.attempts(
                        "region_scan", deadline=scan.deadline
                    )
                tracker.failed(exc)  # backs off, or raises RetryExhaustedError

    def scan(self, scan: Scan) -> Iterator[tuple[bytes, bytes]]:
        """Sequential scan across overlapping regions in key order."""
        remaining = scan.limit
        if remaining is not None and remaining <= 0:
            return
        for region in self._overlapping_regions(scan):
            sub = Scan(
                scan.start,
                scan.stop,
                scan.server_filter,
                remaining,
                deadline=scan.deadline,
            )
            for row in self._resilient_region_scan(region, sub):
                yield row
                if remaining is not None:
                    remaining -= 1
                    if remaining <= 0:
                        return

    def parallel_scan(self, scan: Scan) -> Iterator[tuple[bytes, bytes]]:
        """Fan the scan out to every overlapping region, streaming the merge.

        Each region is read lazily in chunks of ``scan.batch_rows`` (one
        chunk prefetched ahead on the worker pool), and the per-region
        streams are merged back into global key order with ``heapq.merge``.
        ``limit`` is applied exactly once, at the merge point: region scans
        carry no limit of their own and simply stop being pulled, so an
        early-terminated consumer (``limit``, top-k, kNN ring expansion)
        scans at most one in-flight chunk per region beyond what it yielded.
        Without an executor the regions are processed sequentially, which
        preserves semantics for single-threaded deployments.
        """
        if scan.limit is not None and scan.limit <= 0:
            return
        regions = self._overlapping_regions(scan)
        if (
            self._executor is None
            or len(regions) <= 1
            or not self._regions_healthy(regions)
        ):
            yield from self.scan(scan)
            return

        # Per-region scans deliberately drop the global limit (it is applied
        # once, below) but keep the range and push-down filter.
        sub = Scan(scan.start, scan.stop, scan.server_filter, deadline=scan.deadline)
        batch = scan.batch_rows if scan.batch_rows is not None else DEFAULT_BATCH_ROWS
        streams = [
            ChunkedStream(
                self._executor,
                self._resilient_region_scan(region, sub),
                batch,
                deadline=scan.deadline,
            )
            for region in regions
        ]
        # Kick off the first chunk of every region before the merge starts
        # pulling, so region reads overlap instead of serializing.
        for stream in streams:
            stream.start()
        try:
            remaining = scan.limit
            for row in heapq.merge(*streams):
                yield row
                if remaining is not None:
                    remaining -= 1
                    if remaining <= 0:
                        return
        finally:
            for stream in streams:
                stream.close()

    def multi_range_scan(
        self,
        windows: Iterable[Window],
        row_filter=None,
        deadline: Optional[Deadline] = None,
    ) -> Iterator[tuple[bytes, bytes]]:
        """Scan many key windows, yielding each window's rows in order.

        With a worker pool, up to ``DEFAULT_WINDOW_CONCURRENCY`` windows
        execute concurrently through the :mod:`~repro.kvstore.scheduler`
        (bounded buffering, lazy admission, cancellation on close);
        output is still strictly window-ordered, so the result is
        byte-identical to a serial loop.  Without a pool, or while a
        region's breaker is open, each window runs :meth:`parallel_scan`
        in turn.  ``windows`` is consumed lazily either way: an
        early-terminated consumer never advances past the windows it
        needed.
        """
        windows_iter = iter(windows)
        degraded = not self._regions_healthy()
        if self._executor is None or degraded:
            _SCANS_BY_MODE.labels(mode="degraded" if degraded else "serial").inc()
            for start, stop in windows_iter:
                yield from self.parallel_scan(
                    Scan(start, stop, row_filter, deadline=deadline)
                )
            return
        first = next(windows_iter, None)
        if first is None:
            return
        second = next(windows_iter, None)
        if second is None:
            # One window: region-level parallelism beats window-level.
            _SCANS_BY_MODE.labels(mode="serial").inc()
            yield from self.parallel_scan(
                Scan(first[0], first[1], row_filter, deadline=deadline)
            )
            return
        _SCANS_BY_MODE.labels(mode="scheduled").inc()
        yield from scan_scheduled(
            lambda w: self.scan(Scan(w[0], w[1], row_filter, deadline=deadline)),
            itertools.chain((first, second), windows_iter),
            self._executor,
            DEFAULT_BATCH_ROWS,
            DEFAULT_WINDOW_CONCURRENCY,
            deadline=deadline,
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
        # overhead when several region batches can actually overlap.  An
        # open breaker sheds the pool dispatch too (degraded mode).
        if (
            self._executor is None
            or len(groups) == 1
            or len(keys) < MULTI_GET_MIN_PARALLEL
            or not self._regions_healthy([self._regions[r] for r in groups])
        ):
            for ridx, idxs in groups.items():
                if deadline is not None:
                    deadline.check("multi_get")
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
            self._executor.submit(
                run_with_profile,
                profile,
                _get_batch,
                self._regions[ridx],
                [keys[i] for i in idxs],
                idxs,
                self._retry,
                deadline,
            )
            for ridx, idxs in groups.items()
        ]
        for future in futures:
            for i, value in future.result():
                out[i] = value
        return out

    def _get_batch_resilient(
        self,
        region: Region,
        keys: list[bytes],
        deadline: Optional[Deadline] = None,
    ) -> list[Optional[bytes]]:
        """One region's batched get under the retry policy."""
        return self._retry.run(
            lambda: region.get_batch(keys),
            op="multi_get",
            breaker=region.breaker,
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

    def format_census(self) -> Optional[dict[int, int]]:
        """Row-format versions seen at the last compaction, summed over regions.

        ``None`` when no region of the table has compacted yet.
        """
        per_region = [region.format_census for region in self._regions]
        seen = [census for census in per_region if census is not None]
        if not seen:
            return None
        return merge_census(*seen)


def _get_batch(
    region: Region,
    keys: Sequence[bytes],
    idxs: Sequence[int],
    retry: RetryPolicy,
    deadline: Optional[Deadline] = None,
) -> list[tuple[int, Optional[bytes]]]:
    """Resolve one region's share of a multi_get (runs on the pool)."""
    if deadline is not None:
        deadline.check("multi_get")
    values = retry.run(
        lambda: region.get_batch(list(keys)),
        op="multi_get",
        breaker=region.breaker,
        deadline=deadline,
    )
    return list(zip(idxs, values))
