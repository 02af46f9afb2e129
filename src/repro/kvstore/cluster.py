"""The cluster facade: a namespace of tables sharing stats and threads."""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional

from repro.kvstore.block_cache import BlockCache, make_block_cache
from repro.kvstore.errors import TableExistsError, TableNotFoundError
from repro.kvstore.lsm import LSMStore
from repro.kvstore.retry import RetryPolicy
from repro.kvstore.stats import IOStats
from repro.kvstore.table import StoreBuilder, Table
from repro.runtime.backpressure import WriteLimits

DEFAULT_BLOCK_CACHE_BYTES = 16 * 1024 * 1024


class MemoryStores(StoreBuilder):
    """In-memory :class:`LSMStore` regions; nothing survives a close."""

    def __init__(self, stats: IOStats, write_limits: Optional[WriteLimits]):
        self._stats = stats
        self._write_limits = write_limits
        # A dedicated single-worker pool for background memtable flushes:
        # sharing the scan pool would let a query burst starve flushing —
        # exactly the condition backpressure exists to relieve.
        self._flusher: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="kv-flush")
            if write_limits is not None
            else None
        )

    def store(self, table: str, region_id: int) -> LSMStore:
        return LSMStore(self._stats, write_limits=self._write_limits, flusher=self._flusher)

    def close(self) -> None:
        if self._flusher is not None:
            self._flusher.shutdown(wait=True)
            self._flusher = None


class DurableStores(StoreBuilder):
    """One :class:`~repro.kvstore.durable.DurableLSMStore` directory per
    region under ``<root>/<table>/``, beside the table's ``regions.json``.

    Every region's disk SSTables share one block cache.  The stores take
    no flusher pool: a single-file WAL truncated at flush would race a
    background flush, so their watermarks drain inline.  The root carries
    the format stamp (:func:`~repro.kvstore.durable.claim_format`), checked
    before any table under it is served.
    """

    def __init__(
        self,
        root: Path,
        stats: IOStats,
        block_cache: Optional[BlockCache],
        retry: RetryPolicy,
        write_limits: Optional[WriteLimits],
    ):
        from repro.kvstore.durable import claim_format

        claim_format(root)
        self._root = root
        self._stats = stats
        self.block_cache = block_cache
        self._retry = retry
        self._write_limits = write_limits

    def store(self, table: str, region_id: int):
        from repro.kvstore.durable import DurableLSMStore

        # Group-commit WAL (sync=False): records reach the OS per write
        # and are fsynced at flush/close, which keeps bulk loads usable.
        return DurableLSMStore(
            self._root / table / f"region-{region_id:04d}",
            self._stats,
            sync=False,
            block_cache=self.block_cache,
            retry=self._retry,
            write_limits=self._write_limits,
        )

    def load_layout(self, table: str) -> Optional[dict]:
        path = self._root / table / "regions.json"
        return json.loads(path.read_text()) if path.exists() else None

    def save_layout(self, table: str, layout: dict) -> None:
        path = self._root / table / "regions.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(layout))

    def table_names(self) -> list[str]:
        return [p.parent.name for p in sorted(self._root.glob("*/regions.json"))]


class Cluster:
    """An embedded key-value cluster.

    Owns the shared :class:`IOStats`, an optional worker pool used for
    parallel region scans, the retry policy applied to every region RPC,
    the table catalog and the store builder that makes every region's
    engine: in-memory LSM stores, or durable ones under ``data_dir``
    sharing a block cache of ``block_cache_bytes``.  One ``Cluster`` per
    TMan deployment; baselines get their own so counters never mix.
    """

    def __init__(
        self,
        workers: int = 4,
        split_rows: int = 200_000,
        data_dir=None,
        block_cache_bytes: int = DEFAULT_BLOCK_CACHE_BYTES,
        retry: Optional[RetryPolicy] = None,
        write_limits: Optional[WriteLimits] = None,
    ):
        self.stats = IOStats()
        self._split_rows = split_rows
        self.retry = retry if retry is not None else RetryPolicy()
        self._executor: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(max_workers=workers, thread_name_prefix="kv-scan")
            if workers > 1
            else None
        )
        self._builder = self._store_builder(
            data_dir,
            block_cache_bytes,
            write_limits if write_limits is not None and write_limits.enabled else None,
        )
        self.block_cache: Optional[BlockCache] = self._builder.block_cache
        self._tables: dict[str, Table] = {}
        for name in self._builder.table_names():
            self.create_table(name)

    def _store_builder(
        self, data_dir, block_cache_bytes: int, write_limits: Optional[WriteLimits]
    ) -> StoreBuilder:
        """The one place the cluster chooses its regions' engine."""
        if data_dir is None:
            return MemoryStores(self.stats, write_limits)
        cache = make_block_cache(block_cache_bytes)
        return DurableStores(Path(data_dir), self.stats, cache, self.retry, write_limits)

    def create_table(self, name: str, if_not_exists: bool = False) -> Table:
        """Create a table; with ``if_not_exists`` return the existing one."""
        if name in self._tables:
            if if_not_exists:
                return self._tables[name]
            raise TableExistsError(name)
        table = Table(
            name,
            self.stats,
            self._builder,
            split_rows=self._split_rows,
            executor=self._executor,
            retry=self.retry,
        )
        self._tables[name] = table
        return table

    def table(self, name: str) -> Table:
        """Look a table up by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise TableNotFoundError(name) from None

    def has_table(self, name: str) -> bool:
        """True when a table with this name exists."""
        return name in self._tables

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog, closing its regions first.

        Durable tables hold open WAL/SSTable handles per region; dropping
        the catalog entry without closing them leaks file descriptors and
        loses unflushed writes.
        """
        if name not in self._tables:
            raise TableNotFoundError(name)
        self._tables[name].close()
        del self._tables[name]

    def table_names(self) -> list[str]:
        """Sorted names of all tables."""
        return sorted(self._tables)

    def memtable_bytes(self) -> int:
        """Unflushed bytes buffered across every table's regions."""
        return sum(table.memtable_bytes() for table in self._tables.values())

    def close(self) -> None:
        """Close every table, then the store builder and the scan pool
        (idempotent)."""
        for table in self._tables.values():
            table.close()
        self._builder.close()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
