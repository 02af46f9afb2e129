"""The cluster facade: a namespace of tables sharing stats and threads."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.kvstore.block_cache import BlockCache, make_block_cache
from repro.kvstore.errors import TableExistsError, TableNotFoundError
from repro.kvstore.retry import RetryPolicy
from repro.kvstore.stats import IOStats
from repro.kvstore.table import Table
from repro.runtime.backpressure import WriteLimits

DEFAULT_BLOCK_CACHE_BYTES = 16 * 1024 * 1024


class Cluster:
    """An embedded key-value cluster.

    Owns the shared :class:`IOStats`, an optional worker pool used for
    parallel region scans, the cluster-wide SSTable block cache, the
    retry policy applied to every region RPC, and the table catalog.
    One ``Cluster`` per TMan deployment; baselines get their own so
    counters never mix.
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
        self._data_dir = data_dir
        self.retry = retry if retry is not None else RetryPolicy()
        self.write_limits = (
            write_limits if write_limits is not None and write_limits.enabled else None
        )
        # Shared across every table and region; only durable deployments
        # have disk SSTables, so for in-memory clusters this stays empty.
        self.block_cache: Optional[BlockCache] = make_block_cache(block_cache_bytes)
        self._executor: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(max_workers=workers, thread_name_prefix="kv-scan")
            if workers > 1
            else None
        )
        # A dedicated single-worker pool for background memtable flushes:
        # sharing the scan pool would let a query burst starve flushing —
        # exactly the condition backpressure exists to relieve.  In-memory
        # clusters only: a DurableLSMStore takes no flusher (its one WAL
        # file is truncated at flush), so its watermarks drain inline.
        self._flusher: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="kv-flush")
            if self.write_limits is not None and data_dir is None
            else None
        )
        # Subclasses (the process-mode cluster) install a factory that
        # backs new regions with remote replicated engines; None keeps
        # the in-process LSM/durable engines.
        self._table_store_factory = None
        self._tables: dict[str, Table] = {}
        if data_dir is not None:
            self._discover_tables()

    def _discover_tables(self) -> None:
        """Reopen durable tables found under the data directory."""
        from pathlib import Path

        root = Path(self._data_dir)
        if not root.exists():
            return
        for layout in sorted(root.glob("*/regions.json")):
            self.create_table(layout.parent.name, if_not_exists=True)

    def create_table(self, name: str, if_not_exists: bool = False) -> Table:
        """Create a table; with ``if_not_exists`` return the existing one."""
        if name in self._tables:
            if if_not_exists:
                return self._tables[name]
            raise TableExistsError(name)
        table = Table(
            name,
            self.stats,
            split_rows=self._split_rows,
            executor=self._executor,
            data_dir=self._data_dir,
            block_cache=self.block_cache,
            retry=self.retry,
            write_limits=self.write_limits,
            flusher=self._flusher,
            store_factory=self._table_store_factory,
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
        """Shut down the worker pools and close durable tables (idempotent)."""
        for table in self._tables.values():
            table.close()
        if self._flusher is not None:
            self._flusher.shutdown(wait=True)
            self._flusher = None
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
