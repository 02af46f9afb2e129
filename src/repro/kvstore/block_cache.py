"""Shared LRU cache for SSTable file blocks.

SSTable files are immutable, so their blocks are perfect cache fodder: a
scan that revisits a key range (or a point get that lands in an
already-read block) should never touch the filesystem twice.  One
:class:`BlockCache` is shared cluster-wide (every table, every region,
every file-backed run) and bounded by a byte budget; eviction is plain
LRU.  A run held as an in-memory image is read in place and takes no
cache.

Cache entries are keyed by a per-open *file token* instead of the file
path: tokens are process-unique, so a path reused after a compaction or
a dropped table can never serve stale blocks — the old token simply
stops being asked for, and :meth:`BlockCache.drop_file` reclaims its
bytes eagerly when the owning SSTable is released.

Hit/miss/eviction counters and the resident-bytes/entries gauges are
registered in :mod:`repro.obs` as ``kv_blockcache_*`` when this module is
imported; the gauges sum every live cache.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict, namedtuple
from _weakrefset import WeakSet  # weakref.WeakSet, without loading weakref
from collections.abc import Callable

from repro.obs import counter as _obs_counter, gauge as _obs_gauge
from repro.obs.profile import current_profile

DEFAULT_BLOCK_BYTES = 4096

_HITS = _obs_counter("kv_blockcache_hits_total", "SSTable block cache hits")
_MISSES = _obs_counter(
    "kv_blockcache_misses_total", "SSTable block cache misses (disk block fetches)"
)
_EVICTIONS = _obs_counter(
    "kv_blockcache_evictions_total", "SSTable blocks evicted by the LRU policy"
)

_live: WeakSet = WeakSet()  # every BlockCache not yet collected
_live_lock = threading.Lock()


def _resident(measure: Callable[["BlockCache"], int]) -> float:
    with _live_lock:
        return float(sum(measure(cache) for cache in _live))


_obs_gauge(
    "kv_blockcache_bytes",
    "Bytes resident in the SSTable block caches",
    callback=lambda: _resident(lambda cache: cache._bytes),
)
_obs_gauge(
    "kv_blockcache_entries",
    "Blocks resident in the SSTable block caches",
    callback=lambda: _resident(len),
)

_file_tokens = itertools.count()


def next_file_token() -> int:
    """A process-unique identity for one opened SSTable file."""
    return next(_file_tokens)


class BlockCacheStats(
    namedtuple(
        "BlockCacheStats", "hits misses evictions entries bytes capacity_bytes"
    )
):
    """A point-in-time view of one cache's counters (an immutable record)."""

    __slots__ = ()

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups (0.0 when the cache was never asked)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class BlockCache:
    """A byte-bounded, thread-safe LRU cache of SSTable file blocks.

    Keys are ``(file_token, block_index)``; values are the raw block
    bytes (``block_bytes`` long except for a file's final block).  A
    zero capacity disables the cache — lookups always miss and nothing
    is retained, so callers need no special-casing.
    """

    def __init__(
        self,
        capacity_bytes: int,
        block_bytes: int = DEFAULT_BLOCK_BYTES,
    ):
        if capacity_bytes < 0:
            raise ValueError(f"negative block cache capacity: {capacity_bytes}")
        if block_bytes <= 0:
            raise ValueError(f"non-positive block size: {block_bytes}")
        self.capacity_bytes = capacity_bytes
        self.block_bytes = block_bytes
        self._lock = threading.Lock()
        self._blocks: OrderedDict[tuple[int, int], bytes] = OrderedDict()
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        with _live_lock:
            _live.add(self)

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def resident_bytes(self) -> int:
        """Bytes currently held by cached blocks."""
        return self._bytes

    def get_block(
        self,
        file_token: int,
        block_index: int,
        loader: Callable[[int], bytes],
    ) -> bytes:
        """Return one block, loading it via ``loader(block_index)`` on miss.

        The loader runs outside the lock, so concurrent misses on
        different blocks read the disk in parallel; a duplicate load of
        the same block is harmless (last writer wins, bytes identical).
        """
        key = (file_token, block_index)
        with self._lock:
            block = self._blocks.get(key)
            if block is not None:
                self._hits += 1
                self._blocks.move_to_end(key)
                _HITS.inc()
                profile = current_profile()
                if profile is not None:
                    profile.add(block_cache_hits=1)
                return block
            self._misses += 1
        _MISSES.inc()
        profile = current_profile()
        if profile is not None:
            profile.add(block_cache_misses=1)
        block = loader(block_index)
        if self.capacity_bytes and len(block) <= self.capacity_bytes:
            with self._lock:
                prior = self._blocks.pop(key, None)
                if prior is not None:
                    self._bytes -= len(prior)
                self._blocks[key] = block
                self._bytes += len(block)
                while self._bytes > self.capacity_bytes:
                    _, evicted = self._blocks.popitem(last=False)
                    self._bytes -= len(evicted)
                    self._evictions += 1
                    _EVICTIONS.inc()
        return block

    def drop_file(self, file_token: int) -> int:
        """Evict every block of one file (compaction, close); returns count."""
        with self._lock:
            victims = [k for k in self._blocks if k[0] == file_token]
            for key in victims:
                self._bytes -= len(self._blocks.pop(key))
            return len(victims)

    def clear(self) -> None:
        """Drop every cached block (benchmark cold-start, tests)."""
        with self._lock:
            self._blocks.clear()
            self._bytes = 0

    def stats(self) -> BlockCacheStats:
        """Counters and occupancy as one immutable snapshot."""
        with self._lock:
            return BlockCacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._blocks),
                bytes=self._bytes,
                capacity_bytes=self.capacity_bytes,
            )


class CachedBlockFile:
    """Serves arbitrary ``read(offset, n)`` slices of one file via a cache.

    Used by a file-backed :class:`~repro.kvstore.sstable.SSTable` for its
    data section: record parsing issues many small reads, which this class
    answers from whole cached blocks (one disk read per 4 KiB block cold,
    zero warm) instead of one syscall per field.
    """

    def __init__(self, path, file_token: int, cache: BlockCache, size: int):
        self._path = path
        self._token = file_token
        self._cache = cache
        self._size = size
        self._fh = None

    def _load(self, block_index: int) -> bytes:
        if self._fh is None:
            self._fh = open(self._path, "rb")
        self._fh.seek(block_index * self._cache.block_bytes)
        return self._fh.read(self._cache.block_bytes)

    def read(self, offset: int, n: int) -> bytes:
        """Up to ``n`` bytes starting at ``offset`` (short only at EOF)."""
        bs = self._cache.block_bytes
        end = min(offset + n, self._size)
        parts: list[bytes] = []
        while offset < end:
            block = self._cache.get_block(self._token, offset // bs, self._load)
            lo = offset % bs
            take = min(end - offset, len(block) - lo)
            if take <= 0:  # pragma: no cover - torn file guard
                break
            parts.append(block[lo : lo + take])
            offset += take
        return b"".join(parts)

    def close(self) -> None:
        """Release the lazily-opened file handle (idempotent)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CachedBlockFile":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def make_block_cache(capacity_bytes: int | None) -> BlockCache | None:
    """A :class:`BlockCache` for ``capacity_bytes``, or ``None`` when off."""
    if not capacity_bytes:
        return None
    return BlockCache(capacity_bytes)
