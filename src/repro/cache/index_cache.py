"""The shape index cache and the buffer shape cache.

Per §IV-B(3) of the paper, only the shape codes actually used inside each
enlarged element are encoded, and the mapping
``<enlarged element, shape, final code>`` is persisted in Redis.  Queries
look an enlarged element up in a process-local LFU cache first and fall back
to Redis on a miss.  New shapes arriving through updates are staged in a
*buffer shape cache* (§IV-C); when the buffer exceeds a threshold the whole
element's shapes are re-encoded.
"""

from __future__ import annotations

import struct
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cache.lfu import LFUCache
from repro.cache.redis_sim import RedisServer
from repro.obs import counter as _obs_counter, gauge as _obs_gauge
from repro.obs.profile import current_profile

DEFAULT_LOCAL_CAPACITY = 4096

_REDIS_ROUNDTRIPS = _obs_counter(
    "cache_redis_roundtrips_total",
    "Shape-index read round trips to Redis (LFU misses and directory checks)",
)


@dataclass(frozen=True)
class IndexCacheStats:
    """Point-in-time counters of a :class:`ShapeIndexCache`.

    ``hits``/``misses``/``evictions`` describe the process-local LFU layer;
    ``entries`` is its current size and ``remote_fetches`` counts round
    trips to Redis over the cache's lifetime.
    """

    hits: int
    misses: int
    evictions: int
    entries: int
    remote_fetches: int


class ShapeIndexCache:
    """Mapping from (enlarged element, raw shape bitmap) to final shape code.

    The authoritative copy lives in a :class:`RedisServer` hash per element;
    a bounded LFU cache keeps hot elements local.  ``remote_fetches`` counts
    read round trips to Redis.

    The *occupied-element directory* (:meth:`directory`) is the sorted
    ``int64`` array of the element codes that have a mapping, i.e. every
    element a row can be stored under; Algorithm 2 prunes with it.  It is
    derived from the Redis keys: publishing an element bumps a generation
    counter beside the hashes, and a reader holding another generation
    lists the keys again, so caches sharing one server agree.
    """

    def __init__(
        self,
        redis: Optional[RedisServer] = None,
        local_capacity: int = DEFAULT_LOCAL_CAPACITY,
        namespace: str = "tshape",
    ):
        self._redis = redis if redis is not None else RedisServer()
        self._local: LFUCache[int, dict[int, int]] = LFUCache(local_capacity)
        # The LFU's bookkeeping is several dict updates per touch;
        # concurrent queries share this cache, so every access is locked.
        self._local_lock = threading.Lock()
        self._prefix = f"{namespace}:elem:"
        self._gen_key = f"{namespace}:directory_gen"
        self.remote_fetches = 0
        # The array is replaced under ``_local_lock``, never mutated.
        self._directory = np.empty(0, dtype=np.int64)
        self._directory_gen = -1  # generation it was listed at; -1: never
        self._pending: set[int] = set()  # own new elements, merged on read
        # Callback gauges sample this instance at snapshot time.  When
        # several caches coexist (rare outside tests) the most recently
        # constructed one owns the gauges.
        _obs_gauge(
            "cache_index_hits",
            "Local LFU hits of the shape index cache",
            callback=lambda: self._local.hits,
        )
        _obs_gauge(
            "cache_index_misses",
            "Local LFU misses of the shape index cache",
            callback=lambda: self._local.misses,
        )
        _obs_gauge(
            "cache_index_evictions",
            "Local LFU evictions of the shape index cache",
            callback=lambda: self._local.evictions,
        )
        _obs_gauge(
            "cache_index_entries",
            "Entries resident in the local shape index cache",
            callback=lambda: len(self._local),
        )
        _obs_gauge(
            "cache_index_directory_elements",
            "Elements in the occupied-element directory as last read",
            callback=lambda: len(self._directory),
        )

    @property
    def redis(self) -> RedisServer:
        """The backing Redis server (for persistence and diagnostics)."""
        return self._redis

    def _key(self, element_code: int) -> str:
        return f"{self._prefix}{element_code}"

    def _roundtrip(self) -> None:
        """Count one read round trip to Redis (the only increment site)."""
        _REDIS_ROUNDTRIPS.inc()
        with self._local_lock:
            self.remote_fetches += 1

    def _publish(self, element_code: int) -> None:
        """Announce an element whose hash was just written to Redis."""
        gen = self._redis.incr(self._gen_key)
        with self._local_lock:
            self._pending.add(element_code)
            if gen == self._directory_gen + 1:  # no other writer in between
                self._directory_gen = gen

    # -- writes ---------------------------------------------------------------

    def put_mapping(self, element_code: int, mapping: dict[int, int]) -> None:
        """Persist the shape -> final-code mapping of one enlarged element."""
        key = self._key(element_code)
        self._redis.delete(key)
        for shape, final_code in mapping.items():
            self._redis.hset(key, str(shape), struct.pack(">I", final_code))
        with self._local_lock:
            self._local.put(element_code, dict(mapping))
        # Always: a reader that listed the keys between the delete and the
        # first hset above must see a new generation and list them again.
        self._publish(element_code)

    def add_shape(self, element_code: int, shape: int, final_code: int) -> None:
        """Append one shape to an element's mapping."""
        self._redis.hset(self._key(element_code), str(shape), struct.pack(">I", final_code))
        with self._local_lock:
            cached = self._local.peek(element_code)
            if cached is not None:
                cached[shape] = final_code
            at = self._directory.searchsorted(element_code)
            known = element_code in self._pending or (
                at < len(self._directory) and self._directory[at] == element_code
            )
        if not known:
            self._publish(element_code)

    # -- reads ----------------------------------------------------------------

    def get_mapping(self, element_code: int) -> Optional[dict[int, int]]:
        """Return the element's shape mapping, loading from Redis on a miss."""
        with self._local_lock:
            cached = self._local.get(element_code)
        profile = current_profile()
        if cached is not None:
            if profile is not None:
                profile.add(index_cache_hits=1)
            return cached
        if profile is not None:
            profile.add(index_cache_misses=1)
        raw = self._redis.hgetall(self._key(element_code))
        self._roundtrip()
        if not raw:
            return None
        mapping = {int(shape): struct.unpack(">I", blob)[0] for shape, blob in raw.items()}
        with self._local_lock:
            self._local.put(element_code, mapping)
        return mapping

    def lookup_final_code(self, element_code: int, shape: int) -> Optional[int]:
        """Final code of a raw shape bitmap, or ``None`` when unknown."""
        mapping = self.get_mapping(element_code)
        if mapping is None:
            return None
        return mapping.get(shape)

    def directory(self) -> np.ndarray:
        """Sorted codes of every element that has a mapping (do not mutate).

        One Redis round trip checks the generation; a stale array (another
        cache published, or a saved deployment was just opened) costs a
        second one to list the element keys.  Elements never leave the
        directory, so a listing is merged into the array, never put in its
        place: another reader may have merged an element published after
        this listing was taken.
        """
        gen = int(self._redis.get(self._gen_key) or 0)
        self._roundtrip()
        listed = None
        if gen != self._directory_gen:
            keys = self._redis.keys(f"{self._prefix}*")
            self._roundtrip()
            listed = np.array([int(k[len(self._prefix):]) for k in keys], np.int64)
        with self._local_lock:
            if listed is not None or self._pending:
                own = np.fromiter(self._pending, np.int64, len(self._pending))
                merged = np.union1d(self._directory, own)
                if listed is not None:
                    merged = np.union1d(merged, listed)
                    self._directory_gen = max(self._directory_gen, gen)
                self._directory = merged
                self._pending.clear()
            return self._directory

    def stats(self) -> IndexCacheStats:
        """Named snapshot of the cache's counters."""
        return IndexCacheStats(
            hits=self._local.hits,
            misses=self._local.misses,
            evictions=self._local.evictions,
            entries=len(self._local),
            remote_fetches=self.remote_fetches,
        )


class BufferShapeCache:
    """Staging area for shapes that have not been through optimization yet.

    ``add`` returns True when the global shape count crosses ``threshold``,
    signalling the writer to trigger a re-encode (§IV-C).
    """

    def __init__(self, threshold: int = 1024):
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.threshold = threshold
        self._pending: dict[int, set[int]] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def contains(self, element_code: int, shape: int) -> bool:
        """Contains."""
        return shape in self._pending.get(element_code, ())

    def add(self, element_code: int, shape: int) -> bool:
        """Stage a shape; returns True when the re-encode threshold is hit."""
        bucket = self._pending.setdefault(element_code, set())
        if shape not in bucket:
            bucket.add(shape)
            self._count += 1
        return self._count >= self.threshold

    def pending_elements(self) -> list[int]:
        """Pending elements."""
        return sorted(self._pending)

    def drain(self) -> dict[int, set[int]]:
        """Return and clear everything staged."""
        out = self._pending
        self._pending = {}
        self._count = 0
        return out
