"""An O(1) least-frequently-used cache.

Standard frequency-list construction: items are grouped in buckets by access
count; eviction removes the least recently used item of the lowest-frequency
bucket, matching the paper's LFU policy for the index cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, Iterator, Optional, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LFUCache(Generic[K, V]):
    """Bounded mapping with least-frequently-used eviction.

    ``hits`` / ``misses`` / ``evictions`` counters let experiments report
    cache efficiency.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._values: dict[K, V] = {}
        self._freq_of: dict[K, int] = {}
        self._buckets: dict[int, OrderedDict[K, None]] = {}
        self._min_freq = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: K) -> bool:
        return key in self._values

    def __iter__(self) -> Iterator[K]:
        return iter(self._values)

    def _touch(self, key: K) -> None:
        freq = self._freq_of[key]
        bucket = self._buckets[freq]
        del bucket[key]
        if not bucket:
            del self._buckets[freq]
            if self._min_freq == freq:
                self._min_freq = freq + 1
        self._freq_of[key] = freq + 1
        self._buckets.setdefault(freq + 1, OrderedDict())[key] = None

    def get(self, key: K) -> Optional[V]:
        """Return the cached value (bumping its frequency) or ``None``."""
        if key not in self._values:
            self.misses += 1
            return None
        self.hits += 1
        self._touch(key)
        return self._values[key]

    def peek(self, key: K) -> Optional[V]:
        """Return the value without affecting frequencies or counters."""
        return self._values.get(key)

    def put(self, key: K, value: V) -> None:
        """Insert or update ``key``, evicting the LFU entry when full."""
        if key in self._values:
            self._values[key] = value
            self._touch(key)
            return
        if len(self._values) >= self.capacity:
            self._evict()
        self._values[key] = value
        self._freq_of[key] = 1
        self._buckets.setdefault(1, OrderedDict())[key] = None
        self._min_freq = 1

    def _evict(self) -> None:
        bucket = self._buckets[self._min_freq]
        victim, _ = bucket.popitem(last=False)
        if not bucket:
            del self._buckets[self._min_freq]
        del self._values[victim]
        del self._freq_of[victim]
        self.evictions += 1

    def clear(self) -> None:
        """Clear."""
        self._values.clear()
        self._freq_of.clear()
        self._buckets.clear()
        self._min_freq = 0
