"""In-memory sorted write buffer (the LSM tree's memtable)."""

from __future__ import annotations

import bisect
import heapq
from typing import Iterable, Iterator, Optional

TOMBSTONE = b"\x00__tombstone__\x00"


class MemTable:
    """A sorted map from byte keys to byte values supporting range scans.

    Implemented with a parallel sorted key list + dict, which keeps put/get
    at O(log n)/O(1) amortized and scans at O(log n + k).  Deletions write
    :data:`TOMBSTONE` markers so they mask older SSTable entries during
    merges.
    """

    def __init__(self) -> None:
        self._keys: list[bytes] = []
        self._map: dict[bytes, bytes] = {}
        self._approx_bytes = 0

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def approx_bytes(self) -> int:
        """Rough heap footprint used by the flush policy."""
        return self._approx_bytes

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        if key not in self._map:
            bisect.insort(self._keys, key)
        else:
            self._approx_bytes -= len(self._map[key])
        self._map[key] = value
        self._approx_bytes += len(key) + len(value)

    def delete(self, key: bytes) -> None:
        """Write a tombstone for ``key``."""
        self.put(key, TOMBSTONE)

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the stored value, a tombstone, or ``None`` when absent."""
        return self._map.get(key)

    def scan(
        self, start: Optional[bytes] = None, stop: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(key, value)`` pairs in ``[start, stop)`` in key order.

        Tombstones are yielded too; the merge layer resolves them.
        """
        lo = bisect.bisect_left(self._keys, start) if start is not None else 0
        hi = bisect.bisect_left(self._keys, stop) if stop is not None else len(self._keys)
        for i in range(lo, hi):
            key = self._keys[i]
            yield key, self._map[key]

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """All entries in key order (flush path)."""
        return self.scan()


def newest_value(levels: Iterable, key: bytes) -> Optional[bytes]:
    """Live value of ``key`` across LSM levels given newest first.

    Each level exposes ``get(key)`` (memtables and SSTables both do); the
    newest level holding the key decides, and a tombstone there hides
    every older version.
    """
    for level in levels:
        value = level.get(key)
        if value is not None:
            return None if value == TOMBSTONE else value
    return None


def merge_live(
    sources: Iterable[Iterator[tuple[bytes, bytes]]],
) -> Iterator[tuple[bytes, bytes]]:
    """Merge key-ordered ``(key, value)`` streams given newest first.

    For duplicate keys the newest source wins, and tombstones suppress
    the key entirely, so only live entries come out, in key order.
    """
    # Heap entries order by (key, age): the lower age is the newer source.
    heap: list[tuple[bytes, int, bytes, Iterator[tuple[bytes, bytes]]]] = []
    for age, it in enumerate(sources):
        first = next(it, None)
        if first is not None:
            heapq.heappush(heap, (first[0], age, first[1], it))

    last_key: Optional[bytes] = None
    while heap:
        key, age, value, it = heapq.heappop(heap)
        nxt = next(it, None)
        if nxt is not None:
            heapq.heappush(heap, (nxt[0], age, nxt[1], it))
        if key == last_key:
            continue  # an older shadowed version
        last_key = key
        if value == TOMBSTONE:
            continue
        yield key, value
