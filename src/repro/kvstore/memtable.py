"""In-memory sorted write buffer (the LSM tree's memtable)."""

from __future__ import annotations

import bisect
import heapq
import itertools
from collections.abc import Iterable, Iterator, Sequence

# A key window [start, stop); None is unbounded on that side.
Window = tuple[bytes | None, bytes | None]

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

    def get(self, key: bytes) -> bytes | None:
        """Return the stored value, a tombstone, or ``None`` when absent."""
        return self._map.get(key)

    def get_many(self, keys: Sequence[bytes]) -> list[tuple[bytes, bytes]]:
        """The stored entries (tombstones included) of ``keys`` present here."""
        return [(k, self._map[k]) for k in keys if k in self._map]

    def scan(
        self, start: bytes | None = None, stop: bytes | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(key, value)`` pairs in ``[start, stop)`` in key order."""
        return self.scan_windows(((start, stop),))

    def scan_windows(self, windows: Sequence[Window]) -> Iterator[tuple[bytes, bytes]]:
        """Yield the entries of sorted, disjoint ``windows`` in key order.

        Each window bisects the key list.  Tombstones are yielded too; the
        merge layer resolves them.
        """
        keys = self._keys
        for start, stop in windows:
            lo = bisect.bisect_left(keys, start) if start is not None else 0
            hi = bisect.bisect_left(keys, stop) if stop is not None else len(keys)
            for i in range(lo, hi):
                key = keys[i]
                yield key, self._map[key]

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """All entries in key order (flush path)."""
        return self.scan()


def newest_values(levels: Iterable, keys: Sequence[bytes]) -> dict[bytes, bytes]:
    """Live values of sorted, unique ``keys`` across LSM levels given newest first.

    Each level's ``get_many`` looks up only the keys no newer level
    decided; the newest level holding a key decides, and a tombstone there
    hides every older version.  Absent keys are missing from the result.
    """
    decided: dict[bytes, bytes] = {}
    for level in levels:
        pending = [k for k in keys if k not in decided]
        if not pending:
            break
        decided.update(level.get_many(pending))
    return {k: v for k, v in decided.items() if v != TOMBSTONE}


def merge_live(
    sources: Iterable[Iterator[tuple[bytes, bytes]]],
) -> Iterator[tuple[bytes, bytes]]:
    """Merge key-ordered ``(key, value)`` streams given newest first.

    For duplicate keys the newest source wins, and tombstones suppress
    the key entirely, so only live entries come out, in key order.  This
    is the LSM engine's one scan path on both storage media (each level a
    ``scan_windows`` cursor); when a single source has rows there is
    nothing to merge and no heap.
    """
    # Heap entries order by (key, age): the lower age is the newer source.
    heap: list[tuple[bytes, int, bytes, Iterator[tuple[bytes, bytes]]]] = []
    for age, it in enumerate(sources):
        first = next(it, None)
        if first is not None:
            heap.append((first[0], age, first[1], it))
    if len(heap) == 1:
        key, _, value, it = heap[0]
        for key, value in itertools.chain(((key, value),), it):
            if value != TOMBSTONE:
                yield key, value
        return
    heapq.heapify(heap)

    last_key: bytes | None = None
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
