"""Immutable sorted string tables with block index and bloom filter."""

from __future__ import annotations

import bisect
from typing import Iterator, Optional, Sequence

from repro.kvstore.bloom import BloomFilter
from repro.kvstore.scan import Window
from repro.kvstore.stats import IOStats
from repro.obs import counter as _obs_counter

BLOCK_SIZE = 64  # entries per index block

_BLOOM_ACCEPT = _obs_counter(
    "kv_bloom_accept_total", "Point gets the bloom filter let through"
)
_BLOOM_REJECT = _obs_counter(
    "kv_bloom_reject_total", "Point gets short-circuited by the bloom filter"
)
_BLOCK_READS = _obs_counter(
    "kv_block_read_total", "SSTable blocks touched by gets and scans"
)


class SSTable:
    """An immutable sorted run of ``(key, value)`` pairs.

    Entries are grouped into fixed-size blocks; lookups binary-search the
    block index first, and each block touched is counted in
    ``stats.block_reads`` so the cost model can price disk reads.
    """

    def __init__(self, entries: Sequence[tuple[bytes, bytes]], stats: Optional[IOStats] = None):
        keys = [k for k, _ in entries]
        if any(b < a for a, b in zip(keys, keys[1:])):
            raise ValueError("SSTable entries must be sorted by key")
        if len(set(keys)) != len(keys):
            raise ValueError("SSTable entries must have unique keys")
        self._keys: list[bytes] = list(keys)
        self._values: list[bytes] = [v for _, v in entries]
        self._stats = stats
        self._bloom = BloomFilter(max(1, len(keys)))
        for k in self._keys:
            self._bloom.add(k)
        # First key of each block.
        self._block_firsts = self._keys[::BLOCK_SIZE]

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def min_key(self) -> Optional[bytes]:
        """Smallest key in the table, or ``None`` when empty."""
        return self._keys[0] if self._keys else None

    @property
    def max_key(self) -> Optional[bytes]:
        """Largest key in the table, or ``None`` when empty."""
        return self._keys[-1] if self._keys else None

    def _count_blocks(self, lo: int, hi: int) -> None:
        if hi > lo:
            first_block = lo // BLOCK_SIZE
            last_block = (hi - 1) // BLOCK_SIZE
            _BLOCK_READS.inc(last_block - first_block + 1)
            if self._stats is not None:
                self._stats.add(block_reads=last_block - first_block + 1)

    def get(self, key: bytes) -> Optional[bytes]:
        """Point lookup; bloom-filter misses are counted and cost nothing."""
        if not self._bloom.might_contain(key):
            _BLOOM_REJECT.inc()
            if self._stats is not None:
                self._stats.add(bloom_rejects=1)
            return None
        _BLOOM_ACCEPT.inc()
        i = bisect.bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            self._count_blocks(i, i + 1)
            return self._values[i]
        return None

    def get_many(self, keys: Sequence[bytes]) -> Iterator[tuple[bytes, bytes]]:
        """The entries of ``keys`` present here, one bloom-filtered
        :meth:`get` per key."""
        for key in keys:
            value = self.get(key)
            if value is not None:
                yield key, value

    def scan(
        self, start: Optional[bytes] = None, stop: Optional[bytes] = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield entries with ``start <= key < stop`` in order."""
        return self.scan_windows(((start, stop),))

    def scan_windows(self, windows: Sequence[Window]) -> Iterator[tuple[bytes, bytes]]:
        """Yield the entries of sorted, disjoint ``windows`` in key order.

        Each window bisects the key list and counts the blocks it touches.
        """
        keys, values = self._keys, self._values
        for start, stop in windows:
            lo = bisect.bisect_left(keys, start) if start is not None else 0
            hi = bisect.bisect_left(keys, stop) if stop is not None else len(keys)
            self._count_blocks(lo, hi)
            for i in range(lo, hi):
                yield keys[i], values[i]

    def overlaps(self, start: Optional[bytes], stop: Optional[bytes]) -> bool:
        """True when the table's key span intersects ``[start, stop)``."""
        if not self._keys:
            return False
        if start is not None and self._keys[-1] < start:
            return False
        if stop is not None and self._keys[0] >= stop:
            return False
        return True
