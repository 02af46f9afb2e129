"""Consistent-hash ring for placing region replicas on worker nodes.

Placement units are *region stores* (``"table/region-0042"``), not raw
row keys: key ranges stay contiguous per region (so range scans still
route by key order through the table layer) while the ring decides which
worker processes host each region's N replicas.  This is the
HBase-regions-on-a-Dynamo-ring hybrid sketched in SNIPPETS.md: adding a
node moves ~1/N of the region replicas, never everything.

Hashes use blake2b, not ``hash()``: placement must be identical across
processes and Python invocations (``PYTHONHASHSEED`` randomizes ``hash``).
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Iterable

DEFAULT_VNODES = 64


def stable_hash(token: str) -> int:
    """A 64-bit position on the ring, stable across processes."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


class ConsistentHashRing:
    """Virtual-node consistent hashing over a set of named nodes."""

    def __init__(self, nodes: Iterable[str] = (), vnodes: int = DEFAULT_VNODES):
        if vnodes < 1:
            raise ValueError(f"vnodes must be positive, got {vnodes}")
        self._vnodes = vnodes
        # Sorted, parallel arrays of (position, owning node).
        self._positions: list[int] = []
        self._owners: list[str] = []
        self._nodes: set[str] = set()
        for node in nodes:
            self.add_node(node)

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> tuple[str, ...]:
        """The member nodes, sorted by name."""
        return tuple(sorted(self._nodes))

    def add_node(self, node: str) -> None:
        """Insert ``vnodes`` virtual points for ``node``."""
        if node in self._nodes:
            raise ValueError(f"node {node!r} already on the ring")
        self._nodes.add(node)
        for v in range(self._vnodes):
            pos = stable_hash(f"{node}#{v}")
            idx = bisect.bisect_left(self._positions, pos)
            self._positions.insert(idx, pos)
            self._owners.insert(idx, node)

    def preference(self, item: str, n: int) -> list[str]:
        """The first ``n`` *distinct* nodes clockwise from ``item``'s position.

        This is the Dynamo preference list: replica ``i`` of ``item``
        lives on ``preference(item, N)[i]``.  Deterministic for a given
        ring membership, and stable under unrelated-node churn (only
        items whose walk crosses the changed arcs move).
        """
        if not self._nodes:
            raise ValueError("ring has no nodes")
        n = min(n, len(self._nodes))
        start = bisect.bisect_right(self._positions, stable_hash(item))
        out: list[str] = []
        for i in range(len(self._positions)):
            owner = self._owners[(start + i) % len(self._positions)]
            if owner not in out:
                out.append(owner)
                if len(out) == n:
                    break
        return out

    def primary(self, item: str) -> str:
        """The first node on ``item``'s preference list."""
        return self.preference(item, 1)[0]
