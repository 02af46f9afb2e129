"""A plain Bloom filter for SSTable point-get short-circuiting."""

from __future__ import annotations

import math
from typing import Iterable

# The builtin module behind ``hashlib.blake2b`` (the same type on CPython):
# importing ``hashlib`` would also load OpenSSL, which nothing else here uses.
from _blake2 import blake2b


class BloomFilter:
    """Fixed-size Bloom filter over byte keys.

    Sized for a target false-positive rate; uses double hashing derived from
    one blake2b digest, the standard Kirsch-Mitzenmacher construction.
    """

    def __init__(self, expected_items: int, fp_rate: float = 0.01):
        if expected_items <= 0:
            expected_items = 1
        if not 0.0 < fp_rate < 1.0:
            raise ValueError(f"fp_rate must be in (0, 1), got {fp_rate}")
        ln2 = math.log(2)
        self.num_bits = max(8, int(-expected_items * math.log(fp_rate) / (ln2 * ln2)))
        self.num_hashes = max(1, round(self.num_bits / expected_items * ln2))
        self._bits = bytearray((self.num_bits + 7) // 8)

    def _hashes(self, key: bytes) -> Iterable[int]:
        digest = blake2b(key, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "big")
        h2 = int.from_bytes(digest[8:], "big") | 1
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def add(self, key: bytes) -> None:
        """Add."""
        for pos in self._hashes(key):
            self._bits[pos >> 3] |= 1 << (pos & 7)

    def might_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means possibly present."""
        return all(self._bits[pos >> 3] & (1 << (pos & 7)) for pos in self._hashes(key))
