"""The shape index cache and the buffer shape cache.

Per §IV-B(3) of the paper, only the shape codes actually used inside each
enlarged element are encoded, and the mapping
``<enlarged element, shape, final code>`` is persisted beside the index.
Here each element's mapping is one row of the deployment's metadata table
(``tman_meta``): the key is :data:`MAPPING_PREFIX` and the big-endian
element code, so a prefix scan lists the elements in code order, and the
value packs the element's shape -> code pairs (:func:`pack_mapping`), so
one put replaces a whole mapping.  Queries look an enlarged element up in a
process-local LFU cache first and read its row on a miss.  New shapes
arriving through updates are staged in a *buffer shape cache* (§IV-C); when
the buffer exceeds a threshold the whole element's shapes are re-encoded.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

import numpy as np

from repro.cache.lfu import LFUCache
from repro.compression.varint import decode_varint, encode_varint
from repro.kvstore.errors import CorruptionError
from repro.kvstore.scan import Scan
from repro.obs import counter as _obs_counter, gauge as _obs_gauge
from repro.obs.profile import current_profile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kvstore.table import Table

DEFAULT_LOCAL_CAPACITY = 4096
# Key of an element's mapping row: this prefix, then the code as a u64.
MAPPING_PREFIX = b"tshape:"
_PREFIX_END = b"tshape;"  # the first key past every mapping row

_REDIS_ROUNDTRIPS = _obs_counter(
    "cache_redis_roundtrips_total",
    "Shape-index reads of the metadata table (LFU misses and the construction scan)",
)


def mapping_key(element_code: int) -> bytes:
    """The ``tman_meta`` key of one element's mapping row."""
    return MAPPING_PREFIX + element_code.to_bytes(8, "big")


def pack_mapping(mapping: Mapping[int, int]) -> bytes:
    """A mapping row's value: per (shape, code) pair in shape order, the
    shape's gap from the previous shape and the code, as varints."""
    out, last = bytearray(), 0
    for shape, code in sorted(mapping.items()):
        encode_varint(shape - last, out)
        encode_varint(code, out)
        last = shape
    return bytes(out)


def unpack_mapping(raw: bytes) -> dict[int, int]:
    """The shape -> code mapping a :func:`pack_mapping` value holds."""
    mapping, pos, shape = {}, 0, 0
    try:
        while pos < len(raw):
            gap, pos = decode_varint(raw, pos)
            code, pos = decode_varint(raw, pos)
            shape += gap
            mapping[shape] = code
    except ValueError as exc:
        raise CorruptionError(f"shape mapping row: {exc}") from None
    return mapping


@dataclass(frozen=True)
class IndexCacheStats:
    """Point-in-time counters of a :class:`ShapeIndexCache`.

    ``hits``/``misses``/``evictions`` describe the process-local LFU layer;
    ``entries`` is its current size and ``remote_fetches`` counts reads of
    the metadata table over the cache's lifetime.
    """

    hits: int
    misses: int
    evictions: int
    entries: int
    remote_fetches: int


class ShapeIndexCache:
    """Mapping from (enlarged element, raw shape bitmap) to final shape code.

    The authoritative copy is one row per element in ``table`` (the
    deployment's ``tman_meta``); a bounded LFU cache keeps hot elements
    local.  ``remote_fetches`` counts reads of the table.

    The *occupied-element directory* (:meth:`directory`) is the sorted
    ``int64`` array of the element codes that have a mapping, i.e. every
    element a row can be stored under; Algorithm 2 prunes with it.  One
    prefix scan of the table fills it at construction; after that only this
    cache's own writes extend it.  A deployment has one writer: a cache sees
    the elements another cache stores in the same table as of its own
    construction.
    """

    def __init__(self, table: "Table", local_capacity: int = DEFAULT_LOCAL_CAPACITY):
        self._table = table
        self._local: LFUCache[int, dict[int, int]] = LFUCache(local_capacity)
        # The LFU's bookkeeping is several dict updates per touch;
        # concurrent queries share this cache, so every access is locked.
        self._local_lock = threading.Lock()
        self.remote_fetches = 0
        rows = table.scan(Scan(MAPPING_PREFIX, _PREFIX_END))
        codes = [int.from_bytes(key[len(MAPPING_PREFIX):], "big") for key, _ in rows]
        self._roundtrip()
        # The array is replaced under ``_local_lock``, never mutated.
        self._directory = np.array(codes, dtype=np.int64)
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
            "Elements in the occupied-element directory",
            callback=lambda: len(self._directory),
        )

    def _roundtrip(self) -> None:
        """Count one read of the metadata table (the only increment site)."""
        _REDIS_ROUNDTRIPS.inc()
        with self._local_lock:
            self.remote_fetches += 1

    def _listed(self, element_code: int) -> bool:
        """Whether the directory holds the element (call under the lock)."""
        at = self._directory.searchsorted(element_code)
        return at < len(self._directory) and self._directory[at] == element_code

    def _read(self, element_code: int) -> Optional[dict[int, int]]:
        """The element's stored mapping; ``None``, with no read, for an
        element the directory does not list."""
        with self._local_lock:
            listed = self._listed(element_code)
        if not listed:
            return None
        raw = self._table.get(mapping_key(element_code))
        self._roundtrip()
        return None if raw is None else unpack_mapping(raw)

    # -- writes ---------------------------------------------------------------

    def _stored(self, mappings: Mapping[int, dict[int, int]]) -> None:
        """Take mappings just written to the table into the LFU and the directory."""
        with self._local_lock:
            for element_code, mapping in mappings.items():
                self._local.put(element_code, mapping)
            new = sorted(code for code in mappings if not self._listed(code))
            if new:
                # np.insert, not np.union1d, which imports numpy.ma (~1 MiB).
                at = self._directory.searchsorted(new)
                self._directory = np.insert(self._directory, at, new)

    def put_mapping(self, element_code: int, mapping: Mapping[int, int]) -> None:
        """Store the shape -> final-code mapping of one enlarged element
        (one row put, replacing the element's mapping)."""
        self._table.put(mapping_key(element_code), pack_mapping(mapping))
        self._stored({element_code: dict(mapping)})

    def add_shape(self, element_code: int, shape: int, final_code: int) -> None:
        """Append one shape to an element's mapping."""
        self.add_shapes({element_code: {shape: final_code}})

    def add_shapes(self, additions: Mapping[int, Mapping[int, int]]) -> None:
        """Merge each element's shape -> code pairs into its mapping (a new
        element's mapping is its pairs) and store every merged mapping with
        one ``put_batch``."""
        merged = {}
        for element_code, pairs in additions.items():
            with self._local_lock:
                current = self._local.peek(element_code)
            if current is None:
                current = self._read(element_code) or {}
            merged[element_code] = {**current, **pairs}
        self._table.put_batch(
            [(mapping_key(code), pack_mapping(m)) for code, m in sorted(merged.items())]
        )
        self._stored(merged)

    # -- reads ----------------------------------------------------------------

    def get_mapping(self, element_code: int) -> Optional[dict[int, int]]:
        """Return the element's shape mapping, reading its row on an LFU miss
        (``None`` for an element the directory does not list)."""
        with self._local_lock:
            cached = self._local.get(element_code)
        profile = current_profile()
        if cached is not None:
            if profile is not None:
                profile.add(index_cache_hits=1)
            return cached
        if profile is not None:
            profile.add(index_cache_misses=1)
        mapping = self._read(element_code)
        if mapping is not None:
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
        """Sorted codes of every element that has a mapping (do not mutate)."""
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
