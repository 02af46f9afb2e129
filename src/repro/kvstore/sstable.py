"""Immutable sorted tables: one run format, in a file or in a buffer.

Layout (big-endian):

    magic b"TMSST\x01"
    data section:    records  u32 key_len | key | u32 value_len | value
    index section:   u32 entry_count, then per sparse-index entry
                     u32 key_len | key | u64 offset
                     (one entry per SPARSE_EVERY records, first record always)
    footer:          u64 index_offset, u64 record_count, u32 crc of index

One record writer produces it, into a file (the durable engine's runs) or
into a ``bytes`` image (the memory engine's runs), and one class,
:class:`SSTable`, reads either.  Opening reads only the magic, the footer
and the CRC-checked sparse index; a window list is then read by one
forward record cursor that seeks to a window's sparse-index floor only
when that floor lies past the cursor, so a sorted batch of windows (or
point-get keys) is one pass.  A file is read in spans, through the block
cache when there is one; an image is read in place, with no cache and no
copying.
"""

from __future__ import annotations

import bisect
import io
import os
import struct
import zlib
from collections.abc import Iterator, Sequence

from repro.kvstore.block_cache import (
    DEFAULT_BLOCK_BYTES,
    BlockCache,
    CachedBlockFile,
    next_file_token,
)
from repro.kvstore.errors import CorruptionError
from repro.kvstore.memtable import Window
from repro.kvstore.stats import IOStats
from repro.obs import counter as _obs_counter

_BLOCK_READS = _obs_counter(
    "kv_block_read_total", "SSTable records parsed by gets and scans"
)

MAGIC = b"TMSST\x01"
SPARSE_EVERY = 16
_LEN = struct.Struct(">I")
_OFFSET = struct.Struct(">Q")
_FOOTER = struct.Struct(">QQI")


def _write_run(fh, entries: Sequence[tuple[bytes, bytes]]) -> None:
    """Write a run of strictly sorted ``entries`` to the binary ``fh``."""
    sparse: list[tuple[bytes, int]] = []
    fh.write(MAGIC)
    prev: bytes | None = None
    for i, (key, value) in enumerate(entries):
        if prev is not None and key <= prev:
            raise ValueError("SSTable entries must be strictly sorted by key")
        prev = key
        if i % SPARSE_EVERY == 0:
            sparse.append((key, fh.tell()))
        fh.write(_LEN.pack(len(key)) + key + _LEN.pack(len(value)) + value)
    index_offset = fh.tell()
    index = bytearray(_LEN.pack(len(sparse)))
    for key, offset in sparse:
        index += _LEN.pack(len(key)) + key + _OFFSET.pack(offset)
    fh.write(index)
    fh.write(_FOOTER.pack(index_offset, len(entries), zlib.crc32(index) & 0xFFFFFFFF))


def write_sstable(
    path: str | os.PathLike,
    entries: Sequence[tuple[bytes, bytes]],
    fsync: bool = False,
) -> None:
    """Write a run of strictly sorted ``entries`` to the file ``path``.

    With ``fsync`` the file contents are forced to stable storage before
    returning — required by the crash-safe flush protocol, which fsyncs
    the ``.tmp`` file *before* atomically renaming it into place.
    """
    with open(path, "wb") as fh:
        _write_run(fh, entries)
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())


def sstable_image(entries: Sequence[tuple[bytes, bytes]]) -> bytes:
    """The bytes :func:`write_sstable` would write for ``entries``."""
    buf = io.BytesIO()
    _write_run(buf, entries)
    return buf.getvalue()


class _PlainFile:
    """``read(offset, n)`` slices straight from the file (no block cache)."""

    def __init__(self, path: str):
        self._fd = os.open(path, os.O_RDONLY)
        self.size = os.fstat(self._fd).st_size

    def read(self, offset: int, n: int) -> bytes:
        return os.pread(self._fd, n, offset)

    def close(self) -> None:
        os.close(self._fd)


class _Image:
    """``read(offset, n)`` slices of an in-memory run."""

    def __init__(self, image: bytes):
        self._image = image
        self.size = len(image)

    def read(self, offset: int, n: int) -> bytes:
        return self._image[offset : offset + n]

    def close(self) -> None:
        pass


class _RecordCursor:
    """The SSTable's one record parser: a forward cursor over its data.

    Records are parsed out of a buffer, not one read per field.  Over a
    file (``reader`` set) the buffer is a span whose length doubles, up to
    16 blocks, while reads stay sequential and restarts at one block after
    a seek.  Over an image (``reader`` None) the buffer is the image
    itself and never refills.  A record running past the data section is
    torn on both.
    ``offset`` is the offset of the next record (assign it to seek),
    ``at`` that of the record last returned, and ``parsed`` counts the
    records parsed.
    """

    def __init__(self, name: str, reader, block_bytes: int, end: int, offset: int, buf=b""):
        self._name = name
        self._reader = reader
        self._block = block_bytes
        self._end = end
        self._buf = buf
        self._buf_start = 0
        self._span = 1
        self.offset = self.at = offset
        self.parsed = 0

    def _fill(self, offset: int, need: int, what: str) -> bytes:
        if self._reader is None or offset + need > self._end:
            raise CorruptionError(f"{self._name}: torn record {what}")
        sequential = 0 <= offset - self._buf_start <= len(self._buf)
        self._span = min(self._span * 2, 16) if sequential else 1
        # End the span on a block boundary: no block is fetched for a sliver.
        want = max(self._block * self._span - offset % self._block, need)
        buf = self._reader.read(offset, min(want, self._end - offset))
        if len(buf) < need:
            raise CorruptionError(f"{self._name}: torn record {what}")
        self._buf, self._buf_start = buf, offset
        return buf

    def next(self, floor: bytes | None = None) -> tuple[bytes, bytes] | None:
        """The next record whose key is at least ``floor`` (None at the end);
        records below ``floor`` are stepped over without reading values."""
        while self.offset < self._end:
            offset = self.offset
            buf = self._buf
            pos = offset - self._buf_start
            if pos < 0 or pos + 8 > len(buf):
                buf, pos = self._fill(offset, 8, "header"), 0
            (key_len,) = _LEN.unpack_from(buf, pos)
            if pos + 8 + key_len > len(buf):
                buf, pos = self._fill(offset, 8 + key_len, "body"), 0
            (value_len,) = _LEN.unpack_from(buf, pos + 4 + key_len)
            total = 8 + key_len + value_len
            if offset + total > self._end:
                raise CorruptionError(f"{self._name}: torn record body")
            self.offset = offset + total
            self.parsed += 1
            key = buf[pos + 4 : pos + 4 + key_len]
            if floor is not None and key < floor:
                continue
            if pos + total > len(buf):
                buf, pos = self._fill(offset, total, "body"), 0
            self.at = offset
            return key, buf[pos + 8 + key_len : pos + total]
        return None

    def close(self) -> None:
        if self._reader is not None:
            self._reader.close()


class SSTable:
    """Read-only view over a run: a file at ``source``, or a ``bytes`` image.

    ``path`` is the file's path, or None for an image.  ``block_cache``
    serves a file's reads; an image takes none.
    """

    def __init__(
        self,
        source: bytes | str | os.PathLike,
        stats: IOStats | None = None,
        block_cache: BlockCache | None = None,
    ):
        self._stats = stats
        self._image = source if isinstance(source, bytes) else None
        self.path = None if self._image is not None else os.fspath(source)
        self._name = self.path or "SSTable image"
        self._block_cache = block_cache if self.path else None
        # Cache entries are keyed by this token, not the path: it is unique
        # per open, so a recycled path can never serve another file's blocks.
        self._cache_token = next_file_token()
        reader = _PlainFile(self.path) if self.path else _Image(source)
        try:
            self._open(reader)
        finally:
            reader.close()

    def _open(self, reader) -> None:
        """Read the footer and sparse index, and the largest key."""
        size = reader.size
        if size < len(MAGIC) + _FOOTER.size or reader.read(0, len(MAGIC)) != MAGIC:
            raise CorruptionError(f"{self._name} is not an SSTable")
        index_offset, self.record_count, crc = _FOOTER.unpack(
            reader.read(size - _FOOTER.size, _FOOTER.size)
        )
        if not len(MAGIC) <= index_offset <= size - _FOOTER.size:
            raise CorruptionError(f"{self._name}: footer index offset out of range")
        index_raw = reader.read(index_offset, size - _FOOTER.size - index_offset)
        if zlib.crc32(index_raw) & 0xFFFFFFFF != crc:
            raise CorruptionError(f"{self._name}: index checksum mismatch")
        self._sparse_keys: list[bytes] = []
        self._sparse_offsets: list[int] = []
        (count,) = _LEN.unpack_from(index_raw, 0)
        pos = 4
        for _ in range(count):
            (key_len,) = _LEN.unpack_from(index_raw, pos)
            pos += 4 + key_len
            self._sparse_keys.append(index_raw[pos - key_len : pos])
            self._sparse_offsets.append(_OFFSET.unpack_from(index_raw, pos)[0])
            pos += 8
        # The footer's record count is not under the checksum: hold it to
        # the index, which has one entry per SPARSE_EVERY records.
        if count != -(-self.record_count // SPARSE_EVERY):
            raise CorruptionError(f"{self._name}: record count disagrees with the index")
        self._data_end = index_offset
        # The largest key, from the last sparse block (uncounted, uncached).
        self.max_key: bytes | None = None
        if self._sparse_offsets:
            cursor = self._cursor(self._sparse_offsets[-1], reader)
            while (record := cursor.next()) is not None:
                self.max_key = record[0]

    def __len__(self) -> int:
        return self.record_count

    @property
    def min_key(self) -> bytes | None:
        """Smallest key in the table, or ``None`` when empty."""
        return self._sparse_keys[0] if self._sparse_keys else None

    def _floor_offset(self, key: bytes | None) -> int:
        """Offset of the sparse entry at or before ``key``."""
        if key is None:
            return len(MAGIC)
        idx = bisect.bisect_right(self._sparse_keys, key) - 1
        return self._sparse_offsets[idx] if idx >= 0 else len(MAGIC)

    def _cursor(self, offset: int, reader=None) -> _RecordCursor:
        if self._image is not None:
            return _RecordCursor(self._name, None, 0, self._data_end, offset, self._image)
        cache = self._block_cache
        if reader is None:
            reader = (
                _PlainFile(self.path)
                if cache is None
                else CachedBlockFile(self.path, self._cache_token, cache, self._data_end)
            )
        block = cache.block_bytes if cache is not None else DEFAULT_BLOCK_BYTES
        return _RecordCursor(self._name, reader, block, self._data_end, offset)

    def release_cache(self) -> None:
        """Drop this file's blocks from the shared cache (compaction, close)."""
        if self._block_cache is not None:
            self._block_cache.drop_file(self._cache_token)

    def get(self, key: bytes) -> bytes | None:
        """Return the value stored under ``key``, or ``None`` when absent."""
        rows = self.scan_windows(((key, key + b"\x00"),))
        try:
            return next(rows, (key, None))[1]
        finally:
            rows.close()

    def get_many(self, keys: Sequence[bytes]) -> Iterator[tuple[bytes, bytes]]:
        """The records of sorted, unique ``keys`` present here: one cursor
        pass over the batch, as a list of one-key windows."""
        return self.scan_windows([(k, k + b"\x00") for k in keys])

    def scan(
        self, start: bytes | None = None, stop: bytes | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(key, value)`` pairs in ``[start, stop)`` in key order."""
        return self.scan_windows(((start, stop),))

    def scan_windows(self, windows: Sequence[Window]) -> Iterator[tuple[bytes, bytes]]:
        """Yield the records of sorted, disjoint ``windows`` in key order.

        One cursor serves the whole list, opened at the first window that
        overlaps the table.  It keeps its reader, buffer and lookahead
        record across windows and seeks through the sparse index only when
        the next window's floor lies past the lookahead, so each record is
        parsed at most once.  Records parsed are counted in
        ``stats.block_reads`` once, when the scan ends or is closed.
        """
        cursor: _RecordCursor | None = None
        record: tuple[bytes, bytes] | None = None  # the lookahead
        try:
            for start, stop in windows:
                if not self.overlaps(start, stop):
                    continue
                floor = self._floor_offset(start)
                if cursor is None:
                    cursor = self._cursor(floor)
                    record = cursor.next(start)
                elif floor > cursor.at:
                    cursor.offset = floor
                    record = cursor.next(start)
                elif start is not None and record[0] < start:
                    record = cursor.next(start)
                while record is not None and (stop is None or record[0] < stop):
                    yield record
                    record = cursor.next()
                if record is None:
                    return
        finally:
            if cursor is not None:
                cursor.close()
                if cursor.parsed:
                    if self._stats is not None:
                        self._stats.add(block_reads=cursor.parsed)
                    _BLOCK_READS.inc(cursor.parsed)

    def overlaps(self, start: bytes | None, stop: bytes | None) -> bool:
        """True when the table's key span intersects ``[start, stop)``."""
        if not self._sparse_keys:
            return False
        if start is not None and self.max_key < start:
            return False
        return stop is None or self._sparse_keys[0] < stop
