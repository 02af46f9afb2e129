"""Immutable on-disk sorted tables.

File layout (big-endian):

    magic b"TMSST\x01"
    data section:    records  u32 key_len | key | u32 value_len | value
    index section:   u32 entry_count, then per sparse-index entry
                     u32 key_len | key | u64 file_offset
                     (one entry per SPARSE_EVERY records, first record always)
    footer:          u64 index_offset, u64 record_count, u32 crc of index

Reads never load the whole file: the sparse index is held in memory after
open, and a window list is read by one forward record cursor that seeks
to a window's sparse-index floor only when that floor lies past the
cursor, so a sorted batch of windows (or point-get keys) is one pass.
"""

from __future__ import annotations

import bisect
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
    "kv_block_read_total", "SSTable blocks touched by gets and scans"
)

MAGIC = b"TMSST\x01"
SPARSE_EVERY = 16
_LEN = struct.Struct(">I")
_OFFSET = struct.Struct(">Q")
_FOOTER = struct.Struct(">QQI")


def write_disk_sstable(
    path: str | os.PathLike,
    entries: Sequence[tuple[bytes, bytes]],
    fsync: bool = False,
) -> None:
    """Write a sorted run to ``path``; entries must be sorted and unique.

    With ``fsync`` the file contents are forced to stable storage before
    returning — required by the crash-safe flush protocol, which fsyncs
    the ``.tmp`` file *before* atomically renaming it into place.
    """
    keys = [k for k, _ in entries]
    if any(b <= a for a, b in zip(keys, keys[1:])):
        raise ValueError("disk SSTable entries must be strictly sorted")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    sparse: list[tuple[bytes, int]] = []
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        for i, (key, value) in enumerate(entries):
            if i % SPARSE_EVERY == 0:
                sparse.append((key, fh.tell()))
            fh.write(_LEN.pack(len(key)) + key + _LEN.pack(len(value)) + value)
        index_offset = fh.tell()
        index = bytearray(_LEN.pack(len(sparse)))
        for key, offset in sparse:
            index += _LEN.pack(len(key)) + key + _OFFSET.pack(offset)
        fh.write(index)
        fh.write(_FOOTER.pack(index_offset, len(entries), zlib.crc32(bytes(index)) & 0xFFFFFFFF))
        if fsync:
            fh.flush()
            os.fsync(fh.fileno())


class _PlainFile:
    """``read(offset, n)`` slices straight from the file (no block cache)."""

    def __init__(self, path: str):
        self._fd = os.open(path, os.O_RDONLY)

    def read(self, offset: int, n: int) -> bytes:
        return os.pread(self._fd, n, offset)

    def close(self) -> None:
        os.close(self._fd)


class _RecordCursor:
    """The disk SSTable's one record parser: a forward cursor over its data.

    Records are parsed out of span buffers (not one read per field) whose
    length doubles, up to 16 blocks, while reads stay sequential and
    restarts at one block after a seek.  ``offset`` is the file offset of
    the next record (assign it to seek), ``at`` that of the record last
    returned, and ``parsed`` counts the records parsed.
    """

    def __init__(self, path: str, reader, block_bytes: int, end: int, offset: int):
        self._path = path
        self._reader = reader
        self._block = block_bytes
        self._end = end
        self._buf = b""
        self._buf_start = 0
        self._span = 1
        self.offset = self.at = offset
        self.parsed = 0

    def _fill(self, offset: int, need: int, what: str) -> bytes:
        sequential = 0 <= offset - self._buf_start <= len(self._buf)
        self._span = min(self._span * 2, 16) if sequential else 1
        # End the span on a block boundary: no block is fetched for a sliver.
        want = max(self._block * self._span - offset % self._block, need)
        buf = self._reader.read(offset, want)
        if len(buf) < need:
            raise CorruptionError(f"{self._path}: torn record {what}")
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
        self._reader.close()


class DiskSSTable:
    """Read-only view over a disk SSTable file."""

    def __init__(
        self,
        path: str | os.PathLike,
        stats: IOStats | None = None,
        block_cache: BlockCache | None = None,
    ):
        self.path = os.fspath(path)
        self._stats = stats
        self._block_cache = block_cache
        # Cache entries are keyed by this token, not the path: it is unique
        # per open, so a recycled path can never serve another file's blocks.
        self._cache_token = next_file_token()
        with open(self.path, "rb") as fh:
            if fh.read(len(MAGIC)) != MAGIC:
                raise CorruptionError(f"{self.path} is not a disk SSTable")
            fh.seek(-_FOOTER.size, 2)
            footer = fh.read(_FOOTER.size)
            index_offset, self.record_count, crc = _FOOTER.unpack(footer)
            file_size = os.fstat(fh.fileno()).st_size
            if not len(MAGIC) <= index_offset <= file_size - _FOOTER.size:
                raise CorruptionError(f"{self.path}: footer index offset out of range")
            fh.seek(index_offset)
            index_raw = fh.read(file_size - index_offset - _FOOTER.size)
        if zlib.crc32(index_raw) & 0xFFFFFFFF != crc:
            raise CorruptionError(f"{self.path}: index checksum mismatch")
        self._sparse_keys: list[bytes] = []
        self._sparse_offsets: list[int] = []
        (count,) = _LEN.unpack_from(index_raw, 0)
        pos = 4
        for _ in range(count):
            (key_len,) = _LEN.unpack_from(index_raw, pos)
            pos += 4
            key = index_raw[pos : pos + key_len]
            pos += key_len
            (offset,) = _OFFSET.unpack_from(index_raw, pos)
            pos += 8
            self._sparse_keys.append(key)
            self._sparse_offsets.append(offset)
        self._data_end = index_offset
        # The largest key, from the last sparse block (uncounted, uncached).
        self.max_key: bytes | None = None
        if self._sparse_offsets:
            cursor = self._cursor(self._sparse_offsets[-1], _PlainFile(self.path))
            try:
                while (record := cursor.next()) is not None:
                    self.max_key = record[0]
            finally:
                cursor.close()

    def __len__(self) -> int:
        return self.record_count

    @property
    def min_key(self) -> bytes | None:
        """Smallest key in the table, or ``None`` when empty."""
        return self._sparse_keys[0] if self._sparse_keys else None

    def _floor_offset(self, key: bytes | None) -> int:
        """File offset of the sparse entry at or before ``key``."""
        if key is None:
            return len(MAGIC)
        idx = bisect.bisect_right(self._sparse_keys, key) - 1
        return self._sparse_offsets[idx] if idx >= 0 else len(MAGIC)

    def _cursor(self, offset: int, reader=None) -> _RecordCursor:
        cache = self._block_cache
        if reader is None:
            reader = (
                _PlainFile(self.path)
                if cache is None
                else CachedBlockFile(self.path, self._cache_token, cache, self._data_end)
            )
        block = cache.block_bytes if cache is not None else DEFAULT_BLOCK_BYTES
        return _RecordCursor(self.path, reader, block, self._data_end, offset)

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
