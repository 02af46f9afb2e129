"""Write-ahead log for the durable LSM configuration.

Each record is ``u32 crc | u8 op | u32 key_len | key | u32 value_len |
value`` where ``op`` is 0 for put and 1 for delete and the CRC32 covers
everything after itself.  Replay stops at the first torn/corrupt record —
the standard crash-recovery contract: a prefix of acknowledged writes is
recovered, never garbage.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections.abc import Iterator

from repro.obs import counter as _obs_counter

_HEADER = struct.Struct(">IBI")  # crc, op, key_len
_LEN = struct.Struct(">I")

OP_PUT = 0
OP_DELETE = 1

_WAL_APPEND_TOTAL = _obs_counter(
    "kv_wal_append_total", "Records appended to write-ahead logs"
)
_WAL_APPEND_BYTES = _obs_counter(
    "kv_wal_append_bytes_total", "Bytes appended to write-ahead logs"
)
_WAL_SYNC_TOTAL = _obs_counter(
    "kv_wal_sync_total", "fsync calls issued by write-ahead logs"
)


class WriteAheadLog:
    """Append-only intent log with CRC-checked replay.

    **Fork safety:** the log records the pid that opened its file handle
    and refuses to write through an inherited one.  A ``fork()`` (or any
    start method that copies the parent's open descriptors) leaves parent
    and child sharing one file *offset*; interleaved appends through the
    shared handle tear records and corrupt the log.  Every mutating entry
    point re-checks ``os.getpid()`` and transparently reopens a private
    handle in the child, so a forked worker appends through its own
    descriptor from the first write.
    """

    def __init__(self, path: str | os.PathLike, sync: bool = True):
        self.path = os.fspath(path)
        os.makedirs(os.path.dirname(os.path.abspath(self.path)), exist_ok=True)
        self.sync = sync
        self._fh = open(self.path, "ab")
        self._owner_pid = os.getpid()

    def _handle(self):
        """The file handle, reopened if this process is not its opener."""
        if os.getpid() != self._owner_pid:
            # Inherited across a fork: abandon the shared descriptor
            # (closing it would also close the parent's offset sharing —
            # harmless for 'ab' handles, and it drops our refcount) and
            # open a private one owned by this process.
            try:
                self._fh.close()
            except OSError:  # pragma: no cover - defensive
                pass
            self._fh = open(self.path, "ab")
            self._owner_pid = os.getpid()
        return self._fh

    def append(self, op: int, key: bytes, value: bytes = b"") -> None:
        """Durably record one operation.

        With ``sync=False`` the record is flushed to the OS but not fsynced
        per write (group-commit style: an fsync still happens on flush and
        close), trading the weakest durability window for write throughput.
        """
        if op not in (OP_PUT, OP_DELETE):
            raise ValueError(f"unknown WAL op {op}")
        body = bytes([op]) + _LEN.pack(len(key)) + key + _LEN.pack(len(value)) + value
        crc = zlib.crc32(body) & 0xFFFFFFFF
        fh = self._handle()
        fh.write(_LEN.pack(crc) + body)
        fh.flush()
        _WAL_APPEND_TOTAL.inc()
        _WAL_APPEND_BYTES.inc(4 + len(body))
        if self.sync:
            os.fsync(fh.fileno())
            _WAL_SYNC_TOTAL.inc()

    def fsync(self) -> None:
        """Force an fsync (group commit point for sync=False logs).

        A no-op after :meth:`close` — the close chain is documented
        idempotent, and a second ``close()`` (``with`` block plus explicit
        call) must not fsync an already-closed handle.
        """
        if self._fh.closed:
            return
        fh = self._handle()
        fh.flush()
        os.fsync(fh.fileno())
        _WAL_SYNC_TOTAL.inc()

    def append_put(self, key: bytes, value: bytes) -> None:
        """Record a put operation."""
        self.append(OP_PUT, key, value)

    def append_delete(self, key: bytes) -> None:
        """Record a delete operation."""
        self.append(OP_DELETE, key)

    def replay(self) -> Iterator[tuple[int, bytes, bytes]]:
        """Yield ``(op, key, value)`` for every intact record on disk.

        Once the intact prefix is exhausted, a torn or corrupt tail is cut
        off (and the cut fsynced): appends land at the end of the file, so
        a record written behind the tail would never replay.
        """
        # _handle(), not _fh: a forked child flushing the inherited handle
        # would write out the *parent's* buffered bytes a second time.
        fh = self._handle()
        fh.flush()
        with open(self.path, "rb") as src:
            data = src.read()
        pos = 0
        while pos + 4 <= len(data):
            (crc,) = _LEN.unpack_from(data, pos)
            body_start = pos + 4
            if body_start + 9 > len(data):
                break  # torn header
            op = data[body_start]
            (key_len,) = _LEN.unpack_from(data, body_start + 1)
            key_start = body_start + 5
            value_len_at = key_start + key_len
            if value_len_at + 4 > len(data):
                break  # torn key
            (value_len,) = _LEN.unpack_from(data, value_len_at)
            end = value_len_at + 4 + value_len
            if end > len(data):
                break  # torn value
            body = data[body_start:end]
            if zlib.crc32(body) & 0xFFFFFFFF != crc:
                break  # corrupt record: stop at the last good prefix
            yield op, data[key_start:value_len_at], data[value_len_at + 4 : end]
            pos = end
        if pos < len(data):
            fh.truncate(pos)
            os.fsync(fh.fileno())

    def truncate(self) -> None:
        """Discard the log (after a successful memtable flush)."""
        self._handle().close()
        self._fh = open(self.path, "wb")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.close()
        self._fh = open(self.path, "ab")
        self._owner_pid = os.getpid()

    def close(self) -> None:
        """Release the resources held by this object (idempotent)."""
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
