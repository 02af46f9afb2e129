"""An in-process Redis stand-in.

Implements the handful of commands the index cache needs — string get/set,
hash field operations, and key scans — plus operation counters so benchmark
reports can show cache-server round trips.  Single-threaded semantics with a
lock, matching Redis's serialized command execution.
"""

from __future__ import annotations

import fnmatch
import threading
from typing import Optional


class RedisServer:
    """Minimal hash/string key-value server with operation accounting."""

    def __init__(self) -> None:
        self._strings: dict[str, bytes] = {}
        self._hashes: dict[str, dict[str, bytes]] = {}
        self._lock = threading.Lock()
        self.ops = 0

    # -- strings ------------------------------------------------------------

    def set(self, key: str, value: bytes) -> None:
        """Store ``value`` under the string ``key``."""
        with self._lock:
            self.ops += 1
            self._strings[key] = value

    def get(self, key: str) -> Optional[bytes]:
        """Return the value stored under ``key``, or ``None`` when absent."""
        with self._lock:
            self.ops += 1
            return self._strings.get(key)

    def incr(self, key: str) -> int:
        """Add one to the integer stored under ``key`` (0 when absent)."""
        with self._lock:
            self.ops += 1
            value = int(self._strings.get(key, b"0")) + 1
            self._strings[key] = b"%d" % value
            return value

    def delete(self, key: str) -> int:
        """Remove a string or hash key; returns the number removed (0 or 1)."""
        with self._lock:
            self.ops += 1
            removed = 0
            if key in self._strings:
                del self._strings[key]
                removed = 1
            if key in self._hashes:
                del self._hashes[key]
                removed = 1
            return removed

    # -- hashes ---------------------------------------------------------------

    def hset(self, key: str, field: str, value: bytes) -> None:
        """Set one field of a hash key."""
        with self._lock:
            self.ops += 1
            self._hashes.setdefault(key, {})[field] = value

    def hgetall(self, key: str) -> dict[str, bytes]:
        """Return a copy of all fields of a hash key."""
        with self._lock:
            self.ops += 1
            return dict(self._hashes.get(key, {}))

    # -- keyspace ------------------------------------------------------------

    def keys(self, pattern: str = "*") -> list[str]:
        """Sorted keys matching a glob ``pattern``."""
        with self._lock:
            self.ops += 1
            space = set(self._strings) | set(self._hashes)
            return sorted(k for k in space if fnmatch.fnmatch(k, pattern))

    # -- persistence (RDB-style dump) ----------------------------------------

    def dump(self) -> bytes:
        """Serialize the whole keyspace to a compact binary blob."""
        import struct

        with self._lock:
            out = bytearray(b"RDSIM\x01")
            out += struct.pack(">I", len(self._strings))
            for key, value in sorted(self._strings.items()):
                kb = key.encode("utf-8")
                out += struct.pack(">H", len(kb)) + kb
                out += struct.pack(">I", len(value)) + value
            out += struct.pack(">I", len(self._hashes))
            for key, fields in sorted(self._hashes.items()):
                kb = key.encode("utf-8")
                out += struct.pack(">H", len(kb)) + kb
                out += struct.pack(">I", len(fields))
                for field, value in sorted(fields.items()):
                    fb = field.encode("utf-8")
                    out += struct.pack(">H", len(fb)) + fb
                    out += struct.pack(">I", len(value)) + value
            return bytes(out)

    @classmethod
    def from_dump(cls, blob: bytes) -> "RedisServer":
        """Restore a server from :meth:`dump` output."""
        import struct

        if not blob.startswith(b"RDSIM\x01"):
            raise ValueError("not a RedisServer dump")
        server = cls()
        pos = 6

        def read_str(width: str) -> str:
            """Read str."""
            nonlocal pos
            size = struct.calcsize(width)
            (n,) = struct.unpack_from(width, blob, pos)
            pos += size
            s = blob[pos : pos + n]
            pos += n
            return s

        (n_strings,) = struct.unpack_from(">I", blob, pos)
        pos += 4
        for _ in range(n_strings):
            key = read_str(">H").decode("utf-8")
            value = read_str(">I")
            server._strings[key] = value
        (n_hashes,) = struct.unpack_from(">I", blob, pos)
        pos += 4
        for _ in range(n_hashes):
            key = read_str(">H").decode("utf-8")
            (n_fields,) = struct.unpack_from(">I", blob, pos)
            pos += 4
            table = {}
            for _ in range(n_fields):
                field = read_str(">H").decode("utf-8")
                table[field] = read_str(">I")
            server._hashes[key] = table
        return server
