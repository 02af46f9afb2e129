"""Cluster snapshots: dump/restore every table to a single binary file.

The embedded cluster is memory-resident; snapshots give deployments
durability between processes without pulling in pickle (the format is a
plain length-prefixed binary layout, so snapshots are portable and safe to
load from untrusted sources — they can only produce byte keys/values).

Format (big-endian):

    magic  b"TMANSNAP"  version u16
    u32 table_count
    per table: u16 name_len, name utf-8, u64 row_count,
               per row: u32 key_len, key, u32 value_len, value
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Optional, Union

from repro.kvstore.cluster import Cluster
from repro.kvstore.errors import CorruptionError
from repro.kvstore.scan import Scan

MAGIC = b"TMANSNAP"
VERSION = 1


def save_cluster(cluster: Cluster, path: Union[str, Path]) -> int:
    """Write every table's live rows to ``path``; returns rows written."""
    path = Path(path)
    rows_written = 0
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(">H", VERSION))
        names = cluster.table_names()
        fh.write(struct.pack(">I", len(names)))
        for name in names:
            rows = list(cluster.table(name).scan(Scan()))
            encoded_name = name.encode("utf-8")
            fh.write(struct.pack(">H", len(encoded_name)))
            fh.write(encoded_name)
            fh.write(struct.pack(">Q", len(rows)))
            for key, value in rows:
                fh.write(struct.pack(">I", len(key)))
                fh.write(key)
                fh.write(struct.pack(">I", len(value)))
                fh.write(value)
            rows_written += len(rows)
    return rows_written


def _read_exact(fh, n: int) -> bytes:
    buf = fh.read(n)
    if len(buf) != n:
        raise CorruptionError("truncated snapshot file")
    return buf


def load_cluster(path: Union[str, Path], cluster: Optional[Cluster] = None) -> Cluster:
    """Create every table of the snapshot at ``path`` in ``cluster`` (any
    cluster, embedded or process; a new embedded one by default) and write
    its rows; returns the cluster."""
    if cluster is None:
        cluster = Cluster()
    path = Path(path)
    with open(path, "rb") as fh:
        if _read_exact(fh, len(MAGIC)) != MAGIC:
            raise CorruptionError(f"{path} is not a TMan snapshot")
        (version,) = struct.unpack(">H", _read_exact(fh, 2))
        if version != VERSION:
            raise CorruptionError(f"unsupported snapshot version {version}")
        (table_count,) = struct.unpack(">I", _read_exact(fh, 4))
        for _ in range(table_count):
            (name_len,) = struct.unpack(">H", _read_exact(fh, 2))
            name = _read_exact(fh, name_len).decode("utf-8")
            table = cluster.create_table(name)
            (row_count,) = struct.unpack(">Q", _read_exact(fh, 8))
            for _ in range(row_count):
                (key_len,) = struct.unpack(">I", _read_exact(fh, 4))
                key = _read_exact(fh, key_len)
                (value_len,) = struct.unpack(">I", _read_exact(fh, 4))
                value = _read_exact(fh, value_len)
                table.put(key, value)
    return cluster
