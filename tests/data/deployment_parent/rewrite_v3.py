"""Rewrites the primary rows of ``tables.snap`` from row version 2 to 3.

Run once, from the repository root, when row version 3 replaced version 2::

    PYTHONPATH=src python -m tests.data.deployment_parent.rewrite_v3

Only the values of the ``tman_primary`` table change, through the test-only
converter ``tests/ingest_reference.py::row_v2_to_v3`` (header, ids and point
blob byte for byte; the feature section re-laid out with the same decoded
values).  Every other table, every key, ``config.json`` and ``cache.rdb``
stay as ``save_tman`` wrote them.  Rows that are already version 3 are
left alone, so a second run writes the same bytes.
"""

from __future__ import annotations

import struct
from pathlib import Path

from tests.ingest_reference import row_v2_to_v3

SNAP = Path(__file__).with_name("tables.snap")
PRIMARY = "tman_primary"
HEAD = 8 + 2  # magic, version (kvstore/snapshot.py)


def rewrite(snap: bytes) -> bytes:
    """The snapshot with every version 2 primary row converted."""
    out = bytearray(snap[: HEAD + 4])
    (tables,) = struct.unpack_from(">I", snap, HEAD)
    pos = HEAD + 4
    for _ in range(tables):
        (name_len,) = struct.unpack_from(">H", snap, pos)
        name = snap[pos + 2 : pos + 2 + name_len].decode("utf-8")
        (rows,) = struct.unpack_from(">Q", snap, pos + 2 + name_len)
        out += snap[pos : pos + 10 + name_len]
        pos += 10 + name_len
        for _ in range(rows):
            (key_len,) = struct.unpack_from(">I", snap, pos)
            out += snap[pos : pos + 4 + key_len]
            pos += 4 + key_len
            (value_len,) = struct.unpack_from(">I", snap, pos)
            value = snap[pos + 4 : pos + 4 + value_len]
            pos += 4 + value_len
            if name == PRIMARY and value[1] == 2:
                value = row_v2_to_v3(value)
            out += struct.pack(">I", len(value)) + value
    assert pos == len(snap), "trailing bytes in the snapshot"
    return bytes(out)


def main() -> None:
    before = SNAP.read_bytes()
    after = rewrite(before)
    SNAP.write_bytes(after)
    print(f"rewrote {SNAP} ({len(before)} -> {len(after)} bytes)")


if __name__ == "__main__":
    main()
