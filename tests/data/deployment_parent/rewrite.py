"""Brings the saved deployment to the current stored format; idempotent.

Run from the repository root whenever the stored format changes (and in CI,
which then checks that the committed deployment did not move)::

    PYTHONPATH=src python -m tests.data.deployment_parent.rewrite

Three rewrites, each applied only to what is still in an old layout, so a
second run writes the same bytes:

- ``tman_primary`` values of row version 2, 3, 4 or 5 become version 6
  through the test-only converters ``tests/ingest_reference.py::row_v2_to_v3``
  (the feature section re-laid out with the same decoded values),
  ``row_v3_to_v4`` (the point blob re-framed from its decoded integers),
  ``row_v4_to_v5`` (the ``tr_value`` dropped, after checking that it is the
  TR value of the row's own header time range under the saved TR index;
  the feature section's first rep index dropped and its first reps counted
  from the header) and ``row_v5_to_v6`` (the feature section and the point
  blob re-packed from their decoded integers by the bit packer); the f64
  header and the ids stay byte for byte;
- ``tman_sec_*`` values that hold a whole primary key are cut to
  ``shard :: primary index value``, the part the mapping row's own key does
  not already end in (``repro/storage/schema.py``);
- ``config.json`` gains the ``format`` stamp these rows are in
  (:data:`FORMAT`; ``repro/storage/persistence.py``), as its first key, and
  loses its ``codec`` entry, which named the rows' packer while it was a
  setting (``simple8b``; the re-packed rows are the bit packer's, which no
  save states).

Every key, every other ``config.json`` entry and ``cache.rdb`` stay as
``save_tman`` wrote them.  A later format extends this script and bumps
:data:`FORMAT` here, or declares its change reload-only.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

from repro.compression.varint import decode_varint
from repro.core.temporal import TRIndex
from repro.model.timerange import TimeRange
from repro.storage.schema import RowKeyCodec
from tests.ingest_reference import row_v2_to_v3, row_v3_to_v4, row_v4_to_v5, row_v5_to_v6

HERE = Path(__file__).parent
SNAP = HERE / "tables.snap"
PRIMARY = "tman_primary"
SECONDARY = "tman_sec_"
HEAD = 8 + 2  # magic, version (kvstore/snapshot.py)
FORMAT = 6  # the stored format the rewritten rows are in


def _current(name: str, key: bytes, value: bytes, index_width: int, tr: TRIndex) -> bytes:
    """One row's value in the current format."""
    if name == PRIMARY and value[1] == 2:
        value = row_v2_to_v3(value)
    if name == PRIMARY and value[1] == 3:
        value = row_v3_to_v4(value)
    if name == PRIMARY and value[1] == 4:
        t_start, t_end = struct.unpack_from(">dd", value, 2)
        tr_value = decode_varint(value, 2 + 48)[0]
        assert tr_value == tr.index_time_range(TimeRange(t_start, t_end)), key
        value = row_v4_to_v5(value)
    if name == PRIMARY and value[1] == 5:
        return row_v5_to_v6(value)
    if name.startswith(SECONDARY) and len(value) > 1 + index_width:
        table = name[len(SECONDARY) :]
        cut = value[: 1 + index_width]
        assert cut + key[RowKeyCodec.tid_at(table, key) - 1 :] == value, (name, key)
        return cut
    return value


def rewrite(snap: bytes, index_width: int, tr: TRIndex) -> bytes:
    """The snapshot with every row in the current format."""
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
            key = snap[pos + 4 : pos + 4 + key_len]
            out += snap[pos : pos + 4 + key_len]
            pos += 4 + key_len
            (value_len,) = struct.unpack_from(">I", snap, pos)
            value = _current(name, key, snap[pos + 4 : pos + 4 + value_len], index_width, tr)
            pos += 4 + value_len
            out += struct.pack(">I", len(value)) + value
    assert pos == len(snap), "trailing bytes in the snapshot"
    return bytes(out)


def main() -> None:
    config = HERE / "config.json"
    doc = json.loads(config.read_text())
    doc.pop("format", None)  # restamped first below
    doc.pop("codec", None)
    before = SNAP.read_bytes()
    tr = TRIndex(doc["tr_period_seconds"], doc["tr_max_periods"], doc["time_origin"])
    after = rewrite(before, 16 if doc["primary_index"] == "st" else 8, tr)
    SNAP.write_bytes(after)
    print(f"rewrote {SNAP} ({len(before)} -> {len(after)} bytes)")
    config.write_text(json.dumps({"format": FORMAT, **doc}, indent=2))
    print(f"stamped {config} with format {FORMAT}")


if __name__ == "__main__":
    main()
