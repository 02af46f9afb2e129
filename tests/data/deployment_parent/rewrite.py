"""Brings the saved deployment to the current stored format; idempotent.

Run from the repository root whenever the stored format changes (and in CI,
which then checks that the committed deployment did not move)::

    PYTHONPATH=src python -m tests.data.deployment_parent.rewrite

Four rewrites, each applied only to what is still in an old layout, so a
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
- the shape-code mappings of ``cache.rdb`` (the dump of the in-process
  Redis stand-in that held them until format 7: ``RDSIM\x01``, then
  length-prefixed strings and hashes, parsed by :func:`rdb_mappings`)
  become ``tman_meta`` rows: key ``tshape:`` + the element code as a
  big-endian u64, value per (shape, code) pair in shape order the shape's
  gap from the previous shape and the code as varints
  (``repro/cache/index_cache.py``), and ``cache.rdb`` is deleted;
- ``config.json`` gains the ``format`` stamp these rows are in
  (:data:`FORMAT`; ``repro/storage/persistence.py``), as its first key, and
  loses its ``codec`` entry, which named the rows' packer while it was a
  setting (``simple8b``; the re-packed rows are the bit packer's, which no
  save states).

Every other key and every other ``config.json`` entry stay as
``save_tman`` wrote them.  A later format extends this script and bumps
:data:`FORMAT` here, or declares its change reload-only.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

from repro.compression.varint import decode_varint, encode_varint
from repro.core.temporal import TRIndex
from repro.model.timerange import TimeRange
from repro.storage.schema import RowKeyCodec
from tests.ingest_reference import row_v2_to_v3, row_v3_to_v4, row_v4_to_v5, row_v5_to_v6

HERE = Path(__file__).parent
SNAP = HERE / "tables.snap"
RDB = HERE / "cache.rdb"
PRIMARY = "tman_primary"
META = "tman_meta"
SECONDARY = "tman_sec_"
HEAD = 8 + 2  # magic, version (kvstore/snapshot.py)
FORMAT = 7  # the stored format the rewritten rows are in


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


def rdb_mappings(blob: bytes) -> dict[bytes, bytes]:
    """The ``tman_meta`` rows of the shape-code mappings in a ``cache.rdb``
    dump (every ``tshape:elem:<code>`` hash of shape -> big-endian u32 code)."""
    assert blob.startswith(b"RDSIM\x01"), "not a cache.rdb dump"
    pos = 6

    def item(width: str) -> bytes:
        nonlocal pos
        (n,) = struct.unpack_from(width, blob, pos)
        pos += struct.calcsize(width) + n
        return blob[pos - n : pos]

    def count() -> int:
        nonlocal pos
        pos += 4
        return struct.unpack_from(">I", blob, pos - 4)[0]

    for _ in range(count()):  # strings: none holds a mapping
        item(">H"), item(">I")
    rows = {}
    for _ in range(count()):
        name = item(">H").decode("utf-8")
        fields = {int(item(">H")): struct.unpack(">I", item(">I"))[0] for _ in range(count())}
        prefix = "tshape:elem:"
        assert name.startswith(prefix), name
        value, last = bytearray(), 0
        for shape, code in sorted(fields.items()):
            encode_varint(shape - last, value)
            encode_varint(code, value)
            last = shape
        rows[b"tshape:" + int(name[len(prefix) :]).to_bytes(8, "big")] = bytes(value)
    assert pos == len(blob), "trailing bytes in cache.rdb"
    return rows


def rewrite(snap: bytes, index_width: int, tr: TRIndex, meta_rows: dict[bytes, bytes]) -> bytes:
    """The snapshot with every row in the current format and ``meta_rows``
    added to ``tman_meta``."""
    out = bytearray(snap[: HEAD + 4])
    (tables,) = struct.unpack_from(">I", snap, HEAD)
    pos = HEAD + 4
    for _ in range(tables):
        (name_len,) = struct.unpack_from(">H", snap, pos)
        name = snap[pos + 2 : pos + 2 + name_len].decode("utf-8")
        (count,) = struct.unpack_from(">Q", snap, pos + 2 + name_len)
        out += snap[pos : pos + 2 + name_len]
        pos += 10 + name_len
        rows = {}
        for _ in range(count):
            (key_len,) = struct.unpack_from(">I", snap, pos)
            key = snap[pos + 4 : pos + 4 + key_len]
            pos += 4 + key_len
            (value_len,) = struct.unpack_from(">I", snap, pos)
            rows[key] = _current(name, key, snap[pos + 4 : pos + 4 + value_len], index_width, tr)
            pos += 4 + value_len
        if name == META:
            assert not rows.keys() & meta_rows.keys(), "mappings already rewritten"
            rows.update(meta_rows)
        out += struct.pack(">Q", len(rows))
        for key, value in sorted(rows.items()):
            out += struct.pack(">I", len(key)) + key + struct.pack(">I", len(value)) + value
    assert pos == len(snap), "trailing bytes in the snapshot"
    return bytes(out)


def main() -> None:
    config = HERE / "config.json"
    doc = json.loads(config.read_text())
    doc.pop("format", None)  # restamped first below
    doc.pop("codec", None)
    before = SNAP.read_bytes()
    tr = TRIndex(doc["tr_period_seconds"], doc["tr_max_periods"], doc["time_origin"])
    meta_rows = rdb_mappings(RDB.read_bytes()) if RDB.exists() else {}
    after = rewrite(before, 16 if doc["primary_index"] == "st" else 8, tr, meta_rows)
    SNAP.write_bytes(after)
    print(f"rewrote {SNAP} ({len(before)} -> {len(after)} bytes)")
    if RDB.exists():
        RDB.unlink()
        print(f"moved {len(meta_rows)} mappings from {RDB} into tman_meta")
    config.write_text(json.dumps({"format": FORMAT, **doc}, indent=2))
    print(f"stamped {config} with format {FORMAT}")


if __name__ == "__main__":
    main()
