"""Rowkey construction and parsing (Eq. 6: ``shard :: index value :: tid``).

Keys are plain bytes ordered lexicographically; index values are packed
big-endian so numeric order equals byte order.  The leading shard byte
spreads writes across regions to avoid hot-spotting; every query window is
replicated per shard.  ``::`` below is one NUL byte.

The three row layouts (key → value):

- primary: ``shard :: index value :: tid`` → the serialized row; the index
  value is 8 bytes (``tr`` / ``tshape``) or 16 (``st``: TR then TShape);
- secondary ``tr`` / ``tshape`` / ``interval`` / ``st``:
  ``index value :: tid`` → ``shard :: primary index value`` (8 or 16 bytes
  of index value, then the separator and tid);
- ``idt``: ``oid :: TR value(8) :: tid`` → ``shard :: primary index value``.

A mapping row's value is the primary key up to its separator: the key
already ends in ``:: tid``, so :meth:`RowKeyCodec.primary_from_mapping`
rebuilds the primary key by concatenation, with no shard hash.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from repro.kvstore.errors import CorruptionError

SEPARATOR = b"\x00"

# Index-value width of each secondary table whose key is ``index value :: tid``.
SECONDARY_INDEX_WIDTH = {"tr": 8, "tshape": 8, "interval": 8, "st": 16}


def encode_u64(value: int) -> bytes:
    """Big-endian 8-byte encoding (order-preserving for 0 <= v < 2^64)."""
    if not 0 <= value < (1 << 64):
        raise ValueError(f"value out of u64 range: {value}")
    return struct.pack(">Q", value)


def decode_u64(buf: bytes) -> int:
    """Decode u64."""
    if len(buf) != 8:
        raise ValueError(f"expected 8 bytes, got {len(buf)}")
    return struct.unpack(">Q", buf)[0]


def shard_of(tid: str, num_shards: int) -> int:
    """Stable shard assignment from the trajectory id."""
    digest = hashlib.blake2b(tid.encode("utf-8"), digest_size=2).digest()
    return int.from_bytes(digest, "big") % num_shards


@dataclass(frozen=True)
class ParsedKey:
    """A decoded primary rowkey."""

    shard: int
    index_bytes: bytes
    tid: str


class RowKeyCodec:
    """Builds and parses the byte rowkeys of every TMan table.

    ``index_width`` is the fixed byte width of the index-value portion of
    primary keys (8 for single-index tables, 16 for the composite ST index).
    """

    def __init__(self, num_shards: int, index_width: int = 8):
        if not 1 <= num_shards <= 255:
            raise ValueError(f"num_shards must be in [1, 255], got {num_shards}")
        if index_width not in (8, 16):
            raise ValueError(f"index_width must be 8 or 16, got {index_width}")
        self.num_shards = num_shards
        self.index_width = index_width

    # -- primary table ---------------------------------------------------

    def primary_key(self, index_bytes: bytes, tid: str) -> bytes:
        """Eq. 6: ``shard :: index value :: tid``."""
        if len(index_bytes) != self.index_width:
            raise ValueError(
                f"index bytes must be {self.index_width} wide, got {len(index_bytes)}"
            )
        shard = shard_of(tid, self.num_shards)
        return bytes([shard]) + index_bytes + SEPARATOR + tid.encode("utf-8")

    def parse_primary(self, key: bytes) -> ParsedKey:
        """Parse primary."""
        shard = key[0]
        index_bytes = key[1 : 1 + self.index_width]
        rest = key[1 + self.index_width :]
        if not rest.startswith(SEPARATOR):
            raise ValueError(f"malformed primary key: {key!r}")
        return ParsedKey(shard, index_bytes, rest[1:].decode("utf-8"))

    def primary_window(
        self, shard: int, lo_bytes: bytes, hi_bytes: bytes
    ) -> tuple[bytes, bytes]:
        """Scan window over one shard for index values in ``[lo, hi)`` bytes."""
        return bytes([shard]) + lo_bytes, bytes([shard]) + hi_bytes

    def all_shards(self) -> range:
        """All shards."""
        return range(self.num_shards)

    # -- secondary tables ----------------------------------------------------

    @staticmethod
    def secondary_key(index_bytes: bytes, tid: str) -> bytes:
        """Secondary rowkey: ``index value :: tid`` (no shard byte)."""
        return index_bytes + SEPARATOR + tid.encode("utf-8")

    @staticmethod
    def parse_secondary(key: bytes, index_width: int) -> tuple[bytes, str]:
        """Parse secondary."""
        index_bytes = key[:index_width]
        rest = key[index_width:]
        if not rest.startswith(SEPARATOR):
            raise ValueError(f"malformed secondary key: {key!r}")
        return index_bytes, rest[1:].decode("utf-8")

    @staticmethod
    def tid_at(table: str, sec_key: bytes) -> int:
        """Where the tid starts in a key of secondary ``table`` (just past
        the separator in front of it)."""
        if table == "idt":
            sep = sec_key.find(SEPARATOR)  # oids hold no NUL
            at = sep + 10 if sep >= 0 else -1
        else:
            at = SECONDARY_INDEX_WIDTH[table] + 1
        if at < 1 or sec_key[at - 1 : at] != SEPARATOR:
            raise CorruptionError(f"malformed {table} secondary key: {sec_key!r}")
        return at

    def mapping_value(self, primary_key: bytes) -> bytes:
        """A secondary row's value: ``shard :: primary index value``, the
        primary key up to its separator."""
        return primary_key[: 1 + self.index_width]

    def primary_from_mapping(self, table: str, sec_key: bytes, value: bytes) -> bytes:
        """The primary key a mapping row of ``table`` points to: its value
        then the ``:: tid`` its key ends in (inverse of :meth:`mapping_value`).

        A value of any other length than ``1 + index_width`` (such as a
        whole primary key, the layout before this one) raises
        :class:`CorruptionError`: resolved as is, it would find no primary
        row and silently drop the trajectory.
        """
        if len(value) != 1 + self.index_width:
            raise CorruptionError(
                f"{table} mapping value is {len(value)} bytes, expected "
                f"{1 + self.index_width} (shard :: primary index value)"
            )
        return value + sec_key[self.tid_at(table, sec_key) - 1 :]

    # -- IDT table ----------------------------------------------------------------

    @staticmethod
    def idt_key(oid: str, tr_value: int, tid: str) -> bytes:
        """IDT rowkey: ``oid :: TR value :: tid``."""
        oid_bytes = oid.encode("utf-8")
        if SEPARATOR in oid_bytes:
            raise ValueError(f"object ids must not contain NUL bytes: {oid!r}")
        return oid_bytes + SEPARATOR + encode_u64(tr_value) + SEPARATOR + tid.encode("utf-8")

    @staticmethod
    def idt_window(oid: str, tr_lo: int, tr_hi: int) -> tuple[bytes, bytes]:
        """Scan window for one object over inclusive TR values [lo, hi]."""
        oid_bytes = oid.encode("utf-8") + SEPARATOR
        return oid_bytes + encode_u64(tr_lo), oid_bytes + encode_u64(tr_hi + 1)

    # -- composite ST index ------------------------------------------------------------

    @staticmethod
    def st_index_bytes(tr_value: int, tshape_value: int) -> bytes:
        """16-byte composite: TR (prefix) then TShape."""
        return encode_u64(tr_value) + encode_u64(tshape_value)
