"""Row-format census taken while flush/compaction rewrite live rows.

Flush and compaction are the places the store already touches every value
it persists, so per-row bookkeeping there is free.  A trajectory row is
recognized by its magic byte (``0x54``, shared with
:mod:`repro.storage.serializer`); the second byte is the format version.
Values that are not trajectory rows (secondary-index pointers, metadata)
are ignored.

The planner's statistics do not come from here: they are fed by the write
path (:class:`repro.storage.statistics.TableStatisticsBuilder`).
"""

from __future__ import annotations

from typing import Iterable

ROW_MAGIC = 0x54


def census_rows(rows: Iterable[tuple[bytes, bytes]]) -> dict[int, int]:
    """Count trajectory rows per format version among ``(key, value)`` pairs."""
    counts: dict[int, int] = {}
    for _, value in rows:
        if len(value) >= 2 and value[0] == ROW_MAGIC:
            version = value[1]
            counts[version] = counts.get(version, 0) + 1
    return counts


def merge_census(*censuses: dict[int, int]) -> dict[int, int]:
    """Sum several per-store censuses into one."""
    total: dict[int, int] = {}
    for census in censuses:
        for version, count in census.items():
            total[version] = total.get(version, 0) + count
    return total
