"""The coordinator's records: scan specifications and counter snapshots.

The engine sees only key windows (:data:`~repro.kvstore.memtable.Window`,
re-exported here) and counts into :class:`~repro.kvstore.stats.IOStats`
without snapshotting it, so a region-server worker never imports this
module.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields

from repro.kvstore.filters import Filter
from repro.kvstore.memtable import Window
from repro.runtime.deadline import Deadline


def windows_after(windows: Sequence[Window], key: bytes) -> list[Window]:
    """The part of sorted, disjoint ``windows`` strictly after ``key``.

    A cursor that delivered rows up to ``key`` resumes over this list, so
    the resumed stream neither repeats nor skips a row.
    """
    resume = key + b"\x00"
    return [
        (resume if start is None or start < resume else start, stop)
        for start, stop in windows
        if stop is None or stop > resume
    ]


@dataclass
class Scan:
    """Describes one ordered range read.

    ``start`` is inclusive, ``stop`` exclusive (``None`` = unbounded).  When
    ``server_filter`` is set, it is evaluated inside the region (push-down);
    rejected rows count as scanned but are not transferred.  ``limit`` caps
    the number of returned rows.  ``deadline`` (when set) is checked
    cooperatively inside the region scan loop; expiry aborts the scan with
    :class:`~repro.runtime.deadline.QueryTimeoutError`.
    """

    start: bytes | None = None
    stop: bytes | None = None
    server_filter: Filter | None = None
    limit: int | None = None
    deadline: Deadline | None = None

    def __post_init__(self) -> None:
        if (
            self.start is not None
            and self.stop is not None
            and self.stop < self.start
        ):
            raise ValueError(f"scan stop < start: {self.stop!r} < {self.start!r}")
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"negative scan limit: {self.limit}")


@dataclass
class StatsSnapshot:
    """A copy of the :class:`~repro.kvstore.stats.IOStats` counters at one
    instant; subtract two for the work in between."""

    rows_scanned: int = 0
    rows_returned: int = 0
    range_scans: int = 0
    bytes_transferred: int = 0
    block_reads: int = 0
    filter_evals: int = 0
    bloom_rejects: int = 0
    point_gets: int = 0

    def __sub__(self, other: StatsSnapshot) -> StatsSnapshot:
        return StatsSnapshot(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(StatsSnapshot)
            }
        )
