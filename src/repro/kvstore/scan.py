"""Scan specifications: the coordinator's read requests.

The engine sees only key windows (:data:`~repro.kvstore.memtable.Window`,
re-exported here), so a region-server worker never imports this module.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

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
