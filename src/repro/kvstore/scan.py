"""Scan specifications."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.kvstore.filters import Filter
from repro.runtime.deadline import Deadline

# A key window [start, stop); None is unbounded on that side.
Window = tuple[Optional[bytes], Optional[bytes]]


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
    the number of returned rows.  ``batch_rows`` is a chunking hint for
    streaming region reads: the table fetches rows from each region in
    chunks of this size (prefetching one chunk ahead per region), so an
    abandoned scan never materializes more than one extra chunk per region.
    ``deadline`` (when set) is checked cooperatively inside the region
    scan loop; expiry aborts the scan with
    :class:`~repro.runtime.deadline.QueryTimeoutError`.
    """

    start: Optional[bytes] = None
    stop: Optional[bytes] = None
    server_filter: Optional[Filter] = None
    limit: Optional[int] = None
    batch_rows: Optional[int] = None
    deadline: Optional[Deadline] = None

    def __post_init__(self) -> None:
        if (
            self.start is not None
            and self.stop is not None
            and self.stop < self.start
        ):
            raise ValueError(f"scan stop < start: {self.stop!r} < {self.start!r}")
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"negative scan limit: {self.limit}")
        if self.batch_rows is not None and self.batch_rows <= 0:
            raise ValueError(f"non-positive scan batch_rows: {self.batch_rows}")
