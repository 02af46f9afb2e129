"""I/O accounting.

Every scan and point-get updates an :class:`IOStats` instance.  The counters
mirror the quantities the paper reports:

- ``rows_scanned`` — rows the storage layer touched (the paper's
  "candidates" / "retrievals");
- ``rows_returned`` — rows that survived server-side filters and were
  transferred to the client;
- ``range_scans`` — number of contiguous key ranges opened (seek count);
- ``bytes_transferred`` — payload bytes shipped to the client;
- ``block_reads`` — in-memory SSTable index blocks touched, and disk
  SSTable records parsed (a disk table has no fixed-size blocks);
- ``filter_evals`` — push-down filter evaluations;
- ``bloom_rejects`` — point gets skipped thanks to bloom filters.

Snapshots of the counters and the cost model that prices them live in
:mod:`repro.kvstore.cost`, which only the coordinator imports.
"""

from __future__ import annotations

import threading

from repro.obs.profile import IO_FIELDS, current_profile as _current_profile

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.kvstore.cost import StatsSnapshot


class IOStats:
    """Thread-safe counter bundle shared by a cluster's regions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts = dict.fromkeys(IO_FIELDS, 0)

    def add(self, **deltas: int) -> None:
        """Increment counters, e.g. ``stats.add(rows_scanned=1)``.

        When a query profile is active on the calling thread the same
        deltas are attributed to it, so per-query totals reconcile exactly
        with snapshot deltas.  Background threads (flusher, compactor)
        carry no profile and skip the second step.
        """
        with self._lock:
            counts = self._counts
            for name, delta in deltas.items():
                counts[name] += delta
        profile = _current_profile()
        if profile is not None:
            profile.add(**deltas)

    def snapshot(self) -> StatsSnapshot:
        """Return a copy of the current counters."""
        from repro.kvstore.cost import StatsSnapshot

        with self._lock:
            return StatsSnapshot(**self._counts)

    def reset(self) -> None:
        """Zero every counter."""
        with self._lock:
            self._counts = dict.fromkeys(IO_FIELDS, 0)
