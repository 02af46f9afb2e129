"""I/O accounting and the simulated cost model.

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

The :class:`CostModel` converts those counters — a snapshot delta, or the
same fields on a query's :class:`~repro.obs.profile.QueryProfile` — into
simulated milliseconds for a disk-backed distributed deployment, so
benchmark reports can show both real wall time of the embedded store and
modeled cluster time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields

from repro.obs.profile import QueryProfile, current_profile as _current_profile


@dataclass
class StatsSnapshot:
    """An immutable copy of the counters at one instant."""

    rows_scanned: int = 0
    rows_returned: int = 0
    range_scans: int = 0
    bytes_transferred: int = 0
    block_reads: int = 0
    filter_evals: int = 0
    bloom_rejects: int = 0
    point_gets: int = 0

    def __sub__(self, other: "StatsSnapshot") -> "StatsSnapshot":
        return StatsSnapshot(
            **{
                f.name: getattr(self, f.name) - getattr(other, f.name)
                for f in fields(StatsSnapshot)
            }
        )


class IOStats:
    """Thread-safe counter bundle shared by a cluster's regions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snap = StatsSnapshot()

    def add(self, **deltas: int) -> None:
        """Increment counters, e.g. ``stats.add(rows_scanned=1)``.

        When a query profile is active on the calling thread the same
        deltas are attributed to it, so per-query totals reconcile exactly
        with snapshot deltas.  Background threads (flusher, compactor)
        carry no profile and skip the second step.
        """
        with self._lock:
            for name, delta in deltas.items():
                setattr(self._snap, name, getattr(self._snap, name) + delta)
        profile = _current_profile()
        if profile is not None:
            profile.add(**deltas)

    def snapshot(self) -> StatsSnapshot:
        """Return a copy of the current counters."""
        with self._lock:
            return StatsSnapshot(
                **{f.name: getattr(self._snap, f.name) for f in fields(StatsSnapshot)}
            )

    def reset(self) -> None:
        """Zero every counter."""
        with self._lock:
            self._snap = StatsSnapshot()


@dataclass(frozen=True)
class CostModel:
    """Convert I/O counters to simulated milliseconds on a disk cluster.

    Defaults approximate a small HBase deployment: ~8 ms per range seek,
    ~4 us per row scanned server-side, ~20 us per row shipped to the client
    plus bandwidth, and a fixed per-request RPC overhead.
    """

    seek_ms: float = 8.0
    row_scan_us: float = 4.0
    row_transfer_us: float = 20.0
    bandwidth_mb_per_s: float = 200.0
    rpc_ms: float = 1.0

    def simulate_ms(self, delta: StatsSnapshot | QueryProfile) -> float:
        """Modeled latency of the work a snapshot delta or a profile counts."""
        transfer_ms = delta.bytes_transferred / (self.bandwidth_mb_per_s * 1_000_000) * 1000
        return (
            delta.range_scans * self.seek_ms
            + delta.rows_scanned * self.row_scan_us / 1000
            + delta.rows_returned * self.row_transfer_us / 1000
            + transfer_ms
            + (self.rpc_ms if (delta.range_scans or delta.point_gets) else 0.0)
        )


# The model every query result's ``simulated_ms`` is priced with.
COST_MODEL = CostModel()
