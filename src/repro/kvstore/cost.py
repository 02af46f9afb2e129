"""I/O counter snapshots and the simulated cost model that prices them.

The coordinator's side of :mod:`repro.kvstore.stats`: a
:class:`StatsSnapshot` is a copy of an :class:`~repro.kvstore.stats.IOStats`
bundle at one instant (subtract two for the work in between), and the
:class:`CostModel` converts those counters — a snapshot delta, or the same
fields on a query's :class:`~repro.obs.profile.QueryProfile` — into
simulated milliseconds for a disk-backed distributed deployment, so
benchmark reports can show both real wall time of the embedded store and
modeled cluster time.  A region-server worker counts but never snapshots
or prices, so it does not import this module.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.obs.profile import QueryProfile


@dataclass
class StatsSnapshot:
    """A copy of the counters at one instant."""

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
