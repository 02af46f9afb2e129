"""The one cost model: modeled milliseconds on a disk-backed cluster.

:class:`CostModel` prices I/O counters — a
:class:`~repro.kvstore.scan.StatsSnapshot` delta, or the same fields on a
query's :class:`~repro.obs.profile.QueryProfile` — with one constant per
primitive: a range seek, a row scanned server-side, a row shipped to the
client, the bytes shipped, one RPC and one point get.  The same instance
prices a finished query's ``simulated_ms`` (:data:`COST_MODEL`) and every
plan the CBO weighs (the counters the planner predicts for it), so a plan
the planner calls cheap is cheap in the result's unit too.
:func:`calibrate` re-fits the constants for a concrete deployment from the
per-query ledgers the profiler already collects.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Mapping, Union

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.kvstore.scan import StatsSnapshot
    from repro.obs.profile import QueryProfile

# Least-squares calibration needs a handful of profiles whose counter mix
# actually varies; below this the fit is noise and defaults are kept.
MIN_CALIBRATION_SAMPLES = 8

# What calibrate() fits: each counter, the constant that prices it, and the
# factor from a fitted ms per count to that constant's unit.
_FIT = (
    ("range_scans", "seek_ms", 1.0),
    ("rows_scanned", "row_scan_us", 1000.0),
    ("rows_returned", "row_transfer_us", 1000.0),
    ("point_gets", "point_get_us", 1000.0),
)


@dataclass(frozen=True)
class CostModel:
    """Convert I/O counters to modeled milliseconds on a disk cluster.

    Defaults approximate a small HBase deployment: ~8 ms per range seek,
    ~4 us per row scanned server-side, ~20 us per row shipped to the client
    plus bandwidth, and a fixed per-request RPC overhead.  ``point_get_us``
    is what one point get costs beyond the row it scans and ships; it is
    0 until :func:`calibrate` fits it.
    """

    seek_ms: float = 8.0
    row_scan_us: float = 4.0
    row_transfer_us: float = 20.0
    bandwidth_mb_per_s: float = 200.0
    rpc_ms: float = 1.0
    point_get_us: float = 0.0

    def simulate_ms(self, delta: StatsSnapshot | QueryProfile) -> float:
        """Modeled latency of the work a snapshot delta, a profile or a
        plan's predicted counters count."""
        transfer_ms = delta.bytes_transferred / (self.bandwidth_mb_per_s * 1_000_000) * 1000
        return (
            delta.range_scans * self.seek_ms
            + delta.rows_scanned * self.row_scan_us / 1000
            + delta.rows_returned * self.row_transfer_us / 1000
            + transfer_ms
            + (self.rpc_ms if (delta.range_scans or delta.point_gets) else 0.0)
            + delta.point_gets * self.point_get_us / 1000
        )


# The model every query result's ``simulated_ms`` and every plan is priced with.
COST_MODEL = CostModel()


ProfileLike = Union[Mapping[str, float], object]


def _field(profile: ProfileLike, name: str) -> float:
    if isinstance(profile, Mapping):
        return float(profile.get(name, 0.0))
    return float(getattr(profile, name, 0.0))


def calibrate(profiles: Iterable[ProfileLike], defaults: CostModel = COST_MODEL) -> CostModel:
    """Fit the model's per-primitive constants to observed latencies.

    ``profiles`` are :class:`~repro.obs.profile.QueryProfile` objects (or
    their ``as_dict`` mappings); the fit solves, in milliseconds,

        elapsed_ms ≈ seek_ms·range_scans + row_scan_us/1000·rows_scanned
                     + row_transfer_us/1000·rows_returned
                     + point_get_us/1000·point_gets

    by non-negative-clamped least squares.  A counter the profiles never
    exercise keeps its default, as do ``bandwidth_mb_per_s`` and
    ``rpc_ms``.  With too few samples, a degenerate counter mix (singular
    system), or a non-positive row-scan coefficient, the ``defaults`` are
    returned unchanged — calibration only ever refines, never breaks, the
    planner.
    """
    rows = []
    for p in profiles:
        counts = [_field(p, counter) for counter, _, _ in _FIT]
        elapsed = _field(p, "elapsed_ms")
        if elapsed <= 0.0 or sum(counts) <= 0.0:
            continue
        rows.append((*counts, elapsed))
    if len(rows) < MIN_CALIBRATION_SAMPLES:
        return defaults

    try:
        import numpy as np
    except ImportError:  # pragma: no cover - numpy is part of the toolchain
        return defaults

    a = np.array([r[:4] for r in rows], dtype=float)
    y = np.array([r[4] for r in rows], dtype=float)
    # Guard against a rank-deficient design matrix (e.g. a workload that
    # never used the secondary route): lstsq still answers, but the
    # unconstrained coefficients are meaningless for the missing columns.
    used = a.sum(axis=0) > 0.0
    coef = np.zeros(4)
    try:
        fit, *_ = np.linalg.lstsq(a[:, used], y, rcond=None)
    except np.linalg.LinAlgError:  # pragma: no cover - lstsq rarely raises
        return defaults
    coef[used] = fit
    if coef[1] <= 0.0:  # a scanned row must cost something
        return defaults
    return replace(
        defaults,
        **{
            name: max(0.0, float(c)) * scale
            for (_, name, scale), c, u in zip(_FIT, coef, used)
            if u
        },
    )
