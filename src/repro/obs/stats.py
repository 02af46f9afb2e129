"""Rolling workload statistics aggregated from query profiles.

The :class:`WorkloadStatsCollector` folds every finished
:class:`~repro.obs.profile.QueryProfile` into per *(query type, plan)*
groups: latency quantiles, candidate counts, observed selectivity
histograms, per-period and per-cell scan tallies, and observed-vs-
estimated candidate ratios.  The export (``workload_stats.json``, schema
``repro.obs.workload_stats/v1``) records how far the cost-based
optimizer's priors (the writer-fed
:class:`~repro.storage.statistics.TableStatistics`) sit from what the
queries actually touched.

Everything is bounded: latency reservoirs keep the newest samples,
period/cell maps collapse to ``"__overflow__"`` past a key cap, so the
collector can run for the life of a serving process.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict, deque
from typing import Optional

from repro.obs.profile import QueryProfile

WORKLOAD_STATS_SCHEMA = "repro.obs.workload_stats/v1"

SELECTIVITY_BINS = 10
LATENCY_RESERVOIR = 512
ESTIMATE_RECENT = 32
MAX_MAP_KEYS = 512
MAX_PERIODS_PER_QUERY = 64
CELL_GRID = 16
OVERFLOW_KEY = "__overflow__"


def _percentile(sorted_values: list[float], pct: float) -> float:
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class _Tally:
    """Observation count plus scanned/returned row sums for one key."""

    __slots__ = ("observations", "rows_scanned", "rows_returned")

    def __init__(self):
        self.observations = 0
        self.rows_scanned = 0
        self.rows_returned = 0

    def add(self, scanned: int, returned: int) -> None:
        self.observations += 1
        self.rows_scanned += scanned
        self.rows_returned += returned

    def as_dict(self) -> dict:
        return {
            "observations": self.observations,
            "rows_scanned": self.rows_scanned,
            "rows_returned": self.rows_returned,
        }


class _Group:
    """Aggregates for one (query_type, plan) combination."""

    __slots__ = ("count", "latencies", "candidates_sum", "candidates_max",
                 "selectivity_hist", "periods", "cells", "est_count",
                 "est_ratio_sum", "est_ratio_min", "est_ratio_max",
                 "est_recent", "slowest_ms", "slowest_query_id")

    def __init__(self):
        self.count = 0
        self.latencies: deque[float] = deque(maxlen=LATENCY_RESERVOIR)
        self.candidates_sum = 0
        self.candidates_max = 0
        self.selectivity_hist = [0] * SELECTIVITY_BINS
        self.periods: dict[str, _Tally] = {}
        self.cells: dict[str, _Tally] = {}
        self.est_count = 0
        self.est_ratio_sum = 0.0
        self.est_ratio_min = math.inf
        self.est_ratio_max = -math.inf
        self.est_recent: deque[float] = deque(maxlen=ESTIMATE_RECENT)
        self.slowest_ms = -1.0
        self.slowest_query_id = ""

    def _keyed(self, table: dict[str, _Tally], key: str) -> _Tally:
        tally = table.get(key)
        if tally is None:
            if len(table) >= MAX_MAP_KEYS:
                key = OVERFLOW_KEY
                tally = table.get(key)
                if tally is None:
                    tally = table[key] = _Tally()
            else:
                tally = table[key] = _Tally()
        return tally

    def as_dict(self) -> dict:
        lat = sorted(self.latencies)
        return {
            "count": self.count,
            "latency_ms": {
                "p50": round(_percentile(lat, 50), 4),
                "p90": round(_percentile(lat, 90), 4),
                "p99": round(_percentile(lat, 99), 4),
                "mean": round(sum(lat) / len(lat), 4) if lat else 0.0,
            },
            "candidates": {
                "mean": round(self.candidates_sum / self.count, 2) if self.count else 0.0,
                "max": self.candidates_max,
            },
            "selectivity_hist": list(self.selectivity_hist),
            "periods": {k: t.as_dict() for k, t in sorted(self.periods.items())},
            "cells": {k: t.as_dict() for k, t in sorted(self.cells.items())},
            "estimate_ratio": {
                "count": self.est_count,
                "mean": round(self.est_ratio_sum / self.est_count, 4)
                if self.est_count else None,
                "min": round(self.est_ratio_min, 4) if self.est_count else None,
                "max": round(self.est_ratio_max, 4) if self.est_count else None,
                "recent": [round(r, 4) for r in self.est_recent],
            },
            "slowest": {
                "elapsed_ms": round(self.slowest_ms, 4) if self.count else None,
                "query_id": self.slowest_query_id or None,
            },
        }


class WorkloadStatsCollector:
    """Folds finished query profiles into CBO-ready workload statistics."""

    def __init__(self):
        self._lock = threading.Lock()
        self._groups: defaultdict[tuple[str, str], _Group] = defaultdict(_Group)
        self._total = 0

    def record(
        self,
        profile: QueryProfile,
        *,
        time_range: Optional[tuple[float, float]] = None,
        window: Optional[tuple[float, float, float, float]] = None,
        period_seconds: float = 3600.0,
        boundary: Optional[tuple[float, float, float, float]] = None,
    ) -> None:
        """Fold one finished profile into the rolling aggregates.

        ``time_range``/``window`` are the query's temporal/spatial extent
        (when it has one).
        """
        key = (profile.query_type or "unknown", profile.plan or "unknown")
        scanned = profile.rows_scanned
        returned = profile.rows_returned
        candidates = profile.candidates
        with self._lock:
            self._total += 1
            group = self._groups[key]
            group.count += 1
            group.latencies.append(profile.elapsed_ms)
            group.candidates_sum += candidates
            group.candidates_max = max(group.candidates_max, candidates)
            if profile.elapsed_ms > group.slowest_ms:
                group.slowest_ms = profile.elapsed_ms
                group.slowest_query_id = profile.query_id
            if scanned > 0:
                sel = min(1.0, returned / scanned)
                bin_idx = min(SELECTIVITY_BINS - 1, int(sel * SELECTIVITY_BINS))
                group.selectivity_hist[bin_idx] += 1
            if time_range is not None and period_seconds > 0:
                lo, hi = time_range
                first = int(lo // period_seconds)
                last = int(hi // period_seconds)
                # A huge range attributes to its first periods only; the
                # cap keeps one degenerate query from flooding the map.
                for pid in range(first, min(last, first + MAX_PERIODS_PER_QUERY - 1) + 1):
                    group._keyed(group.periods, str(pid)).add(scanned, returned)
            if window is not None:
                cell = self._cell_key(window, boundary)
                if cell is not None:
                    group._keyed(group.cells, cell).add(scanned, returned)

    @staticmethod
    def _cell_key(
        window: tuple[float, float, float, float],
        boundary: Optional[tuple[float, float, float, float]],
    ) -> Optional[str]:
        xlo, ylo, xhi, yhi = window
        cx, cy = (xlo + xhi) / 2.0, (ylo + yhi) / 2.0
        if boundary is not None:
            bxlo, bylo, bxhi, byhi = boundary
            spanx = max(bxhi - bxlo, 1e-12)
            spany = max(byhi - bylo, 1e-12)
            gx = min(CELL_GRID - 1, max(0, int((cx - bxlo) / spanx * CELL_GRID)))
            gy = min(CELL_GRID - 1, max(0, int((cy - bylo) / spany * CELL_GRID)))
            return f"{gx},{gy}"
        return None

    def record_estimate(
        self, query_type: str, plan: str, observed: float, estimated: float
    ) -> None:
        """Fold one observed-vs-estimated candidate ratio into its group."""
        if estimated <= 0:
            return
        ratio = observed / estimated
        key = (query_type or "unknown", plan or "unknown")
        with self._lock:
            group = self._groups[key]
            group.est_count += 1
            group.est_ratio_sum += ratio
            group.est_ratio_min = min(group.est_ratio_min, ratio)
            group.est_ratio_max = max(group.est_ratio_max, ratio)
            group.est_recent.append(ratio)

    @property
    def total_queries(self) -> int:
        """Profiles folded in since the last ``clear``."""
        return self._total

    def snapshot(self) -> dict:
        """The schema-versioned ``workload_stats.json`` document."""
        with self._lock:
            groups = [
                {"query_type": qtype, "plan": plan, **group.as_dict()}
                for (qtype, plan), group in sorted(self._groups.items())
            ]
            return {
                "schema": WORKLOAD_STATS_SCHEMA,
                "total_queries": self._total,
                "selectivity_bins": SELECTIVITY_BINS,
                "cell_grid": CELL_GRID,
                "groups": groups,
            }

    def clear(self) -> None:
        """Drop every aggregate (test isolation)."""
        with self._lock:
            self._groups.clear()
            self._total = 0


# The process-wide collector, ``repro.obs.workload_stats()``.
WORKLOAD_STATS = WorkloadStatsCollector()


def validate_workload_stats(doc: dict) -> list[str]:
    """Schema-check a ``workload_stats.json`` document; returns errors."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if doc.get("schema") != WORKLOAD_STATS_SCHEMA:
        errors.append(
            f"schema is {doc.get('schema')!r}, expected {WORKLOAD_STATS_SCHEMA!r}"
        )
    if not isinstance(doc.get("total_queries"), int) or doc.get("total_queries", -1) < 0:
        errors.append("total_queries must be a non-negative integer")
    groups = doc.get("groups")
    if not isinstance(groups, list):
        return errors + ["groups must be a list"]
    for i, group in enumerate(groups):
        where = f"groups[{i}]"
        if not isinstance(group, dict):
            errors.append(f"{where} is not an object")
            continue
        for field in ("query_type", "plan"):
            if not isinstance(group.get(field), str) or not group.get(field):
                errors.append(f"{where}.{field} must be a non-empty string")
        if not isinstance(group.get("count"), int) or group.get("count", 0) <= 0:
            errors.append(f"{where}.count must be a positive integer")
        lat = group.get("latency_ms")
        if not isinstance(lat, dict):
            errors.append(f"{where}.latency_ms must be an object")
        else:
            for q in ("p50", "p90", "p99", "mean"):
                if not isinstance(lat.get(q), (int, float)):
                    errors.append(f"{where}.latency_ms.{q} must be numeric")
        hist = group.get("selectivity_hist")
        if (
            not isinstance(hist, list)
            or len(hist) != doc.get("selectivity_bins", SELECTIVITY_BINS)
            or not all(isinstance(b, int) and b >= 0 for b in hist)
        ):
            errors.append(
                f"{where}.selectivity_hist must be {doc.get('selectivity_bins', SELECTIVITY_BINS)} "
                "non-negative integer bins"
            )
        for map_field in ("periods", "cells"):
            table = group.get(map_field)
            if not isinstance(table, dict):
                errors.append(f"{where}.{map_field} must be an object")
                continue
            for key, tally in table.items():
                if not isinstance(tally, dict) or not all(
                    isinstance(tally.get(f), int)
                    for f in ("observations", "rows_scanned", "rows_returned")
                ):
                    errors.append(
                        f"{where}.{map_field}[{key!r}] must carry integer "
                        "observations/rows_scanned/rows_returned"
                    )
                    break
        est = group.get("estimate_ratio")
        if not isinstance(est, dict) or not isinstance(est.get("count"), int):
            errors.append(f"{where}.estimate_ratio.count must be an integer")
    return errors
