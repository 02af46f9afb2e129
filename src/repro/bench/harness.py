"""Measurement helpers shared by every benchmark.

The paper reports the 50th percentile of 100 random query windows per
configuration; :func:`run_queries` executes a query function over a window
list and collects per-window latency, candidate count, and result size so
each benchmark prints rows directly comparable to the paper's plots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.query.types import QueryResult


def percentile(samples: Sequence[float], pct: float = 50.0) -> float:
    """Percentile of a latency sample (the paper uses the 50th)."""
    if not samples:
        raise ValueError("empty sample")
    return float(np.percentile(np.asarray(samples, dtype=float), pct))


@dataclass
class QueryStats:
    """Aggregated outcome of one query batch."""

    median_ms: float
    median_sim_ms: float
    median_candidates: float
    median_transferred: float
    median_results: float
    all_ms: list[float] = field(default_factory=list)

    def row(self) -> tuple[float, float, float, float]:
        """The stats as a tuple of the four headline columns."""
        return (
            self.median_ms,
            self.median_sim_ms,
            self.median_candidates,
            self.median_results,
        )


def run_queries(query_fn: Callable[[object], QueryResult], windows: Iterable[object],
                pct: float = 50.0) -> QueryStats:
    """Execute ``query_fn`` per window and summarize at the given percentile."""
    ms: list[float] = []
    sim_ms: list[float] = []
    candidates: list[float] = []
    transferred: list[float] = []
    results: list[float] = []
    for window in windows:
        res = query_fn(window)
        ms.append(res.elapsed_ms)
        sim_ms.append(res.simulated_ms)
        candidates.append(res.candidates)
        transferred.append(res.transferred_rows)
        results.append(len(res))
    return QueryStats(
        median_ms=percentile(ms, pct),
        median_sim_ms=percentile(sim_ms, pct),
        median_candidates=percentile(candidates, pct),
        median_transferred=percentile(transferred, pct),
        median_results=percentile(results, pct),
        all_ms=ms,
    )


def summarize_ms(samples: Sequence[float]) -> dict[str, float]:
    """Tail-latency summary: the paper's Figure 23 percentiles plus the
    p95/p99 tail the observability layer tracks."""
    return {
        f"p{p}": percentile(samples, p) for p in (50, 70, 80, 90, 95, 99, 100)
    }


class ResultTable:
    """Aligned plain-text tables for benchmark output."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self._rows: list[list[str]] = []

    def add_row(self, *values: object) -> None:
        """Append one row (arity must match the columns)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        self._rows.append([self._fmt(v) for v in values])

    @staticmethod
    def _fmt(value: object) -> str:
        if isinstance(value, float):
            if value >= 100:
                return f"{value:.0f}"
            if value >= 1:
                return f"{value:.2f}"
            return f"{value:.4f}"
        return str(value)

    def render(self) -> str:
        """Render the table as aligned plain text."""
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in self._rows))
            if self._rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(c.ljust(w) for c, w in zip(self.columns, widths)))
        for row in self._rows:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        return "\n".join(lines)

    def print(self) -> None:
        """Print the rendered table."""
        print("\n" + self.render() + "\n")
