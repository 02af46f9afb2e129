"""The slow-query log: capture everything about queries over a threshold.

When a query's wall time crosses ``threshold_ms`` the executor hands the
log the full picture — the query descriptor (which carries the window /
time range / object id), the chosen plan, the candidate counts, and the
query profile's rendered stage table and summary line — so a tail
latency spike (the paper's Fig. 23 subject) can be diagnosed after the
fact without re-running anything.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class SlowQueryEntry:
    """One captured slow query."""

    query: str
    plan: str
    elapsed_ms: float
    candidates: int
    transferred_rows: int
    trace: str
    wall_time: float = field(default_factory=time.time)
    profile: Optional[dict] = None

    def render(self) -> str:
        """Multi-line human-readable rendering."""
        head = (
            f"[slow-query +{self.elapsed_ms:.1f} ms] plan={self.plan} "
            f"candidates={self.candidates} transferred={self.transferred_rows}"
        )
        lines = [head, f"  {self.query}", self.trace]
        if self.profile is not None:
            lines.append(f"  profile: {self.profile}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-ready rendering."""
        out = {
            "query": self.query,
            "plan": self.plan,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "candidates": self.candidates,
            "transferred_rows": self.transferred_rows,
            "trace": self.trace,
            "wall_time": self.wall_time,
        }
        if self.profile is not None:
            out["profile"] = self.profile
        return out


class SlowQueryLog:
    """Bounded, thread-safe log of queries slower than a threshold.

    ``threshold_ms=None`` disables capture entirely (the default for
    library use); set a threshold with :meth:`set_threshold` or at
    construction.  ``dropped`` counts entries evicted by the ring buffer.
    """

    def __init__(self, threshold_ms: Optional[float] = None, capacity: int = 128):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.threshold_ms = threshold_ms
        self._entries: deque[SlowQueryEntry] = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self.dropped = 0

    def set_threshold(self, threshold_ms: Optional[float]) -> None:
        """Change the capture threshold (``None`` disables)."""
        self.threshold_ms = threshold_ms

    def maybe_record(
        self,
        query: str,
        plan: str,
        elapsed_ms: float,
        candidates: int = 0,
        transferred_rows: int = 0,
        trace: str = "",
        profile: Optional[dict] = None,
    ) -> bool:
        """Record the query when it crosses the threshold; returns whether it did."""
        threshold = self.threshold_ms
        if threshold is None or elapsed_ms < threshold:
            return False
        entry = SlowQueryEntry(
            query=query,
            plan=plan,
            elapsed_ms=elapsed_ms,
            candidates=candidates,
            transferred_rows=transferred_rows,
            trace=trace,
            profile=profile,
        )
        with self._lock:
            if len(self._entries) == self._entries.maxlen:
                self.dropped += 1
            self._entries.append(entry)
        return True

    def entries(self) -> list[SlowQueryEntry]:
        """Captured entries, oldest first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every captured entry."""
        with self._lock:
            self._entries.clear()
            self.dropped = 0

    def __len__(self) -> int:
        return len(self._entries)


# The process-wide slow-query log, ``repro.obs.slow_query_log()``.
SLOW_QUERY_LOG = SlowQueryLog()
