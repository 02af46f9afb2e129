"""Per-query resource attribution.

A :class:`QueryProfile` is a thread-safe accumulator that attributes I/O,
cache, decode, similarity-kernel, retry, admission, and stall costs to one
individual query — the per-query complement of the process-wide
:class:`~repro.obs.metrics.MetricsRegistry`.  The active profile travels
with the query through a :class:`contextvars.ContextVar`:

- ``TMan.query`` / ``TMan.count`` (or the executor, when called directly)
  open the query's profile with :func:`query_profile`, which reuses an
  already-active one; the storage writer opens a fresh one per write batch
  with :func:`profile_scope`;
- deep layers (region scans, block cache, retry backoff, memtable
  watermarks, ...) look the current profile up with
  :func:`current_profile` and attribute into it;
- thread pools do **not** propagate context vars, so the scan scheduler
  and ``Table.multi_get`` capture the submitting thread's profile and
  re-activate it on the worker via :func:`run_with_profile`.

The I/O counters use the same field names as
:class:`repro.kvstore.scan.StatsSnapshot` and are fed from the single
``IOStats.add`` chokepoint, so a query's attributed totals reconcile
exactly with the process-wide snapshot deltas when queries run serially —
and stay exact per call when they overlap, which the process-wide deltas
do not.  ``QueryResult`` counters and ``WriteReport`` backpressure fields
are read off the call's profile.

A query's profile is also its pipeline record: each
:class:`~repro.query.pipeline.Pipeline` run adds one round — its start and
per-stage rows in / out, bytes and self time — to the active profile, so
``result.profile.render()`` explains where the candidates were pruned and
:func:`repro.obs.export.chrome_trace` lays the query out as a flame chart.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from collections.abc import Callable, Iterator, Sequence

TYPE_CHECKING = False
if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.runtime.deadline import Deadline

_PROFILE: ContextVar[QueryProfile | None] = ContextVar(
    "repro_query_profile", default=None
)

_QUERY_IDS = itertools.count(1)

# Counter fields mirroring StatsSnapshot (fed from IOStats.add).
IO_FIELDS = (
    "rows_scanned",
    "rows_returned",
    "range_scans",
    "bytes_transferred",
    "block_reads",
    "filter_evals",
    "bloom_rejects",
    "point_gets",
)

# Attribution beyond raw storage I/O.
EXTRA_COUNT_FIELDS = (
    "block_cache_hits",
    "block_cache_misses",
    "index_cache_hits",
    "index_cache_misses",
    "decode_rows",
    "similarity_rows",
    "retries",
    "rpc_failures",
    "throttled_writes",
    "stalled_writes",
    "rejected_writes",
)

TIME_FIELDS = (
    "decode_ms",
    "similarity_ms",
    "retry_backoff_ms",
    "admission_wait_ms",
    "stall_ms",
    "write_stall_ms",
)

_ALL_FIELDS = IO_FIELDS + EXTRA_COUNT_FIELDS + TIME_FIELDS


def current_profile() -> QueryProfile | None:
    """The profile of the query running on this thread, or ``None``."""
    return _PROFILE.get()


@contextmanager
def profile_scope(profile: QueryProfile | None) -> Iterator[QueryProfile | None]:
    """Install ``profile`` as the current profile for the ``with`` body."""
    token = _PROFILE.set(profile)
    try:
        yield profile
    finally:
        _PROFILE.reset(token)


@contextmanager
def query_profile(query_type: str = "") -> Iterator["QueryProfile"]:
    """The active profile, or a fresh one installed for the ``with`` body.

    Nested calls (``TMan.query`` → executor, or a caller's own scope)
    attribute into the outermost profile.
    """
    active = _PROFILE.get()
    if active is not None:
        yield active
        return
    with profile_scope(QueryProfile(query_type)) as profile:
        yield profile


def run_with_profile(profile: QueryProfile | None, fn: Callable, *args, **kwargs):
    """Call ``fn`` with ``profile`` active — the worker-thread handoff.

    ``ThreadPoolExecutor.submit`` does not propagate context vars, so pool
    entry points capture ``current_profile()`` at submit time and wrap the
    task in this helper.
    """
    if profile is None:
        return fn(*args, **kwargs)
    token = _PROFILE.set(profile)
    try:
        return fn(*args, **kwargs)
    finally:
        _PROFILE.reset(token)


# (stage name, rows in, rows out, bytes out, self ms): one operator's share
# of one pipeline run.
Stage = tuple[str, int, int, int, float]


class StageRecord:
    """One operator's accounting, summed over a query's pipeline runs.

    ``rows_in``/``rows_out`` are the items that crossed the operator's input
    and output edges; ``bytes_out`` sums key+value sizes for row-shaped
    output (zero for decoded-trajectory stages); ``wall_ms`` is the
    operator's *self* time — time spent producing its output minus time
    spent waiting on its upstream.
    """

    __slots__ = ("name", "rows_in", "rows_out", "bytes_out", "wall_ms")

    def __init__(self, name: str):
        self.name = name
        self.rows_in = 0
        self.rows_out = 0
        self.bytes_out = 0
        self.wall_ms = 0.0

    def __repr__(self) -> str:
        return f"StageRecord({self.name}: {self.rows_in}->{self.rows_out})"


class QueryProfile:
    """Resource accounting for one query, shared across its worker threads.

    Counter semantics:

    - ``rows_scanned`` .. ``point_gets`` mirror
      :class:`~repro.kvstore.scan.StatsSnapshot` — rows/bytes/blocks the
      storage layer touched on this query's behalf (including from scan-
      scheduler worker threads);
    - ``block_cache_hits/misses`` and ``index_cache_hits/misses`` split
      block and shape-index lookups;
    - ``decode_rows``/``decode_ms`` cover row → trajectory decoding,
      ``similarity_rows``/``similarity_ms`` the exact distance kernels;
    - ``rpc_failures`` counts transient failures, ``retries``/
      ``retry_backoff_ms`` the recovery cost, ``admission_wait_ms`` time
      queued before execution, and ``stall_ms`` consumer time blocked
      waiting on scan-scheduler prefetch;
    - ``throttled_writes``/``stalled_writes``/``rejected_writes``/
      ``write_stall_ms`` are the memtable watermarks' toll on a write batch.

    The pipeline record: ``rounds`` counts pipeline runs (one per
    expanding ring for top-k / kNN); each keeps its ``perf_counter`` start
    and one ``(name, rows_in, rows_out, bytes_out, wall_ms)`` tuple per
    operator (:attr:`round_records`).  :attr:`stages` is the view that
    merges them stage by stage into one :class:`StageRecord` per operator
    in pipeline order (``"decode" in p``, ``p["decode"].rows_in``).
    ``started`` is the ``perf_counter`` instant the executor began the
    query (``None`` until it finishes one).  ``deadline_ms`` /
    ``deadline_remaining_ms`` are the query's budget and what was left of
    it at the end (``None`` without a deadline).  ``estimated_candidates``
    is the prior the planner costed the query's plan with, to compare with
    :attr:`candidates` (``None`` for a forced plan or without statistics).
    """

    __slots__ = ("query_id", "query_type", "plan", "started", "elapsed_ms",
                 "partial", "rounds", "deadline_ms", "deadline_remaining_ms",
                 "estimated_candidates", "_rounds", "_lock") + tuple(_ALL_FIELDS)

    def __init__(self, query_type: str = "", plan: str = ""):
        self.query_id = f"q{next(_QUERY_IDS):06d}"
        self.query_type = query_type
        self.plan = plan
        self.started: float | None = None
        self.elapsed_ms = 0.0
        self.partial = False
        self.rounds = 0
        self.deadline_ms: float | None = None
        self.deadline_remaining_ms: float | None = None
        self.estimated_candidates: float | None = None
        self._rounds: list[tuple[float, tuple[Stage, ...]]] = []
        self._lock = threading.Lock()
        for name in _ALL_FIELDS:
            setattr(self, name, 0 if name not in TIME_FIELDS else 0.0)

    # -- attribution (any thread) --------------------------------------------

    def add(self, **deltas) -> None:
        """Accumulate attributed cost, e.g. ``profile.add(decode_rows=8)``.

        Unknown fields raise ``AttributeError`` — attribution sites and the
        profile schema must agree.
        """
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)

    def add_round(self, started: float, stages: Sequence[Stage]) -> None:
        """Record one pipeline run: its ``perf_counter`` start and
        ``(name, rows_in, rows_out, bytes_out, wall_ms)`` per operator, in
        pipeline order."""
        record = (started, tuple(stages))
        with self._lock:
            self.rounds += 1
            self._rounds.append(record)

    # -- lifecycle -----------------------------------------------------------

    def finish(
        self,
        elapsed_ms: float,
        query_type: str = "",
        plan: str = "",
        deadline: Deadline | None = None,
        started: float | None = None,
        estimated_candidates: float | None = None,
    ) -> "QueryProfile":
        """Stamp identity, start + wall time once the query completes, the
        planner's estimate, and the query's ``deadline``: its budget, what
        is left of it, and whether it truncated the result."""
        self.elapsed_ms = elapsed_ms
        self.estimated_candidates = estimated_candidates
        if started is not None:
            self.started = started
        if query_type:
            self.query_type = query_type
        if plan:
            self.plan = plan
        if deadline is not None:
            self.deadline_ms = deadline.budget_ms
            self.deadline_remaining_ms = round(deadline.remaining_ms(), 3)
            self.partial = deadline.partial
        return self

    def slim_copy(self) -> QueryProfile:
        """A copy of the identity and counters without the round records."""
        copy = QueryProfile.__new__(QueryProfile)
        with self._lock:
            for name in self.__slots__:
                if not name.startswith("_"):
                    setattr(copy, name, getattr(self, name))
        copy._rounds = []
        copy._lock = threading.Lock()
        return copy

    # -- read side -----------------------------------------------------------

    @property
    def round_records(self) -> tuple[tuple[float, tuple[Stage, ...]], ...]:
        """``(start, stages)`` per pipeline run, in the order they ran."""
        with self._lock:
            return tuple(self._rounds)

    @property
    def stages(self) -> tuple[StageRecord, ...]:
        """The stage records in pipeline order, rounds merged stage by stage."""
        merged: dict[str, StageRecord] = {}
        for _, stages in self.round_records:
            for name, rows_in, rows_out, bytes_out, wall_ms in stages:
                stage = merged.get(name) or merged.setdefault(name, StageRecord(name))
                stage.rows_in += rows_in
                stage.rows_out += rows_out
                stage.bytes_out += bytes_out
                stage.wall_ms += wall_ms
        return tuple(merged.values())

    def __contains__(self, name: str) -> bool:
        return any(s.name == name for s in self.stages)

    def __getitem__(self, name: str) -> StageRecord:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(name)

    @property
    def candidates(self) -> int:
        """Rows scanned plus point gets: the paper's retrieval count."""
        return self.rows_scanned + self.point_gets

    @property
    def attributed_ms(self) -> float:
        """Sum of the attributed time components (not wall time)."""
        return (self.decode_ms + self.similarity_ms + self.retry_backoff_ms
                + self.admission_wait_ms + self.stall_ms + self.write_stall_ms)

    def as_dict(self) -> dict:
        """JSON-friendly dump of every attributed counter and stage."""
        with self._lock:
            out = {
                "query_id": self.query_id,
                "query_type": self.query_type,
                "plan": self.plan,
                "elapsed_ms": round(self.elapsed_ms, 4),
                "partial": self.partial,
                "deadline_ms": self.deadline_ms,
                "deadline_remaining_ms": self.deadline_remaining_ms,
                "estimated_candidates": self.estimated_candidates,
            }
            for name in _ALL_FIELDS:
                value = getattr(self, name)
                out[name] = round(value, 4) if name in TIME_FIELDS else value
            out["rounds"] = self.rounds
        out["stages"] = [
            {
                "name": s.name,
                "rows_in": s.rows_in,
                "rows_out": s.rows_out,
                "bytes_out": s.bytes_out,
                "wall_ms": round(s.wall_ms, 4),
            }
            for s in self.stages
        ]
        return out

    def render(self) -> str:
        """The stage table (EXPLAIN ANALYZE style), then :meth:`summary`."""
        header = f"{'stage':<20}{'rows_in':>10}{'rows_out':>10}{'bytes':>12}{'ms':>10}"
        lines = [header, "-" * len(header)]
        for s in self.stages:
            lines.append(
                f"{s.name:<20}{s.rows_in:>10}{s.rows_out:>10}"
                f"{s.bytes_out:>12}{s.wall_ms:>10.3f}"
            )
        lines.append(self.summary())
        return "\n".join(lines)

    def summary(self) -> str:
        """Compact one-line rendering (the last line of :meth:`render`)."""
        parts = [
            f"id={self.query_id}",
            f"rows={self.rows_scanned}/{self.rows_returned}",
            f"bytes={self.bytes_transferred}",
            f"windows={self.range_scans}",
            f"blocks={self.block_reads}",
            f"bcache={self.block_cache_hits}h/{self.block_cache_misses}m",
            f"icache={self.index_cache_hits}h/{self.index_cache_misses}m",
            f"decode={self.decode_ms:.2f}ms/{self.decode_rows}",
            f"sim={self.similarity_ms:.2f}ms",
        ]
        if self.retries:
            parts.append(f"retries={self.retries}({self.retry_backoff_ms:.1f}ms)")
        if self.rpc_failures:
            parts.append(f"rpc_failures={self.rpc_failures}")
        if self.deadline_ms is not None:
            parts.append(
                f"deadline={self.deadline_ms}ms({self.deadline_remaining_ms}ms left)"
            )
        if self.partial:
            parts.append("partial")
        if self.admission_wait_ms:
            parts.append(f"adm_wait={self.admission_wait_ms:.1f}ms")
        if self.stall_ms:
            parts.append(f"stall={self.stall_ms:.1f}ms")
        return " ".join(parts)

    def __repr__(self) -> str:
        return (f"QueryProfile({self.query_id} {self.query_type or '?'} "
                f"rows={self.rows_scanned} elapsed={self.elapsed_ms:.2f}ms)")


class BoundedLog:
    """A bounded, thread-safe ring, oldest entry first; ``dropped`` counts
    the entries it evicted."""

    def __init__(self, capacity: int = 256):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._lock = threading.Lock()
        self._entries: deque = deque(maxlen=capacity)
        self.dropped = 0

    def _append(self, entry) -> None:
        with self._lock:
            if len(self._entries) == self._entries.maxlen:
                self.dropped += 1
            self._entries.append(entry)

    def entries(self) -> list:
        """A copy of the ring, newest last."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()
            self.dropped = 0

    def __len__(self) -> int:
        return len(self._entries)


class ProfileLog(BoundedLog):
    """Bounded ring of recently finished profiles (the ``repro top`` feed).

    It keeps slim copies: the counters its readers rank and fit, not the
    round records, which stay on the caller's profile.
    """

    def record(self, profile: QueryProfile) -> None:
        """Append a slim copy of a finished profile."""
        self._append(profile.slim_copy())

    def top(self, n: int = 5) -> list[QueryProfile]:
        """The ``n`` most expensive recent queries by wall time."""
        return sorted(self.entries(), key=lambda p: p.elapsed_ms, reverse=True)[:n]
