"""Pipeline assembly and instrumented execution.

:class:`Pipeline` chains :mod:`repro.query.operators` stages in front of a
terminal sink, wrapping every edge with a counting/timing probe so the run
produces an :class:`~repro.kvstore.stats.ExecutionTrace` — per-stage
rows-in/rows-out, bytes, and self wall time.  A plan's ``(index, route)``
maps to one access path (:func:`key_windows`, :func:`access_path`): the
table it reads and its key windows.  :func:`build_pipeline` puts a single-pass
query's row filter and decode stage around it (range, ID-temporal, threshold
similarity, counts); the iterative types (top-k similarity, kNN point) run
one :func:`ring_pipeline` round per expanding ring against a shared trace.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence, Union

from repro.core.st import STWindow
from repro.kvstore.filters import Filter
from repro.kvstore.stats import ExecutionTrace
from repro.obs import (
    counter as _obs_counter,
    histogram as _obs_histogram,
    tracer as _obs_tracer,
)
from repro.query.filters import (
    IdFilter,
    Ladder,
    SimilarityFilter,
    SpatialFilter,
    TemporalFilter,
)
from repro.query.operators import (
    Collect,
    Count,
    Decode,
    Limit,
    Operator,
    PointDistanceRefine,
    PushDownFilter,
    Refine,
    RegionScan,
    SecondaryResolve,
    SimilarityRefine,
    Sink,
    TopK,
    WindowSource,
)
from repro.query.types import (
    IDTemporalQuery,
    KNNPointQuery,
    Query,
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
    ThresholdSimilarityQuery,
    TopKSimilarityQuery,
)
from repro.query.windows import (
    coalesce_inclusive_ranges,
    primary_windows_inclusive,
    primary_windows_u64,
    secondary_windows_inclusive,
    secondary_windows_u64,
    st_primary_windows,
)
from repro.runtime.deadline import Deadline, QueryTimeoutError
from repro.storage.schema import encode_u64

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
    from repro.model.mbr import MBR
    from repro.model.timerange import TimeRange
    from repro.query.planner import QueryPlan
    from repro.storage.tman import TMan

_STAGE_MS = _obs_histogram(
    "pipeline_stage_ms",
    "Per-stage self time of one pipeline round",
    labelnames=("stage",),
)
_STAGE_ROWS = _obs_counter(
    "pipeline_stage_rows_total",
    "Rows emitted by each pipeline stage",
    labelnames=("stage",),
)


class _Edge:
    """Instrumented edge between two pipeline stages.

    Counts items and row bytes crossing the edge and accumulates the
    cumulative time spent producing them (this stage plus everything
    upstream); the pipeline converts cumulative times into per-stage self
    times when the run finishes.
    """

    __slots__ = ("_it", "count", "bytes", "elapsed")

    def __init__(self, it: Iterator[Any]):
        self._it = it
        self.count = 0
        self.bytes = 0
        self.elapsed = 0.0

    def __iter__(self) -> "_Edge":
        return self

    def __next__(self) -> Any:
        t0 = time.perf_counter()
        try:
            item = next(self._it)
        finally:
            self.elapsed += time.perf_counter() - t0
        self.count += 1
        # Raw (key, value) rows report payload bytes; windows are emitted
        # as a tuple subclass and decoded trajectories aren't byte-sized.
        if type(item) is tuple and len(item) == 2:
            key, value = item
            if isinstance(key, (bytes, bytearray)) and isinstance(
                value, (bytes, bytearray)
            ):
                self.bytes += len(key) + len(value)
        return item

    def close(self) -> None:
        close = getattr(self._it, "close", None)
        if callable(close):
            close()


class _DeadlineGuard:
    """Deadline enforcement at the sink's edge of the stream.

    The deep layers (region scans, the chunk scheduler, retries) always
    *raise* on expiry; this guard — the last stop before the sink — is
    the single place that decides what expiry means for the query.  In
    ``allow_partial`` mode both a pre-pull expiry check and a
    :class:`~repro.runtime.deadline.QueryTimeoutError` bubbling up from
    below become a clean end of stream (and the deadline is marked
    partial), so every existing sink works unchanged; otherwise the
    error propagates to the caller.
    """

    __slots__ = ("_it", "_deadline")

    def __init__(self, it: Iterator[Any], deadline: Deadline):
        self._it = it
        self._deadline = deadline

    def __iter__(self) -> "_DeadlineGuard":
        return self

    def __next__(self) -> Any:
        deadline = self._deadline
        if deadline.expired():
            if deadline.allow_partial:
                deadline.note_partial()
                raise StopIteration
            deadline.check("pipeline")
        try:
            return next(self._it)
        except QueryTimeoutError:
            if deadline.allow_partial:
                deadline.note_partial()
                raise StopIteration from None
            raise


class Pipeline:
    """An assembled operator chain plus its terminal sink."""

    def __init__(
        self,
        stages: Sequence[Operator],
        sink: Sink,
        trace: Optional[ExecutionTrace] = None,
        plan: Optional["QueryPlan"] = None,
        deadline: Optional[Deadline] = None,
    ):
        self.stages = list(stages)
        self.sink = sink
        self.trace = trace if trace is not None else ExecutionTrace()
        self.plan = plan
        self.deadline = deadline

    def describe(self) -> str:
        """``index/route: stage -> stage -> sink`` (EXPLAIN string)."""
        names = [op.name for op in self.stages] + [self.sink.name]
        prefix = f"{self.plan.index}/{self.plan.route}: " if self.plan else ""
        return prefix + " -> ".join(names)

    def run(self) -> Any:
        """Drive the sink over the instrumented chain; returns its value.

        Stage statistics merge into the pipeline's trace even when the sink
        terminates early; iterative queries call ``run`` repeatedly with a
        shared trace and accumulate round by round.
        """
        trace = self.trace
        trace.rounds += 1
        edges: list[_Edge] = []
        stream: Optional[Iterator[Any]] = None
        for op in self.stages:
            edge = _Edge(op.process(stream))
            edges.append(edge)
            stream = edge
        sink_stream: Iterator[Any] = stream if stream is not None else iter(())
        if self.deadline is not None:
            sink_stream = _DeadlineGuard(sink_stream, self.deadline)
        tracer = _obs_tracer()
        with tracer.span("pipeline.run", pipeline=self.describe()) as span:
            t0 = time.perf_counter()
            try:
                value = self.sink.consume(sink_stream)
            finally:
                total_ms = (time.perf_counter() - t0) * 1000.0
                # Close top-down so abandoned generators (early-terminating
                # sinks) release their region streams deterministically.
                for edge in reversed(edges):
                    edge.close()
                # No pool thread walks rows for this round's ladders any more:
                # add the decodes and kernels they tallied to the profile.
                for op in self.stages:
                    for ladder in (op, getattr(op, "row_filter", None)):
                        if isinstance(ladder, Ladder):
                            ladder.flush()
                # (stage name, this round's self time, rows out) — the trace
                # accumulates across rounds, the observability hooks below
                # want per-round values.
                round_stages: list[tuple[str, float, int]] = []
                prev: Optional[_Edge] = None
                for op, edge in zip(self.stages, edges):
                    stats = trace.stage(op.name)
                    if prev is not None:
                        stats.rows_in += prev.count
                    stats.rows_out += edge.count
                    stats.bytes_out += edge.bytes
                    upstream_s = prev.elapsed if prev is not None else 0.0
                    stage_ms = max(0.0, (edge.elapsed - upstream_s) * 1000.0)
                    stats.wall_ms += stage_ms
                    round_stages.append((op.name, stage_ms, edge.count))
                    prev = edge
                sink_stats = trace.stage(self.sink.name)
                if prev is not None:
                    sink_stats.rows_in += prev.count
                    sink_ms = max(0.0, total_ms - prev.elapsed * 1000.0)
                else:
                    sink_ms = total_ms
                sink_stats.wall_ms += sink_ms
                round_stages.append((self.sink.name, sink_ms, 0))
                if _STAGE_MS._registry.enabled:
                    # Stage spans are laid out back-to-back inside the
                    # pipeline span: a self-time flame chart, not a true
                    # timeline (volcano stages interleave row by row).
                    cursor = t0
                    for name, stage_ms, rows in round_stages:
                        _STAGE_MS.labels(stage=name).observe(stage_ms)
                        if rows:
                            _STAGE_ROWS.labels(stage=name).inc(rows)
                        if span is not None:
                            tracer.add_span(
                                f"stage.{name}",
                                cursor,
                                stage_ms / 1000.0,
                                parent_id=span.span_id,
                            )
                        cursor += stage_ms / 1000.0
        trace.stage(self.sink.name).rows_out += self.sink.result_size(value)
        return value




# -- assembly ---------------------------------------------------------------


def key_windows(
    tman: "TMan",
    plan: "QueryPlan",
    *,
    time_range: Optional[TimeRange] = None,
    window: Optional[MBR] = None,
    oid: Optional[str] = None,
    ring_ranges: Optional[Sequence[tuple[int, int]]] = None,
) -> list[tuple[Optional[bytes], Optional[bytes]]]:
    """The key windows a plan reads on its table (primary or the index's
    secondary table): the one map from ``(index, route)`` to windows.

    TShape ranges come from the search ``window`` (half-open, Algorithm 2),
    or, for a ring round, as inclusive ``ring_ranges``.  The temporal
    indexes read the TR intervals of ``time_range`` (the IDT index within
    ``oid``); the ST primary reads fine windows when there is a search
    window, and otherwise, like the ST secondary, each TR interval's whole
    TShape space.
    """
    index, route = plan.index, plan.route
    primary = route == "primary"
    keys = tman.keys
    if route == "scan":
        return [(None, None)]
    if index == "tshape":
        if ring_ranges is not None:
            if primary:
                return primary_windows_inclusive(keys, ring_ranges)
            return secondary_windows_inclusive(ring_ranges)
        ranges = tman.spatial_ranges(window)
        if primary:
            return primary_windows_u64(keys, ranges)
        return secondary_windows_u64(ranges)
    if index == "interval":
        # One contiguous main-tier run plus the long tier; the exact
        # temporal filter removes the tail's false positives.
        return secondary_windows_inclusive(
            tman.interval_index.query_ranges(time_range)
        )
    if index == "st" and primary and window is not None:
        st_windows = tman.st_index.query_windows(
            time_range, window, shape_ranges=tman.spatial_ranges(window)
        )
        return st_primary_windows(keys, st_windows)
    # Algorithm 1 emits one interval per covering period; contiguous
    # periods merge into one scan range.
    tr_ranges = coalesce_inclusive_ranges(tman.tr_index.query_ranges(time_range))
    if index == "idt":
        return [keys.idt_window(oid, lo, hi) for lo, hi in tr_ranges]
    if index == "tr":
        if primary:
            return primary_windows_inclusive(keys, tr_ranges)
        return secondary_windows_inclusive(tr_ranges)
    if index == "st":
        if primary:
            return st_primary_windows(
                keys, [STWindow(lo, hi, None) for lo, hi in tr_ranges]
            )
        return [
            (encode_u64(lo) + encode_u64(0), encode_u64(hi + 1) + encode_u64(0))
            for lo, hi in tr_ranges
        ]
    raise ValueError(f"no access path for {index}/{route}")


def access_path(
    tman: "TMan",
    plan: "QueryPlan",
    row_filter: Optional[Filter] = None,
    deadline: Optional[Deadline] = None,
    **search: Any,
) -> list[Operator]:
    """The plan's access path over its :func:`key_windows` (``search``).

    ``WindowSource`` → ``RegionScan`` on the primary table, or
    ``WindowSource`` → ``SecondaryResolve`` through the index's secondary
    table.  Either yields primary ``(key, row)`` pairs.  ``row_filter`` is
    pushed down into the scan or the resolve, or runs client-side as a
    ``PushDownFilter`` when push-down is off.
    """
    pushed = row_filter if tman.config.push_down else None
    if plan.route == "secondary":
        scan: Operator = SecondaryResolve(
            tman.secondary_tables[plan.index],
            tman.primary_table,
            pushed,
            deadline=deadline,
        )
    else:
        scan = RegionScan(tman.primary_table, pushed, deadline=deadline)
    stages = [WindowSource(key_windows(tman, plan, **search)), scan]
    if row_filter is not None and pushed is None:
        stages.append(PushDownFilter(row_filter))
    return stages


def build_pipeline(
    tman: "TMan",
    query: Query,
    plan: "QueryPlan",
    trace: Optional[ExecutionTrace] = None,
    limit: Optional[int] = None,
    count: bool = False,
    deadline: Optional[Deadline] = None,
) -> Pipeline:
    """Assemble the streaming pipeline for a single-pass query.

    A query type supplies only its row filter and what it searches (time
    range, window, object id); the plan's :func:`access_path` does the
    rest.  ``count=True`` ends the same access path in a distinct-trajectory
    counter that parses ids from the primary keys, so a count decodes no
    row.  ``limit`` installs an early-terminating sink instead of
    ``Collect``.  The iterative query types (top-k similarity, kNN point)
    run one :func:`ring_pipeline` per expanding ring instead.
    """
    post_decode: list[Operator] = []
    if isinstance(query, TemporalRangeQuery):
        row_filter: Filter = TemporalFilter(query.time_range)
        search: dict[str, Any] = {"time_range": query.time_range}
    elif isinstance(query, SpatialRangeQuery):
        row_filter = SpatialFilter(query.window, tman.serializer)
        search = {"window": query.window}
    elif isinstance(query, STRangeQuery):
        row_filter = TemporalFilter(query.time_range) & SpatialFilter(
            query.window, tman.serializer
        )
        search = {"time_range": query.time_range, "window": query.window}
    elif isinstance(query, IDTemporalQuery):
        row_filter = IdFilter(query.oid) & TemporalFilter(query.time_range)
        search = {"time_range": query.time_range, "oid": query.oid}
    elif isinstance(query, ThresholdSimilarityQuery):
        row_filter = SimilarityFilter(
            query.query.points, query.threshold, query.measure, tman.serializer
        )
        # Global pruning: search the threshold-expanded query MBR.
        search = {"window": query.query.mbr.expanded(query.threshold)}
        post_decode = [Refine.exclude_tid(query.query.tid)]
    else:
        raise TypeError(f"unknown query type: {type(query).__name__}")

    stages = access_path(tman, plan, row_filter, deadline, **search)
    if count:
        keys = tman.keys
        sink: Sink = Count(lambda key: keys.parse_primary(key).tid)
    else:
        stages += [Decode(tman.serializer)] + post_decode
        sink = Collect() if limit is None else Limit(limit)
    return Pipeline(stages, sink, trace, plan, deadline)


def ring_operators(
    tman: "TMan", query: Union[TopKSimilarityQuery, KNNPointQuery]
) -> tuple[Operator, TopK]:
    """The refine stage and top-k sink an iterative query's rounds share."""
    sink = TopK(query.k)
    if isinstance(query, KNNPointQuery):
        refine: Operator = PointDistanceRefine(
            tman.serializer, query.x, query.y, sink.kth_bound
        )
    else:
        refine = SimilarityRefine(
            tman.serializer, query.query, query.measure, sink.kth_bound
        )
    return refine, sink


def ring_pipeline(
    tman: "TMan",
    plan: "QueryPlan",
    refine: Operator,
    sink: TopK,
    ring_ranges: Optional[Sequence[tuple[int, int]]],
    trace: Optional[ExecutionTrace] = None,
    deadline: Optional[Deadline] = None,
) -> Pipeline:
    """One expanding-ring round: the plan's access path over the inclusive
    TShape ``ring_ranges`` (a scan plan reads the whole table), then the
    shared refine stage and top-k sink."""
    stages = access_path(tman, plan, None, deadline, ring_ranges=ring_ranges)
    return Pipeline(stages + [refine], sink, trace, plan, deadline)
