"""Pipeline assembly and instrumented execution.

:class:`Pipeline` chains :mod:`repro.query.operators` stages in front of a
terminal sink, wrapping every edge with a counting/timing probe so the run
produces an :class:`~repro.kvstore.stats.ExecutionTrace` — per-stage
rows-in/rows-out, bytes, and self wall time.  :func:`build_pipeline` maps a
query descriptor plus the optimizer's :class:`~repro.query.planner.QueryPlan`
to the operator chain that executes it; every single-pass query type (range,
ID-temporal, threshold similarity, counts) is just a different assembly of
the same stages, and the iterative types (top-k similarity, kNN point) run
one pipeline round per expanding ring against a shared trace.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence

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
    PushDownFilter,
    Refine,
    RegionScan,
    SecondaryResolve,
    Sink,
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
    st_primary_windows,
)
from repro.runtime.deadline import Deadline, QueryTimeoutError

if TYPE_CHECKING:  # pragma: no cover - typing-only imports
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


def scan_stages(
    tman: "TMan",
    windows: Sequence[tuple[Optional[bytes], Optional[bytes]]],
    row_filter: Optional[Filter],
    deadline: Optional[Deadline] = None,
) -> list[Operator]:
    """Window source + primary region scan, honoring push-down config."""
    stages: list[Operator] = [WindowSource(windows)]
    if tman.config.push_down:
        stages.append(RegionScan(tman.primary_table, row_filter, deadline=deadline))
    else:
        stages.append(RegionScan(tman.primary_table, None, deadline=deadline))
        if row_filter is not None:
            stages.append(PushDownFilter(row_filter))
    return stages


def _secondary_stages(
    tman: "TMan",
    table_name: str,
    windows: Sequence[tuple[bytes, bytes]],
    row_filter: Optional[Filter],
    deadline: Optional[Deadline] = None,
) -> list[Operator]:
    """Window source + secondary resolve, honoring push-down config."""
    pushed = row_filter if tman.config.push_down else None
    stages: list[Operator] = [
        WindowSource(windows),
        SecondaryResolve(
            tman.secondary_tables[table_name],
            tman.primary_table,
            pushed,
            deadline=deadline,
        ),
    ]
    if row_filter is not None and pushed is None:
        stages.append(PushDownFilter(row_filter))
    return stages


def _tr_query_ranges(tman: "TMan", time_range) -> list[tuple[int, int]]:
    """TR planner intervals, coalesced.

    Algorithm 1 emits one inclusive interval per covering period, so
    contiguous periods produce ``hi + 1 == next lo`` chains that merge
    into a single scan range.
    """
    return coalesce_inclusive_ranges(tman.tr_index.query_ranges(time_range))


def _st_coarse_windows(tman: "TMan", tr_ranges) -> list[tuple[bytes, bytes]]:
    """ST-primary windows spanning each TR interval's whole TShape space."""
    from repro.core.st import STWindow

    return st_primary_windows(
        tman.keys, [STWindow(lo, hi, None) for lo, hi in tr_ranges]
    )


def _interval_stages(
    tman: "TMan",
    time_range,
    row_filter,
    deadline: Optional[Deadline] = None,
) -> list[Operator]:
    """Secondary route through the LIT-style interval index: two windows
    (one contiguous main-tier run + the long tier); the exact push-down
    temporal filter removes the tail false positives."""
    windows = secondary_windows_inclusive(
        tman.interval_index.query_ranges(time_range)
    )
    return _secondary_stages(tman, "interval", windows, row_filter, deadline)


def _trq_stages(
    tman: "TMan",
    query: TemporalRangeQuery,
    plan: "QueryPlan",
    deadline: Optional[Deadline] = None,
) -> tuple[list[Operator], bool]:
    row_filter = TemporalFilter(query.time_range)
    if plan.index == "interval":
        return _interval_stages(tman, query.time_range, row_filter, deadline), False
    tr_ranges = _tr_query_ranges(tman, query.time_range)
    if plan.route == "primary":
        if plan.index == "st":
            windows = _st_coarse_windows(tman, tr_ranges)
        else:
            windows = primary_windows_inclusive(tman.keys, tr_ranges)
        return scan_stages(tman, windows, row_filter, deadline), True
    if plan.route == "secondary":
        if plan.index == "st":
            # ST secondary keys are 16 bytes (TR prefix :: TShape); a pure
            # temporal query spans each TR interval's full TShape space.
            from repro.storage.schema import encode_u64

            windows = [
                (encode_u64(lo) + encode_u64(0), encode_u64(hi + 1) + encode_u64(0))
                for lo, hi in tr_ranges
            ]
            return _secondary_stages(tman, "st", windows, row_filter, deadline), False
        windows = secondary_windows_inclusive(tr_ranges)
        return _secondary_stages(tman, "tr", windows, row_filter, deadline), False
    return scan_stages(tman, [(None, None)], row_filter, deadline), False


def _srq_stages(
    tman: "TMan",
    query: SpatialRangeQuery,
    plan: "QueryPlan",
    deadline: Optional[Deadline] = None,
) -> tuple[list[Operator], bool]:
    value_ranges = tman.spatial_ranges(query.window)
    row_filter = SpatialFilter(query.window, tman.serializer)
    if plan.route == "primary":
        windows = primary_windows_u64(tman.keys, value_ranges)
        return scan_stages(tman, windows, row_filter, deadline), True
    if plan.route == "secondary":
        windows = [
            (lo.to_bytes(8, "big"), hi.to_bytes(8, "big")) for lo, hi in value_ranges
        ]
        return _secondary_stages(tman, "tshape", windows, row_filter, deadline), False
    return scan_stages(tman, [(None, None)], row_filter, deadline), False


def _strq_stages(
    tman: "TMan",
    query: STRangeQuery,
    plan: "QueryPlan",
    deadline: Optional[Deadline] = None,
) -> tuple[list[Operator], bool]:
    row_filter = TemporalFilter(query.time_range) & SpatialFilter(query.window, tman.serializer)
    if plan.index == "st" and plan.route == "primary":
        st_windows = tman.st_index.query_windows(
            query.time_range,
            query.window,
            shape_ranges=tman.spatial_ranges(query.window),
        )
        windows = st_primary_windows(tman.keys, st_windows)
        return scan_stages(tman, windows, row_filter, deadline), True
    if plan.index == "tshape":
        value_ranges = tman.spatial_ranges(query.window)
        if plan.route == "primary":
            windows = primary_windows_u64(tman.keys, value_ranges)
            return scan_stages(tman, windows, row_filter, deadline), True
        windows = [
            (lo.to_bytes(8, "big"), hi.to_bytes(8, "big")) for lo, hi in value_ranges
        ]
        return _secondary_stages(tman, "tshape", windows, row_filter, deadline), False
    if plan.index == "tr":
        tr_ranges = _tr_query_ranges(tman, query.time_range)
        if plan.route == "primary":
            windows = primary_windows_inclusive(tman.keys, tr_ranges)
            # The count path treats TR-primary STRQ like the fallback
            # routes (decode first), mirroring the pre-pipeline executor.
            return scan_stages(tman, windows, row_filter, deadline), False
        windows = secondary_windows_inclusive(tr_ranges)
        return _secondary_stages(tman, "tr", windows, row_filter, deadline), False
    if plan.index == "interval":
        return _interval_stages(tman, query.time_range, row_filter, deadline), False
    return scan_stages(tman, [(None, None)], row_filter, deadline), False


def _idt_stages(
    tman: "TMan",
    query: IDTemporalQuery,
    plan: "QueryPlan",
    deadline: Optional[Deadline] = None,
) -> tuple[list[Operator], bool]:
    row_filter = IdFilter(query.oid) & TemporalFilter(query.time_range)
    tr_ranges = _tr_query_ranges(tman, query.time_range)
    if plan.index == "idt":
        windows = [
            tman.keys.idt_window(query.oid, lo, hi) for lo, hi in tr_ranges
        ]
        return _secondary_stages(tman, "idt", windows, row_filter, deadline), False
    if plan.route == "primary" and plan.index in ("tr", "st"):
        if plan.index == "st":
            windows = _st_coarse_windows(tman, tr_ranges)
        else:
            windows = primary_windows_inclusive(tman.keys, tr_ranges)
        return scan_stages(tman, windows, row_filter, deadline), False
    if plan.route == "secondary" and plan.index == "tr":
        windows = secondary_windows_inclusive(tr_ranges)
        return _secondary_stages(tman, "tr", windows, row_filter, deadline), False
    if plan.index == "interval":
        return _interval_stages(tman, query.time_range, row_filter, deadline), False
    return scan_stages(tman, [(None, None)], row_filter, deadline), False


def _threshold_stages(
    tman: "TMan",
    query: ThresholdSimilarityQuery,
    plan: "QueryPlan",
    deadline: Optional[Deadline] = None,
) -> tuple[list[Operator], bool]:
    sim_filter = SimilarityFilter(
        query.query.points, query.threshold, query.measure, tman.serializer
    )
    # Global pruning: scan the threshold-expanded query MBR.
    value_ranges = tman.spatial_ranges(query.query.mbr.expanded(query.threshold))
    windows = primary_windows_u64(tman.keys, value_ranges)
    return scan_stages(tman, windows, sim_filter, deadline), False


def build_pipeline(
    tman: "TMan",
    query: Query,
    plan: "QueryPlan",
    trace: Optional[ExecutionTrace] = None,
    limit: Optional[int] = None,
    count: bool = False,
    deadline: Optional[Deadline] = None,
    guard: Optional[Operator] = None,
) -> Pipeline:
    """Assemble the streaming pipeline for a single-pass query.

    ``count=True`` swaps the terminal sink for a distinct-trajectory
    counter on the *same* stages — primary-route range counts skip the
    decode stage entirely and parse trajectory ids from rowkeys.
    ``limit`` installs an early-terminating sink instead of ``Collect``.
    ``guard`` (a :class:`~repro.query.operators.DivergenceGuard`) is
    inserted between the access path and the decode stage on non-count
    pipelines, where it watches the candidate stream for the adaptive
    re-planner.  The iterative query types (top-k similarity, kNN point)
    are driven round-by-round by the executor and cannot be assembled
    here.
    """
    post_decode: list[Operator] = []
    if isinstance(query, TemporalRangeQuery):
        stages, primary_rows = _trq_stages(tman, query, plan, deadline)
    elif isinstance(query, SpatialRangeQuery):
        stages, primary_rows = _srq_stages(tman, query, plan, deadline)
    elif isinstance(query, STRangeQuery):
        stages, primary_rows = _strq_stages(tman, query, plan, deadline)
    elif isinstance(query, IDTemporalQuery):
        stages, primary_rows = _idt_stages(tman, query, plan, deadline)
    elif isinstance(query, ThresholdSimilarityQuery):
        if count:
            raise TypeError(
                f"count is not supported for {type(query).__name__}"
            )
        stages, primary_rows = _threshold_stages(tman, query, plan, deadline)
        post_decode = [Refine.exclude_tid(query.query.tid)]
    else:
        raise TypeError(f"unknown query type: {type(query).__name__}")

    if count:
        if primary_rows:
            keys = tman.keys
            sink: Sink = Count(lambda key: keys.parse_primary(key).tid)
            return Pipeline(stages, sink, trace, plan, deadline)
        stages = stages + [Decode(tman.serializer)] + post_decode
        return Pipeline(stages, Count(), trace, plan, deadline)

    if guard is not None:
        stages = stages + [guard]
    stages = stages + [Decode(tman.serializer)] + post_decode
    sink = Collect() if limit is None else Limit(limit)
    return Pipeline(stages, sink, trace, plan, deadline)


def pipeline_stage_names(
    tman: "TMan", query: Any, plan: "QueryPlan"
) -> list[str]:
    """Static stage-name description for EXPLAIN (no windows computed)."""
    if isinstance(query, (TopKSimilarityQuery, KNNPointQuery)):
        refine = (
            "similarity_refine"
            if isinstance(query, TopKSimilarityQuery)
            else "knn_refine"
        )
        return ["windows", "region_scan", refine, "top_k"]
    names = ["windows"]
    secondary = plan.route == "secondary" or plan.index == "idt"
    names.append("secondary_resolve" if secondary else "region_scan")
    if not tman.config.push_down:
        names.append("client_filter")
    names.append("decode")
    if isinstance(query, ThresholdSimilarityQuery):
        names.append("exclude_query")
    names.append("collect")
    return names
