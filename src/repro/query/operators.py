"""Streaming query operators (volcano-style iterators).

The paper's scan → push-down → decode → refine sequence (§V-G) is recast
as composable pull-based operators.  Each operator lazily consumes its
upstream iterator and yields its own output, so a terminal sink that stops
early (``Limit``, ``TopK``) terminates the whole chain — down to the
region scans — without materializing the remaining candidates at any
layer.  A :class:`~repro.query.pipeline.Pipeline` chains operators,
instruments every edge, and records per-stage rows/bytes/time into the
query's :class:`~repro.obs.profile.QueryProfile`.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence

from repro.geometry.distance import point_to_polyline_arrays
from repro.obs.profile import current_profile
from repro.kvstore.filters import Filter
from repro.kvstore.table import Table
from repro.model.trajectory import Trajectory
from repro.query.filters import INF, MISS, Ladder, SimilarityFilter
from repro.query.windows import coalesce_windows
from repro.runtime.deadline import Deadline
from repro.similarity.pruning import mbr_lower_bound
from repro.storage.serializer import RowSerializer

Row = tuple[bytes, bytes]

# Primary keys per SecondaryResolve batch: one Table.multi_get call (one
# request per region touched) each.
MULTI_GET_BATCH = 64


class Window(NamedTuple):
    """One key-range scan window (``None`` = unbounded side)."""

    start: Optional[bytes]
    stop: Optional[bytes]


class Operator:
    """One stage of a streaming query pipeline."""

    name = "operator"

    def process(self, upstream: Optional[Iterator[Any]]) -> Iterator[Any]:
        """Lazily consume ``upstream`` and yield this stage's output."""
        raise NotImplementedError


class WindowSource(Operator):
    """Source stage: emits the query's scan windows.

    The windows are sorted, de-duplicated, and merged where
    adjacent/overlapping before execution, so the N intervals a temporal
    query expands to collapse into as few scans as their contiguity
    allows.  The scanned key set is unchanged; emission order becomes
    the deterministic sorted order.
    """

    name = "windows"

    def __init__(
        self, windows: Sequence[tuple[Optional[bytes], Optional[bytes]]]
    ):
        self.windows = [
            Window(start, stop) for start, stop in coalesce_windows(windows)
        ]

    def process(self, upstream: Optional[Iterator[Any]]) -> Iterator[Window]:
        return iter(self.windows)


class RegionScan(Operator):
    """Streams rows of every window via the table's multi-range scheduler.

    When ``row_filter`` is set it is pushed down into the regions, so
    rejected rows count as scanned but are never transferred.  Windows
    scan concurrently on the cluster worker pool while rows are still
    emitted strictly in window order.
    """

    name = "region_scan"

    def __init__(
        self,
        table: Table,
        row_filter: Optional[Filter] = None,
        deadline: Optional[Deadline] = None,
    ):
        self.table = table
        self.row_filter = row_filter
        self.deadline = deadline

    def process(self, upstream: Iterator[Window]) -> Iterator[Row]:
        yield from self.table.multi_range_scan(
            ((start, stop) for start, stop in upstream),
            row_filter=self.row_filter,
            deadline=self.deadline,
        )


class PushDownFilter(Operator):
    """Client-side row filter, used when server push-down is disabled.

    The same predicate objects as the push-down path, evaluated after the
    rows crossed the wire — this is what the push-down ablation toggles.
    """

    name = "client_filter"

    def __init__(self, row_filter: Filter):
        self.row_filter = row_filter

    def process(self, upstream: Iterator[Row]) -> Iterator[Row]:
        for key, value in upstream:
            if self.row_filter.test(key, value):
                yield key, value


class SecondaryResolve(Operator):
    """Secondary route: scan mapping rows, then fetch the primary rows.

    Mapping windows run through the secondary table's region-parallel
    multi-range scheduler.  ``resolve(key, value)`` turns each mapping row
    into the primary key it points to (the table's
    :meth:`~repro.storage.schema.RowKeyCodec.primary_from_mapping`).
    Primary keys are de-duplicated across all windows in first-occurrence
    order and resolved in ``MULTI_GET_BATCH``-sized batches via
    :meth:`Table.multi_get`, so each batch costs one pool round-trip
    instead of ``batch`` point-gets.  ``row_filter`` (when set) is applied
    to the fetched primary rows client-side.
    """

    name = "secondary_resolve"

    def __init__(
        self,
        secondary: Table,
        primary: Table,
        resolve: Callable[[bytes, bytes], bytes],
        row_filter: Optional[Filter] = None,
        deadline: Optional[Deadline] = None,
    ):
        self.secondary = secondary
        self.primary = primary
        self.resolve = resolve
        self.row_filter = row_filter
        self.deadline = deadline

    def _resolve(self, pkeys: list[bytes]) -> Iterator[Row]:
        values = self.primary.multi_get(pkeys, deadline=self.deadline)
        for pkey, value in zip(pkeys, values):
            if value is None:
                continue
            if self.row_filter is not None and not self.row_filter.test(
                pkey, value
            ):
                continue
            yield pkey, value

    def process(self, upstream: Iterator[Window]) -> Iterator[Row]:
        seen: set[bytes] = set()
        pending: list[bytes] = []
        mapping_rows = self.secondary.multi_range_scan(
            ((start, stop) for start, stop in upstream),
            deadline=self.deadline,
        )
        resolve = self.resolve
        try:
            for key, value in mapping_rows:
                pkey = resolve(key, value)
                if pkey in seen:
                    continue
                seen.add(pkey)
                pending.append(pkey)
                if len(pending) >= MULTI_GET_BATCH:
                    yield from self._resolve(pending)
                    pending = []
        finally:
            mapping_rows.close()
        if pending:
            yield from self._resolve(pending)


class Decode(Operator):
    """Decompress rows into trajectories, de-duplicating by trajectory id."""

    name = "decode"

    def __init__(self, serializer: RowSerializer):
        self.serializer = serializer

    def process(self, upstream: Iterator[Row]) -> Iterator[Trajectory]:
        seen: set[str] = set()
        # Decode cost is accumulated locally and flushed once when the
        # stage closes, so profiling adds two clock reads per row, not a
        # locked profile update.
        profile = current_profile()
        decoded = 0
        decode_s = 0.0
        try:
            for _, value in upstream:
                t0 = perf_counter()
                stored = self.serializer.decode_trajectory(value)
                decode_s += perf_counter() - t0
                decoded += 1
                tid = stored.trajectory.tid
                if tid in seen:
                    continue
                seen.add(tid)
                yield stored.trajectory
        finally:
            if decoded and profile is not None:
                profile.add(decode_rows=decoded, decode_ms=decode_s * 1000.0)


class Refine(Operator):
    """Trajectory-level refinement predicate (any callable works)."""

    name = "refine"

    def __init__(self, predicate: Callable[[Trajectory], bool], label: str = "refine"):
        self.predicate = predicate
        self.name = label

    def process(self, upstream: Iterator[Trajectory]) -> Iterator[Trajectory]:
        for traj in upstream:
            if self.predicate(traj):
                yield traj

    @classmethod
    def exclude_tid(cls, tid: str) -> "Refine":
        """Drop the query trajectory itself from the result."""
        return cls(lambda t: t.tid != tid, "exclude_query")


class _RingRefine(Operator, Ladder):
    """Rungs feeding the ``TopK`` sink exact distances, pruned against its
    current k-th best distance (``bound``).

    Pruning against the bound is final (it only shrinks).  A round reads
    its rows first, keeping those whose O(1) header bound (``first_bound``)
    is within the bound, then walks them nearest first (arrival order breaks
    ties): the bound tightens on the likeliest rows before the rest reach a
    deeper rung, and the walk ends at the first row whose bound is past it.
    A trajectory is decided once: later ring rounds scan only new key
    ranges, and ``seen`` skips any other key of a trajectory already decided
    (the duplicates a re-encode leaves).  A partial deadline that expires
    while a round is still being read keeps the rounds before it.
    """

    kernel = True

    def __init__(self, serializer: RowSerializer, bound: Callable[[], float]):
        super().__init__()
        self.serializer = serializer
        self.bound = bound
        self.seen: set[str] = set()

    def first_bound(self, header) -> float:
        """An O(1) lower bound on the row's distance, from its header."""
        raise NotImplementedError

    def ranked(self, rows: Iterator[Row]) -> Iterator[tuple[float, str, Trajectory]]:
        bound = self.bound()
        order = []
        for n, (_, value) in enumerate(rows):
            lower = self.first_bound(RowSerializer.decode_header(value))
            if lower <= bound:
                order.append((lower, n, value))
        order.sort()
        for lower, _, value in order:
            bound = self.bound()
            if lower > bound:
                return
            kept = self.walk(value, bound, exact=True)
            if kept is not None:
                yield kept[0], kept[1].tid, kept[1]


class PointDistanceRefine(_RingRefine):
    """kNN-point rungs: header MBR → DP feature → exact polyline distance."""

    name = "knn_refine"

    def __init__(
        self,
        serializer: RowSerializer,
        x: float,
        y: float,
        bound: Callable[[], float],
    ):
        super().__init__(serializer, bound)
        self.x = x
        self.y = y

    def on_header(self, header):
        if header.tid in self.seen:
            return MISS
        self.seen.add(header.tid)
        return self.first_bound(header), INF

    def first_bound(self, header) -> float:
        return header.mbr.min_distance_point(self.x, self.y)

    def on_feature(self, header, feature):
        return feature.min_distance_to_point(self.x, self.y), INF

    def on_points(self, header, block) -> float:
        return point_to_polyline_arrays(self.x, self.y, block.xs, block.ys)

    def process(
        self, upstream: Iterator[Row]
    ) -> Iterator[tuple[float, str, Trajectory]]:
        return self.ranked(upstream)


class SimilarityRefine(_RingRefine):
    """Top-k similarity rungs: the threshold filter's header and feature
    lower bounds against the sink's bound, then the exact measure; the
    query trajectory itself is always skipped."""

    name = "similarity_refine"

    def __init__(
        self,
        serializer: RowSerializer,
        query: Trajectory,
        measure: str,
        bound: Callable[[], float],
    ):
        super().__init__(serializer, bound)
        self.query_tid = query.tid
        self.rungs = SimilarityFilter(query.block, 0.0, measure, serializer)

    def on_header(self, header):
        if header.tid == self.query_tid or header.tid in self.seen:
            return MISS
        self.seen.add(header.tid)
        return self.rungs.header_lower(header, self.bound()), INF

    def first_bound(self, header) -> float:
        return mbr_lower_bound(self.rungs.query_mbr, header.mbr)

    def on_feature(self, header, feature):
        # Ranking needs every distance exact: no DP upper bound.
        return self.rungs.feature_lower(feature, self.bound()), INF

    def on_points(self, header, block) -> float:
        return self.rungs.on_points(header, block)

    def process(
        self, upstream: Iterator[Row]
    ) -> Iterator[tuple[float, str, Trajectory]]:
        return self.ranked(upstream)


# -- terminal sinks ----------------------------------------------------------


class Sink:
    """Terminal pipeline stage: drives the iterators and produces a value."""

    name = "sink"

    def consume(self, upstream: Iterator[Any]) -> Any:
        """Pull the pipeline to completion (or early exit) and return."""
        raise NotImplementedError

    def result_size(self, value: Any) -> int:
        """How many items the sink's return value represents (for traces)."""
        return 0


class Collect(Sink):
    """Materialize every item into a list."""

    name = "collect"

    def consume(self, upstream: Iterator[Any]) -> list[Any]:
        return list(upstream)

    def result_size(self, value: list[Any]) -> int:
        return len(value)


class Limit(Sink):
    """Collect the first ``n`` items, then stop pulling.

    Because every upstream stage is lazy, the unread remainder is never
    scanned (beyond the read-ahead chunks of the region runs behind it).
    """

    name = "limit"

    def __init__(self, n: int):
        if n < 0:
            raise ValueError(f"negative limit: {n}")
        self.n = n

    def consume(self, upstream: Iterator[Any]) -> list[Any]:
        out: list[Any] = []
        if self.n == 0:
            return out
        for item in upstream:
            out.append(item)
            if len(out) >= self.n:
                break
        return out

    def result_size(self, value: list[Any]) -> int:
        return len(value)


class Count(Sink):
    """Count distinct trajectories without decoding a row: every access
    path yields primary ``(key, row)`` pairs, and ``tid_of_key`` parses the
    trajectory id from the key."""

    name = "count"

    def __init__(self, tid_of_key: Callable[[bytes], str]):
        self.tid_of_key = tid_of_key

    def consume(self, upstream: Iterator[Row]) -> int:
        return len({self.tid_of_key(key) for key, _ in upstream})

    def result_size(self, value: int) -> int:
        return value


class TopK(Sink):
    """Keep the ``k`` best ``(distance, tid, trajectory)`` items.

    The current k-th distance (``kth_bound``) feeds the refine operators'
    pruning; state persists across expanding-ring rounds.
    """

    name = "top_k"

    def __init__(self, k: int):
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self.k = k
        self.best: list[tuple[float, str, Trajectory]] = []

    def kth_bound(self) -> float:
        """The current k-th best distance (inf until k items are held)."""
        return self.best[self.k - 1][0] if len(self.best) >= self.k else float("inf")

    def consume(
        self, upstream: Iterator[tuple[float, str, Trajectory]]
    ) -> tuple[list[Trajectory], list[float]]:
        for d, tid, traj in upstream:
            self.best.append((d, tid, traj))
            self.best.sort(key=lambda item: (item[0], item[1]))
            del self.best[self.k :]
        return (
            [t for _, _, t in self.best],
            [d for d, _, _ in self.best],
        )

    def result_size(self, value: tuple[list[Trajectory], list[float]]) -> int:
        return len(value[0])
