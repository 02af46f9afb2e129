"""Outside-in span tracing: wrappers around the public entry points of each layer.

Nothing under ``src/`` is edited.  :func:`install` monkeypatches a fixed
list of callables (``TARGETS`` below) with wrappers that, while
``Tracer.on`` is true, time each call and charge it to a layer.  A layer
is a ``src/repro`` package; a span name is ``<layer>.<what>``.

Three wrapper kinds keep the cost proportional to what is learned:

- ``span``  — one record per call (name, layer, start, end, parent span,
  op id, thread) in ``Tracer.spans``;
- ``leaf``  — per-row hot paths (filters, header decode, cache lookups):
  timed and counted but not recorded, or a 300 ms query would emit 50 000
  spans;
- ``iter``  — calls that return an iterator: the time spent inside each
  ``next()`` is charged, and one summary record is written when the
  iterator ends.

Self time is a call's duration minus the calls nested inside it on the
same thread.  The query thread's self times per layer plus the op's own
self time (``unattributed``) sum to the op's wall time by construction.
Calls on pool threads are *busy* time for their layer; the query thread
meanwhile sits in a ``kvstore`` stream wrapper, which is its *wait*.
A target that no longer exists (renamed by a later change) is skipped
and listed in ``Tracer.missing`` rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from time import perf_counter
from typing import Any, Callable, Optional

SPAN, LEAF, ITER = "span", "leaf", "iter"


class Tracer:
    """Span store plus the per-op accumulators the layer metrics read."""

    def __init__(self) -> None:
        self.on = False
        self.spans: list[dict] = []
        self.ops: list[dict] = []
        self.missing: list[str] = []
        # Calls made outside any op (bulk load during set-up).
        self.outside = _new_acc()
        self.samples: dict[str, list[float]] = {}
        self._op: Optional[dict] = None
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._next_span = 0
        self._patches: list[tuple[Any, str, Any]] = []

    # -- op scope ------------------------------------------------------------

    def begin_op(self, index: int, kind: str) -> None:
        """Open the root span of one benchmark operation on this thread."""
        op = _new_acc()
        op.update(index=index, kind=kind, thread=threading.get_ident())
        op["span_id"] = self._new_span_id()
        self._op = op
        self._tls.stack = [["op." + kind, "op", 0.0, 0.0, op["span_id"]]]
        self._tls.stack[0][2] = perf_counter()

    def end_op(self) -> dict:
        """Close the root span; returns the finished op record."""
        t1 = perf_counter()
        root = self._tls.stack.pop()
        op = self._op
        self._op = None
        op["wall_s"] = t1 - root[2]
        op["unattributed_s"] = op["wall_s"] - root[3]
        self.spans.append(
            {
                "id": op["span_id"], "parent": None, "name": root[0],
                "layer": "op", "op": op["index"], "thread": op["thread"],
                "t0": root[2], "t1": t1,
            }
        )
        self.ops.append(op)
        return op

    # -- frame bookkeeping ---------------------------------------------------

    def _new_span_id(self) -> int:
        with self._lock:
            self._next_span += 1
            return self._next_span

    def _stack(self) -> list:
        try:
            return self._tls.stack
        except AttributeError:
            stack = self._tls.stack = []
            return stack

    def _enter(self, name: str, layer: str, span_id: Optional[int] = None):
        stack = self._stack()
        if span_id is None:
            # A leaf passes its nearest recorded ancestor down as the parent.
            span_id = stack[-1][4] if stack else None
        frame = [name, layer, 0.0, 0.0, span_id]
        stack.append(frame)
        frame[2] = perf_counter()
        return stack, frame

    def _exit(self, stack, frame, guard=False, counts=None, record=False):
        """Pop ``frame`` and charge its time; returns its duration."""
        t1 = perf_counter()
        stack.pop()
        dur = t1 - frame[2]
        if stack:
            stack[-1][3] += dur
        name = frame[0]
        nested = guard and any(f[0] == name for f in stack)
        op = self._op
        acc = op if op is not None else self.outside
        with self._lock:
            entry = acc["names"].get(name)
            if entry is None:
                entry = acc["names"][name] = [0, 0.0, 0.0]
            entry[2] += dur - frame[3]
            if not nested:
                entry[0] += 1
                entry[1] += dur
                if counts:
                    tally = acc["counts"]
                    for key, value in counts.items():
                        tally[key] = tally.get(key, 0) + value
            on_query_thread = op is not None and threading.get_ident() == op["thread"]
            side = acc["self"] if on_query_thread or op is None else acc["busy"]
            side[frame[1]] = side.get(frame[1], 0.0) + dur - frame[3]
            if record:
                parent = stack[-1][4] if stack else (op["span_id"] if op else None)
                self.spans.append(
                    {
                        "id": frame[4], "parent": parent, "name": name,
                        "layer": frame[1], "op": op["index"] if op else None,
                        "thread": threading.get_ident(), "t0": frame[2], "t1": t1,
                    }
                )
        return dur

    # -- wrapper factories ---------------------------------------------------

    def wrap_call(self, fn, name, layer, kind, guard=False, count=None, sample=None,
                  within=None):
        """A timed stand-in for ``fn`` (``kind`` is ``SPAN`` or ``LEAF``).

        ``within=(span name, key)`` also tallies ``key`` for each call made
        while a span of that name is open on the same thread.
        """
        tracer = self
        record = kind == SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            stack, frame = tracer._enter(
                name, layer, tracer._new_span_id() if record else None
            )
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                counts = count(args, kwargs, out) if count is not None else None
                if within is not None and any(f[0] == within[0] for f in stack[:-1]):
                    counts = {**(counts or {}), within[1]: 1}
                dur = tracer._exit(stack, frame, guard, counts, record)
                if sample is not None:
                    key = sample(args)
                    if key is not None:
                        tracer.samples.setdefault(key, []).append(dur * 1000.0)

        return traced

    def wrap_iter(self, fn, name, layer):
        """A stand-in for an iterator-returning ``fn`` charging ``next()`` time."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            if not tracer.on:
                return it
            return _TracedIter(tracer, it, name, layer)

        return traced

    # -- patching ------------------------------------------------------------

    def patch_attr(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)``; notes it when absent."""
        raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        static = isinstance(raw, staticmethod)
        original = raw.__func__ if static else raw
        wrapped = make(original)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)

    def patch_function(self, module: str, attr: str, make: Callable[[Any], Any]) -> None:
        """Patch a module-level function wherever ``repro`` imported it by name."""
        try:
            original = getattr(importlib.import_module(module), attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def patch_dict(self, mapping: dict, key: str, make: Callable[[Any], Any]) -> None:
        """Replace one entry of a public registry dict."""
        original = mapping[key]
        self._patches.append((mapping, key, original))
        mapping[key] = make(original)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


def _new_acc() -> dict:
    # names: span name -> [outermost calls, inclusive s, self s]
    return {"names": {}, "counts": {}, "self": {}, "busy": {}}


class _TracedIter:
    """Iterator proxy charging the time spent inside ``next()``."""

    __slots__ = ("_tracer", "_it", "_name", "_layer", "_id", "_parent", "_op",
                 "_t0", "_t1", "_busy", "_items", "_done")

    def __init__(self, tracer: Tracer, it, name: str, layer: str):
        self._tracer = tracer
        self._it = iter(it)
        self._name = name
        self._layer = layer
        self._id = tracer._new_span_id()
        stack = tracer._stack()
        op = tracer._op
        self._parent = stack[-1][4] if stack else (op["span_id"] if op else None)
        self._op = op["index"] if op else None
        self._t0 = self._t1 = 0.0
        self._busy = 0.0
        self._items = 0
        self._done = False

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        stack, frame = tracer._enter(self._name, self._layer, self._id)
        if not self._t0:
            self._t0 = frame[2]
        try:
            item = next(self._it)
            self._items += 1
            return item
        except StopIteration:
            self._finish()
            raise
        finally:
            self._busy += tracer._exit(stack, frame, guard=True)
            self._t1 = perf_counter()

    def _finish(self) -> None:
        if self._done or not self._t0:
            self._done = True
            return
        self._done = True
        tracer = self._tracer
        with tracer._lock:
            tracer.spans.append(
                {
                    "id": self._id, "parent": self._parent, "name": self._name,
                    "layer": self._layer, "op": self._op,
                    "thread": threading.get_ident(), "t0": self._t0,
                    "t1": self._t1, "busy_s": self._busy, "items": self._items,
                }
            )

    def close(self) -> None:
        close = getattr(self._it, "close", None)
        if callable(close):
            close()
        self._finish()


# -- the wrapper list ----------------------------------------------------------
#
# (module, class or None, attribute, span name, kind, options).  The layer is
# the span name's prefix.  ``guard`` marks names that nest inside themselves
# (a FilterChain calling its member filters): only the outermost call counts
# towards calls/inclusive time, so nothing is double counted.


def _len_out(key):
    return lambda args, kwargs, out: {key: len(out)} if out is not None else None


def _filter_counts(args, kwargs, out):
    return {"filter_evals": 1, "filter_pass": 1 if out else 0}


def _coalesce_counts(args, kwargs, out):
    if out is None or not hasattr(args[0], "__len__"):
        return None
    return {"coalesce_in": len(args[0]), "coalesce_out": len(out)}


def _decode_counts(args, kwargs, out):
    return {"decode_points": len(out.trajectory)} if out is not None else None


def _codec_encode_counts(args, kwargs, out):
    if out is None:
        return None
    return {"codec_points_in": len(args[1]), "codec_bytes_out": len(out)}


def _codec_decode_counts(args, kwargs, out):
    if out is None:
        return None
    return {"codec_points_out": len(out[0]) if isinstance(out, tuple) else len(out)}


def _rpc_counts(args, kwargs, out):
    from repro.cluster import rpc

    op = args[1]
    counts = {"rpc_calls": 1}
    if op == rpc.OP_SCAN_PAGE:
        counts["scan_pages"] = 1
    elif op in (rpc.OP_PUT, rpc.OP_PUT_BATCH):
        counts["put_rpcs"] = 1
    return counts


def _rpc_sample(args):
    from repro.cluster import rpc

    if args[1] == rpc.OP_SCAN_PAGE:
        return "cluster.scan_page_ms"
    if args[1] in (rpc.OP_PUT, rpc.OP_PUT_BATCH):
        return "cluster.put_ms"
    return None


_FILTERS = [
    ("repro.query.filters", c, "test", "query.filter", LEAF,
     {"guard": True, "count": _filter_counts})
    for c in ("TemporalFilter", "IdFilter", "SpatialFilter", "SimilarityFilter")
] + [
    ("repro.kvstore.filters", c, "test", "query.filter", LEAF,
     {"guard": True, "count": _filter_counts})
    for c in ("FilterChain", "PrefixFilter", "KeyRangeFilter")
]

TARGETS: list[tuple] = [
    # query: planner, window-key helpers, pipeline operators and sinks
    ("repro.query.planner", "QueryPlanner", "plan", "query.plan", SPAN, {"guard": True}),
    ("repro.query.planner", "QueryPlanner", "candidate_plans", "query.plan", SPAN,
     {"guard": True}),
    # The planner asks for one estimate per plan it costs.
    ("repro.query.planner", "QueryPlanner", "estimate_candidates", "query.estimate",
     SPAN, {"within": ("query.plan", "plans_costed")}),
    ("repro.query.windows", None, "coalesce_windows", "query.coalesce", SPAN,
     {"count": _coalesce_counts}),
    ("repro.query.windows", None, "coalesce_inclusive_ranges", "query.coalesce", SPAN,
     {"count": _coalesce_counts}),
    ("repro.query.windows", None, "primary_windows_u64", "query.window_keys", LEAF, {}),
    ("repro.query.windows", None, "primary_windows_inclusive", "query.window_keys",
     LEAF, {}),
    ("repro.query.windows", None, "secondary_windows_u64", "query.window_keys", LEAF, {}),
    ("repro.query.windows", None, "secondary_windows_inclusive", "query.window_keys",
     LEAF, {}),
    ("repro.query.windows", None, "st_primary_windows", "query.window_keys", LEAF, {}),
    ("repro.query.operators", "RegionScan", "process", "query.op_scan", ITER, {}),
    ("repro.query.operators", "SecondaryResolve", "process", "query.op_scan", ITER, {}),
    ("repro.query.operators", "PushDownFilter", "process", "query.op_scan", ITER, {}),
    ("repro.query.operators", "Decode", "process", "query.op_refine", ITER, {}),
    ("repro.query.operators", "Refine", "process", "query.op_refine", ITER, {}),
    ("repro.query.operators", "SimilarityRefine", "process", "query.op_refine", ITER, {}),
    ("repro.query.operators", "PointDistanceRefine", "process", "query.op_refine",
     ITER, {}),
    ("repro.query.operators", "Collect", "consume", "query.sink", SPAN, {}),
    ("repro.query.operators", "Limit", "consume", "query.sink", SPAN, {}),
    ("repro.query.operators", "Count", "consume", "query.sink", SPAN, {}),
    ("repro.query.operators", "TopK", "consume", "query.sink", SPAN, {}),
    *_FILTERS,
    # core: window generation and the index_value encoders
    ("repro.core.tshape", "TShapeIndex", "query_ranges", "core.windowgen", SPAN,
     {"guard": True, "count": _len_out("windows")}),
    ("repro.core.temporal", "TRIndex", "query_ranges", "core.windowgen", SPAN,
     {"guard": True, "count": _len_out("windows")}),
    ("repro.core.interval", "IntervalIndex", "query_ranges", "core.windowgen", SPAN,
     {"guard": True, "count": _len_out("windows")}),
    ("repro.core.idt", "IDTIndex", "query_ranges", "core.windowgen", SPAN,
     {"guard": True, "count": _len_out("windows")}),
    ("repro.core.st", "STIndex", "query_windows", "core.windowgen", SPAN,
     {"guard": True, "count": _len_out("windows")}),
    ("repro.core.tshape", "TShapeIndex", "index_trajectory", "core.encode", LEAF, {}),
    ("repro.core.tshape", "TShapeIndex", "index_value", "core.encode", LEAF, {}),
    ("repro.core.temporal", "TRIndex", "index_time_range", "core.encode", LEAF, {}),
    ("repro.core.interval", "IntervalIndex", "index_time_range", "core.encode", LEAF, {}),
    # cache
    ("repro.cache.index_cache", "ShapeIndexCache", "get_mapping", "cache.get_mapping",
     LEAF, {}),
    ("repro.cache.index_cache", "ShapeIndexCache", "put_mapping", "cache.update", LEAF, {}),
    ("repro.cache.index_cache", "ShapeIndexCache", "add_shape", "cache.update", LEAF, {}),
    # kvstore: table streams (the query thread's wait), region work (busy), writes
    ("repro.kvstore.table", "Table", "multi_range_scan", "kvstore.multi_range_scan",
     ITER, {}),
    ("repro.kvstore.table", "Table", "parallel_scan", "kvstore.parallel_scan", ITER, {}),
    ("repro.kvstore.table", "Table", "scan", "kvstore.table_scan", ITER, {}),
    ("repro.kvstore.scheduler", None, "scan_scheduled", "kvstore.scan_scheduled", ITER, {}),
    ("repro.kvstore.table", "Table", "multi_get", "kvstore.multi_get", SPAN, {}),
    ("repro.kvstore.table", "Table", "get", "kvstore.table_get", LEAF, {}),
    ("repro.kvstore.table", "Table", "put", "kvstore.put", LEAF, {}),
    ("repro.kvstore.table", "Table", "delete", "kvstore.delete", LEAF, {}),
    ("repro.kvstore.table", "Table", "flush", "kvstore.table_flush", SPAN, {}),
    ("repro.kvstore.region", "Region", "execute_scan", "kvstore.region_scan", ITER, {}),
    ("repro.kvstore.region", "Region", "get_batch", "kvstore.region_get", SPAN, {}),
    ("repro.kvstore.region", "Region", "get", "kvstore.region_get", LEAF, {}),
    ("repro.kvstore.lsm", "LSMStore", "flush", "kvstore.flush", SPAN, {}),
    ("repro.kvstore.lsm", "LSMStore", "compact", "kvstore.compact", SPAN, {}),
    ("repro.kvstore.durable", "DurableLSMStore", "flush", "kvstore.flush", SPAN, {}),
    ("repro.kvstore.durable", "DurableLSMStore", "compact", "kvstore.compact", SPAN, {}),
    # cluster: one span per RPC; frame byte counts come from _install_wire_counters
    ("repro.cluster.client", "NodeClient", "call", "cluster.rpc", SPAN,
     {"count": _rpc_counts, "sample": _rpc_sample}),
    # storage
    ("repro.storage.serializer", "RowSerializer", "encode", "storage.encode", LEAF, {}),
    ("repro.storage.serializer", "RowSerializer", "decode", "storage.decode", LEAF,
     {"guard": True, "count": _decode_counts}),
    ("repro.storage.serializer", "RowSerializer", "decode_trajectory", "storage.decode",
     LEAF, {"guard": True, "count": _decode_counts}),
    ("repro.storage.serializer", "RowSerializer", "decode_header", "storage.header",
     LEAF, {}),
    ("repro.storage.serializer", "RowSerializer", "decode_feature", "storage.feature",
     LEAF, {}),
    ("repro.storage.writer", "StorageWriter", "bulk_load", "storage.bulk_load", SPAN, {}),
    ("repro.storage.writer", "StorageWriter", "insert", "storage.insert", SPAN, {}),
    ("repro.storage.writer", "StorageWriter", "delete", "storage.delete", SPAN, {}),
    # compression
    ("repro.compression.traj_codec", "TrajectoryCodec", "encode_points",
     "compression.encode", LEAF, {"count": _codec_encode_counts}),
    ("repro.compression.traj_codec", "TrajectoryCodec", "decode_points",
     "compression.decode", LEAF, {"count": _codec_decode_counts}),
    ("repro.compression.traj_codec", "TrajectoryCodec", "decode_array_block",
     "compression.decode", LEAF, {"count": _codec_decode_counts}),
    # similarity: exact kernels and the pruning bounds
    ("repro.similarity.frechet", None, "frechet_distance", "similarity.kernel", LEAF, {}),
    ("repro.similarity.dtw", None, "dtw_distance", "similarity.kernel", LEAF, {}),
    ("repro.similarity.hausdorff", None, "hausdorff_distance", "similarity.kernel",
     LEAF, {}),
    ("repro.geometry.distance", None, "point_to_polyline_arrays", "similarity.kernel",
     LEAF, {}),
    ("repro.similarity.pruning", None, "mbr_lower_bound", "similarity.prune", LEAF, {}),
    ("repro.similarity.pruning", None, "dp_lower_bound", "similarity.prune", LEAF, {}),
    ("repro.similarity.pruning", None, "dp_upper_bound", "similarity.prune", LEAF, {}),
    ("repro.geometry.dp", "DPFeature", "min_distance_to_point", "similarity.prune",
     LEAF, {}),
    # obs: the program's own per-query bookkeeping
    ("repro.obs.stats", "WorkloadStatsCollector", "record", "obs.record", LEAF, {}),
    ("repro.obs.stats", "WorkloadStatsCollector", "record_estimate", "obs.record",
     LEAF, {}),
    ("repro.obs.profile", "ProfileLog", "record", "obs.record", LEAF, {}),
]


class _CountingSocket:
    """Socket proxy counting the bytes one RPC frame moves."""

    __slots__ = ("_sock", "moved")

    def __init__(self, sock):
        self._sock = sock
        self.moved = 0

    def sendall(self, data):
        self.moved += len(data)
        return self._sock.sendall(data)

    def recv(self, n):
        chunk = self._sock.recv(n)
        self.moved += len(chunk)
        return chunk


def _install_wire_counters(tracer: Tracer) -> None:
    """Wrap the rpc framing functions so each frame reports its byte count."""

    def make(fn):
        @functools.wraps(fn)
        def traced(sock, *args, **kwargs):
            if not tracer.on:
                return fn(sock, *args, **kwargs)
            proxy = _CountingSocket(sock)
            stack, frame = tracer._enter("cluster.frame", "cluster")
            try:
                return fn(proxy, *args, **kwargs)
            finally:
                tracer._exit(stack, frame, counts={"wire_bytes": proxy.moved})

        return traced

    for attr in ("send_request", "recv_response"):
        tracer.patch_function("repro.cluster.rpc", attr, make)


def install() -> Tracer:
    """Patch every target and return the (switched-off) tracer."""
    import repro.storage.tman  # noqa: F401 - pulls in every layer before patching

    tracer = Tracer()
    for module, cls_name, attr, name, kind, opts in TARGETS:
        layer = name.split(".", 1)[0]

        def make(fn, name=name, layer=layer, kind=kind, opts=opts):
            if kind == ITER:
                return tracer.wrap_iter(fn, name, layer)
            return tracer.wrap_call(fn, name, layer, kind, **opts)

        if cls_name is None:
            tracer.patch_function(module, attr, make)
            continue
        try:
            owner = getattr(importlib.import_module(module), cls_name)
        except (ImportError, AttributeError):
            tracer.missing.append(f"{module}.{cls_name}.{attr}")
            continue
        tracer.patch_attr(owner, attr, make)
    from repro.similarity import measures

    for key in list(measures.DISTANCES):
        tracer.patch_dict(
            measures.DISTANCES,
            key,
            lambda fn: tracer.wrap_call(fn, "similarity.kernel", "similarity", LEAF),
        )
    _install_wire_counters(tracer)
    return tracer
