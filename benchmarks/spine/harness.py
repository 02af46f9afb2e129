"""One benchmark run: generate, set up, warm up, time, verify, report.

A closed loop with one client: this process's main thread issues one API
call at a time.  The program's own ``kv_workers=2`` pool and worker
processes are part of the system under test; the coordinator process is
kept on one CPU and the workers on the others (:func:`place_on_cpus`).  Every
timing is raw wall time; noise is handled by replaying the stream in identical
passes and keeping each query's (and each round's) fastest pass, never by
rescaling.  End-to-end numbers come from an untraced run; ``trace=True`` is a
separate kind of run that installs the wrappers of
:mod:`benchmarks.spine.tracing`, alternates traced and untraced rounds (so the
tracer's own cost is measured inside the same process) and reports the
per-layer metrics instead.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from benchmarks.spine import layers
from benchmarks.spine.catalog import PER_LAYER, end_to_end_for
from benchmarks.spine.oracle import TOL, Oracle
from benchmarks.spine.workloads import (
    QUERY_KINDS,
    Op,
    Sizes,
    Streams,
    Workload,
    build,
    durable_cluster,
    config_for,
    execute,
    make_streams,
)

ROOT = Path(__file__).resolve().parents[2]
# Scratch space lives inside the checkout (never /tmp) and is addressed
# relative to the working directory: unix-socket paths are capped at ~100
# bytes, and a relative path stays short wherever the checkout sits.
WORK_ROOT = ROOT / ".spine_work"
SIMILARITY_CHECKS = 5  # oracle-checked queries per similarity type
BYTES_PER_POINT_RAW = 24  # t, lng, lat as float64


@dataclass
class OpRecord:
    """One stream position: its latencies per pass and its last answer."""

    op: Op
    round: int
    ms: list[float] = field(default_factory=list)  # wall time of each pass
    answer: object = None
    error: Optional[str] = None
    unstable: bool = False  # a replayed pass returned a different answer


@dataclass
class RunResult:
    workload: str
    # name -> (value, unit): the end-to-end metrics of this workload (untraced
    # run) or every per-layer metric (traced run)
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    diagnostics: dict
    spans: Optional[list] = None


def calibration_ms() -> float:
    """A fixed numpy + pure-Python loop: how fast is the box right now?

    Reported before and after the timed phase as a diagnostic; never used
    to rescale a metric.
    """
    t0 = time.perf_counter()
    a = np.arange(200_000, dtype=np.float64)
    for _ in range(10):
        float(np.sqrt(a * a + 1.0).sum())
    total = 0
    for i in range(200_000):
        total += i * i
    return (time.perf_counter() - t0) * 1000.0


def place_on_cpus(worker_pids: list[int]) -> None:
    """This process on one CPU, the worker processes on the others.

    On the 2-vCPU guest this was written on, a thread wake-up that crosses
    vCPUs costs far more than one that does not, and how much more comes and
    goes with the host's load: the scan scheduler's hand-offs between pool
    threads and the query thread made the same SRQ take 35 ms in one process
    and 73 ms in the next (README, "Host noise").  Under the GIL the
    coordinator's threads cannot run Python side by side anyway, so it gets
    one CPU; the workers get the rest, and coordinator and workers still run
    in parallel.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    allowed = os.sched_getaffinity(0)
    own = {max(allowed)}
    for task in os.listdir("/proc/self/task"):
        os.sched_setaffinity(int(task), own)
    for pid in worker_pids:
        # Connection threads a worker starts later inherit from these.
        for task in os.listdir(f"/proc/{pid}/task"):
            os.sched_setaffinity(int(task), allowed - own or allowed)


def percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)
    return ordered[rank]


def _answer(op: Op, result) -> object:
    """The comparable part of a query result."""
    if op.kind in ("topk", "knn"):
        return tuple((t.tid, float(d)) for t, d in zip(result.trajectories, result.distances))
    return tuple(sorted(t.tid for t in result.trajectories))


def _tree_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _worker_pids(tman) -> list[int]:
    """The worker processes of a process-mode deployment (else none)."""
    health = tman.health().get("cluster")
    return [node["pid"] for node in (health or {}).get("nodes", {}).values()]


def _worker_rss_mb(tman) -> float:
    """Sum of the worker processes' peak RSS."""
    total = 0.0
    for pid in _worker_pids(tman):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total += float(line.split()[1]) / 1024.0
    return total


class Run:
    """State of one invocation; ``execute()`` returns the :class:`RunResult`."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool,
                 profile: str):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.profile = profile
        self.sizes: Sizes = workload.sizes(profile, seconds)
        self.work_dir = Path(os.path.relpath(WORK_ROOT / f"run-{os.getpid()}"))
        self.tman = None
        self.cluster = None
        self.tracer = None
        self.records: list[OpRecord] = []
        self.write_reports: list = []
        self.round_walls: dict[int, dict[bool, list[float]]] = {}

    # -- lifecycle -------------------------------------------------------------

    def execute(self) -> RunResult:
        try:
            return self._run()
        finally:
            self._close()
            if self.tracer is not None:
                self.tracer.uninstall()
            shutil.rmtree(self.work_dir, ignore_errors=True)
            try:
                WORK_ROOT.rmdir()  # only when no concurrent run is using it
            except OSError:
                pass

    def _close(self) -> None:
        tman, cluster, self.tman, self.cluster = self.tman, self.cluster, None, None
        if tman is not None:
            tman.close()
        if cluster is not None:
            cluster.close()

    # -- phases ----------------------------------------------------------------

    def _setup(self, streams: Streams) -> tuple[list[tuple[float, float, float]], object]:
        """Build + bulk_load + flush, ``setups`` times; keeps the last one.

        Returns each repetition's (start, loaded-from, end) instants and the
        last bulk-load report.  Only the kept deployment of a traced run is
        loaded with the tracer on, so its write-path spans describe the data
        the queries then read.
        """
        setups = 1 if self.trace else self.sizes.setups
        spans, report = [], None
        for i in range(setups):
            self._close()
            deploy_dir = self.work_dir / f"d{i}"
            deploy_dir.mkdir(parents=True)
            t0 = time.perf_counter()
            self.tman, self.cluster = build(self.w, deploy_dir)
            place_on_cpus(_worker_pids(self.tman))
            t1 = time.perf_counter()
            if self.tracer is not None:
                self.tracer.on = True
            try:
                report = self.tman.bulk_load(streams.base)
                self.tman.flush()
            finally:
                if self.tracer is not None:
                    self.tracer.on = False
            spans.append((t0, t1, time.perf_counter()))
            if i + 1 < setups:
                self._close()
                shutil.rmtree(deploy_dir, ignore_errors=True)
        return spans, report

    def _issue(self, record: OpRecord, traced: bool) -> None:
        """Time one op; keep its latency, answer and any exception."""
        op = record.op
        tracer = self.tracer
        if traced:
            tracer.on = True
            tracer.begin_op(len(tracer.ops), op.kind)
        t0 = time.perf_counter()
        try:
            result = execute(self.tman, op)
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            record.error = f"{type(exc).__name__}: {exc}"
            return
        finally:
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            if traced:
                traced_op = tracer.end_op()
                tracer.on = False
        record.ms.append(elapsed_ms)
        if op.kind in QUERY_KINDS:
            answer = _answer(op, result)
            if record.answer is not None and answer != record.answer:
                record.unstable = True
            record.answer = answer
            if traced:
                traced_op["result_bytes"] = BYTES_PER_POINT_RAW * sum(
                    len(t) for t in result.trajectories
                )
                traced_op["candidates"] = result.candidates
                traced_op["rounds"] = result.trace.rounds if result.trace else 0
        elif op.kind == "insert":
            self.write_reports.append(result)
            record.answer = len(op.args[0])
        else:
            record.answer = bool(result)

    def _timed_phase(self, streams: Streams) -> None:
        """Run the stream ``passes`` times, start to end.

        The work is fixed by the sizes, not by the clock, so two commits
        execute the same calls.  Fills ``records`` and ``round_walls``.
        """
        rounds = streams.rounds
        self.records = [OpRecord(op, r) for r, ops in enumerate(rounds) for op in ops]
        by_round: list[list[OpRecord]] = [[] for _ in rounds]
        for record in self.records:
            by_round[record.round].append(record)
        for passes in range(self.sizes.passes):
            for r, recs in enumerate(by_round):
                # Traced runs alternate traced/untraced rounds; on the next
                # pass the parity flips, so each round is seen both ways.
                traced = self.trace and (r + passes) % 2 == 0
                t0 = time.perf_counter()
                for record in recs:
                    self._issue(record, traced)
                wall = time.perf_counter() - t0
                self.round_walls.setdefault(r, {}).setdefault(traced, []).append(wall)

    def _trace_overhead_share(self) -> float:
        """Traced round wall / untraced round wall - 1.

        Uses the rounds that ran both ways when a second pass provides
        them, else compares the means of the two interleaved halves.
        """
        paired = [w for w in self.round_walls.values() if True in w and False in w]
        if paired:
            on = sum(min(w[True]) for w in paired)
            off = sum(min(w[False]) for w in paired)
        else:
            on_all = [t for w in self.round_walls.values() for t in w.get(True, ())]
            off_all = [t for w in self.round_walls.values() for t in w.get(False, ())]
            if not on_all or not off_all:
                return 0.0
            on, off = statistics.mean(on_all), statistics.mean(off_all)
        return on / off - 1.0 if off else 0.0

    # -- verification ------------------------------------------------------------

    def _verify(self, streams: Streams) -> tuple[int, int, list[str]]:
        """Check every executed op against the oracle, in stream order."""
        oracle = Oracle(streams.universe, live=streams.base)
        attempted = failed = 0
        notes: list[str] = []
        checked: dict[str, int] = {}

        def fail(record: OpRecord, why: str) -> None:
            nonlocal failed
            failed += 1
            if len(notes) < 20:
                notes.append(f"round {record.round} {record.op.kind}: {why}")

        for record in self.records:
            attempted += len(record.ms) + (1 if record.error else 0)
            op = record.op
            if op.kind == "insert":
                oracle.insert(op.args[0])
            elif op.kind == "delete":
                oracle.delete(op.args[0])
            if record.error is not None:
                fail(record, record.error)
                continue
            if record.unstable:
                fail(record, "answer changed between passes")
                continue
            why = self._check(oracle, record, checked)
            if why:
                fail(record, why)
        self.oracle = oracle
        return attempted, failed, notes

    def _check(self, oracle: Oracle, record: OpRecord, checked: dict) -> Optional[str]:
        op, answer = record.op, record.answer
        kind = op.kind
        if kind == "insert":
            return None
        if kind == "delete":
            return None if answer else "delete of a live trajectory returned False"
        if kind in ("trq", "srq", "strq", "idt", "threshold"):
            if kind == "threshold":
                if checked.get(kind, 0) >= SIMILARITY_CHECKS:
                    return None
                checked[kind] = checked.get(kind, 0) + 1
            must, may = getattr(oracle, kind)(*op.args)
            got = set(answer)
            if len(got) != len(answer):
                return "duplicate trajectory ids"
            if not must <= got:
                return f"missing {sorted(must - got)[:3]}"
            if not got <= may:
                return f"unexpected {sorted(got - may)[:3]}"
            return None
        # topk / knn: (tid, distance) pairs in ascending distance
        if checked.get(kind, 0) >= SIMILARITY_CHECKS:
            return None
        checked[kind] = checked.get(kind, 0) + 1
        if kind == "topk":
            query, k = op.args
            kth, available = oracle.topk_kth(query, k)
            exact = [oracle.frechet_to(query, tid) for tid, _ in answer]
            if any(tid == query.tid for tid, _ in answer):
                return "top-k returned the query trajectory"
        else:
            x, y, k = op.args
            kth, available = oracle.knn_kth(x, y, k)
            exact = [oracle.point_distance(x, y, tid) for tid, _ in answer]
        tids = [tid for tid, _ in answer]
        live = oracle.live_tids()
        if len(answer) != min(k, available) or len(set(tids)) != len(tids):
            return f"expected {min(k, available)} distinct results, got {len(answer)}"
        if not set(tids) <= live:
            return "returned a trajectory that is not live"
        if any(abs(e - d) > TOL for e, (_, d) in zip(exact, answer)):
            return "reported distance differs from the recomputed one"
        if exact and max(exact) > kth + TOL:
            return f"result {max(exact):.7f} is farther than the true k-th {kth:.7f}"
        return None

    def _reopen_check(self, streams: Streams, data_dir: Path) -> tuple[int, int]:
        """Durability: reopen from the directory alone and compare the live set.

        One check per trajectory the stream inserted (readable unless it was
        deleted, with all its points) and one per delete (stays deleted).
        """
        from repro.compression.traj_codec import TrajectoryCodec
        from repro.kvstore.scan import Scan
        from repro.storage.serializer import RowSerializer
        from repro.storage.tman import PRIMARY_TABLE

        config = config_for(self.w, None)
        serializer = RowSerializer(TrajectoryCodec(config.codec), config.dp_epsilon)
        cluster = durable_cluster(config, data_dir)
        try:
            stored = {}
            for _, value in cluster.table(PRIMARY_TABLE).scan(Scan()):
                traj = serializer.decode_trajectory(value).trajectory
                stored[traj.tid] = len(traj)
        finally:
            cluster.close()
        live = self.oracle.live_tids()
        attempted = failed = 0
        for record in self.records:
            if not record.ms:
                continue
            if record.op.kind == "insert":
                for traj in record.op.args[0]:
                    attempted += 1
                    want = len(traj) if traj.tid in live else None
                    failed += stored.get(traj.tid) != want
            elif record.op.kind == "delete":
                attempted += 1
                failed += record.op.args[0].tid in stored
        failed += set(stored) != live  # nothing else may have appeared or vanished
        return attempted + 1, failed

    # -- the run -----------------------------------------------------------------

    def _run(self) -> RunResult:
        from repro.kvstore.scan import Scan
        from repro.runtime.backpressure import stall_counts

        if self.trace:
            from benchmarks.spine import tracing

            self.tracer = tracing.install()
        t0 = time.perf_counter()
        streams = make_streams(self.w, self.sizes, self.seed)
        generate_s = time.perf_counter() - t0

        setups, load_report = self._setup(streams)
        t0 = time.perf_counter()
        for ops in streams.warmup:
            for op in ops:
                execute(self.tman, op)
        warmup_s = time.perf_counter() - t0
        # The median repetition for setup_s, the fastest one for the load rate.
        setup_s = generate_s + warmup_s + statistics.median(c - a for a, _, c in setups)
        load_trajs_per_s = len(streams.base) / min(c - b for _, b, c in setups)

        gc.collect()
        calib_before = calibration_ms()
        tman = self.tman
        io0 = tman.cluster.stats.snapshot()
        reg0 = layers.registry_counters()
        cache0 = tman.index_cache.stats()
        stall0 = stall_counts()
        user0 = layers.row_value_bytes()
        self._timed_phase(streams)
        io = tman.cluster.stats.snapshot() - io0
        reg1 = layers.registry_counters()
        reg = {k: reg1[k] - reg0[k] for k in reg1}
        cache1 = tman.index_cache.stats()
        stall1 = stall_counts()
        user_bytes = layers.row_value_bytes() - user0
        calib_after = calibration_ms()

        t0 = time.perf_counter()
        attempted, failed, notes = self._verify(streams)
        live_points = self.oracle.live_points()
        # Space: every key and value a full scan of every table returns.
        tables = [tman.primary_table, *tman.secondary_tables.values()]
        stored_bytes = sum(len(k) + len(v) for t in tables for k, v in t.scan(Scan()))
        worker_rss = _worker_rss_mb(tman)
        final = {"sstables": 0, "disk_bytes": 0, "live_bytes": stored_bytes}
        deploy_dir = self.work_dir / f"d{len(setups) - 1}"
        if self.trace and self.w.deployment != "threads":
            tman.flush()
            final["sstables"] = sum(1 for _ in deploy_dir.rglob("sst-*.sst"))
            final["disk_bytes"] = _tree_bytes(deploy_dir)
        self._close()
        if self.w.deployment == "durable":
            checks, misses = self._reopen_check(streams, deploy_dir)
            attempted += checks
            failed += misses
            if misses:
                notes.append(f"reopen check: {misses} of {checks} failed")
        verify_s = time.perf_counter() - t0

        # -- end-to-end metrics ---------------------------------------------------
        queries = [r for r in self.records if r.op.kind in QUERY_KINDS and r.ms]
        inserts = [r for r in self.records if r.op.kind == "insert" and r.ms]
        calls = sum(len(r.ms) for r in self.records)
        walls = [w for by_mode in self.round_walls.values() for w in by_mode.values()]
        timed_s = sum(sum(w) for w in walls)
        best = {kind: [min(r.ms) for r in queries if r.op.kind == kind] for kind in QUERY_KINDS}
        values = {f"{kind}_p50_ms": statistics.median(ms) for kind, ms in best.items() if ms}
        values.update(
            setup_s=setup_s,
            load_trajs_per_s=load_trajs_per_s,
            # Like a query's latency, a round's wall time is its fastest pass.
            ops_per_s=calls / self.sizes.passes / sum(min(w) for w in walls),
            query_p95_ms=percentile([min(r.ms) for r in queries], 95.0),
            stored_bytes_per_point=stored_bytes / live_points,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            + worker_rss,
            failed_share=failed / attempted,
        )
        if inserts:
            values["insert_trajs_per_s"] = sum(r.answer for r in inserts) / (
                sum(r.ms[0] for r in inserts) / 1000.0
            )
            values["write_amp"] = (
                reg["kv_wal_append_bytes_total"] + reg["kv_memtable_flush_bytes_total"]
                + reg["kv_compaction_bytes_total"]
            ) / user_bytes
        sample_counts = {kind: len(ms) for kind, ms in best.items() if ms}

        diagnostics = {
            "workload": self.w.name, "why": self.w.why, "profile": self.profile,
            "seed": self.seed, "seconds": self.seconds, "trace": self.trace,
            "commit": _commit(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "sizes": {
                "trajectories_loaded": len(streams.base),
                "points_live_at_end": live_points,
                "rounds_in_stream": len(streams.rounds),
                "passes": self.sizes.passes,
                "warmup_rounds": len(streams.warmup),
                "setups": len(setups),
                "stored_bytes": stored_bytes,
                "disk_bytes": final["disk_bytes"],
            },
            "samples": sample_counts,
            "samples_query_p95": len(queries),
            "api_calls": calls,
            "timed_s": timed_s, "verify_s": verify_s,
            "generate_s": generate_s, "warmup_s": warmup_s,
            "build_load_flush_s": [c - a for a, _, c in setups],
            "load_flush_s": [c - b for _, b, c in setups],
            "calib_before_ms": calib_before, "calib_after_ms": calib_after,
            "flush_policy": "inline flush at the soft memtable watermark",
            "wal_sync": "group commit: fsync at flush and close (Table default)",
            "timed_phase_flushes": reg["kv_memtable_flush_total"],
            "timed_phase_compactions": reg["kv_compaction_total"],
            "failures": notes,
            # Thread and process mode must agree on this for one seed.
            "result_signature": hashlib.sha256(
                repr([r.answer for r in self.records if r.ms]).encode()
            ).hexdigest(),
            "bulk_load_report": vars(load_report),
        }

        spans = None
        if self.trace:
            reports = self.write_reports + [load_report]
            timed = {
                "queries": sum(len(r.ms) for r in queries),
                "results": sum(len(r.answer) * len(r.ms) for r in queries),
                "io": vars(io), "registry": reg,
                "cache": {
                    "hits": cache1.hits - cache0.hits,
                    "misses": cache1.misses - cache0.misses,
                    "evictions": cache1.evictions - cache0.evictions,
                },
                "stall_s": stall1[2] - stall0[2], "throttled": stall1[0] - stall0[0],
                "writer_encode_s": sum(r.encode_seconds for r in reports),
                "writer_write_s": sum(r.write_seconds for r in reports),
                "reencodes": sum(r.reencodes_triggered for r in reports),
                "rows_rewritten": sum(r.rows_rewritten for r in reports),
                "trace_overhead_share": self._trace_overhead_share(),
            }
            derived = layers.derive(self.tracer, timed, final)
            metrics = {m.name: (derived[m.name], m.unit) for m in PER_LAYER}
            diagnostics["layer_shares_by_type"] = layers.shares_by_kind(self.tracer)
            diagnostics["trace_missing_targets"] = self.tracer.missing
            diagnostics["traced_ops"] = len(self.tracer.ops)
            spans = self.tracer.spans
        else:
            metrics = {m.name: (values[m.name], m.unit) for m in end_to_end_for(self.w.name)}
        return RunResult(self.w.name, metrics, attempted, failed, diagnostics, spans)


def _commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown"
