"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``generate`` — write a synthetic dataset to CSV;
- ``load`` — build a TMan deployment from a CSV and save it to a directory;
- ``query`` — run a temporal/spatial/id query against a saved deployment
  (``--trace-out`` writes a Chrome trace, ``--slow-ms`` arms the slow-query
  log, ``--deadline-ms``/``--allow-partial`` bound end-to-end execution);
- ``explain`` — show every applicable plan with its estimated cost, run
  the query, and compare the optimizer's estimate against what it touched;
- ``info`` — show a saved deployment's configuration and statistics;
- ``health`` — operational snapshot (admission, memtable pressure, breakers);
- ``metrics`` — dump the process metrics registry (Prometheus text or JSON);
- ``top`` — live text dashboard (QPS, per-type latency, cache hit rates,
  memtable/breaker state, top queries by attributed cost); ``--once``
  renders a single frame for CI;
- ``stats`` — export the workload-statistics collector as
  ``workload_stats.json`` (per query type x plan: latency percentiles,
  selectivity histograms, period/cell heat, estimate-vs-observed ratios).

``top`` and ``stats`` run a small probe workload against the opened
deployment first (``--probe 0`` disables) because a freshly opened process
has no query history of its own.

CSV format: one point per line, ``oid,tid,t,lng,lat``, points of a
trajectory contiguous and time-ordered (the format ``generate`` emits).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
from pathlib import Path
from typing import Iterable, Iterator

from repro import obs
from repro.datasets import LORRY_SPEC, TDRIVE_SPEC, generate_dataset
from repro.kvstore import simfault
from repro.model import MBR, TimeRange, Trajectory
from repro.model.pointblock import PointBlock
from repro.query.types import (
    IDTemporalQuery,
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
)
from repro.runtime.deadline import QueryTimeoutError
from repro.storage.config import TManConfig
from repro.storage.persistence import open_tman, save_tman
from repro.storage.tman import TMan

SPECS = {"tdrive": TDRIVE_SPEC, "lorry": LORRY_SPEC}


def parse_window(text: str) -> MBR:
    """argparse ``type=`` for an ``x1,y1,x2,y2`` rectangle."""
    try:
        x1, y1, x2, y2 = (float(v) for v in text.split(","))
        return MBR(x1, y1, x2, y2)
    except ValueError:  # wrong arity, non-numeric, or inverted corners
        raise argparse.ArgumentTypeError(
            f"expected x1,y1,x2,y2 with x1 <= x2 and y1 <= y2, got {text!r}"
        ) from None


def write_csv(path: Path, trajs: Iterable[Trajectory]) -> int:
    """Write trajectories to CSV (one point per line); returns the count."""
    count = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["oid", "tid", "t", "lng", "lat"])
        for traj in trajs:
            for t, lng, lat in zip(*(col.tolist() for col in traj.xy_arrays())):
                writer.writerow([traj.oid, traj.tid, f"{t:.3f}", f"{lng:.7f}", f"{lat:.7f}"])
            count += 1
    return count


def read_csv(path: Path) -> Iterator[Trajectory]:
    """Yield trajectories parsed from a CSV written by ``write_csv``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["oid", "tid", "t", "lng", "lat"]:
            raise SystemExit(f"{path}: unexpected CSV header {header}")
        current_tid = None
        oid = ""
        ts: list[float] = []
        xs: list[float] = []
        ys: list[float] = []
        for r_oid, r_tid, t, lng, lat in reader:
            if r_tid != current_tid:
                if ts:
                    yield Trajectory(oid, current_tid, PointBlock(ts, xs, ys))
                current_tid, oid, ts, xs, ys = r_tid, r_oid, [], [], []
            ts.append(float(t))
            xs.append(float(lng))
            ys.append(float(lat))
        if ts:
            yield Trajectory(oid, current_tid, PointBlock(ts, xs, ys))


def cmd_generate(args: argparse.Namespace) -> int:
    """``generate``: write a synthetic dataset to CSV."""
    spec = SPECS[args.spec]
    trajs = generate_dataset(spec, args.n, seed=args.seed)
    count = write_csv(Path(args.output), trajs)
    print(f"wrote {count} trajectories ({sum(len(t) for t in trajs)} points) to {args.output}")
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    """``load``: build a TMan deployment from CSV and save it."""
    trajs = list(read_csv(Path(args.input)))
    if not trajs:
        raise SystemExit("input contains no trajectories")
    config = TManConfig(
        boundary=args.boundary or SPECS[args.spec].boundary,
        alpha=args.alpha,
        beta=args.beta,
        max_resolution=args.max_resolution,
        num_shards=args.shards,
        shape_encoding=args.encoding,
        kv_workers=1,
    )
    with TMan(config) as tman:
        report = tman.bulk_load(trajs)
        save_tman(tman, args.deployment)
    print(
        f"loaded {report.rows_written} trajectories "
        f"({report.elements_encoded} elements encoded) -> {args.deployment}"
    )
    return 0


def _build_query(args: argparse.Namespace):
    """The query descriptor shared by ``query`` and ``explain``."""
    if args.type == "temporal":
        return TemporalRangeQuery(TimeRange(args.start, args.end))
    if args.type == "id":
        return IDTemporalQuery(args.oid, TimeRange(args.start, args.end))
    if args.window is None:
        raise SystemExit(f"--type {args.type} needs --window x1,y1,x2,y2")
    if args.type == "spatial":
        return SpatialRangeQuery(args.window)
    return STRangeQuery(args.window, TimeRange(args.start, args.end))


def cmd_explain(args: argparse.Namespace) -> int:
    """``explain``: candidate plans, estimated costs, and the actual run."""
    with open_tman(args.deployment) as tman:
        q = _build_query(args)
        est = tman.planner.estimate_candidates(q)
        print(tman.explain(q))
        print("candidate plans (cost in calibrated I/O units):")
        for p in tman.explain_plans(q):
            marker = "*" if p["chosen"] else " "
            cost = "-" if p["cost"] is None else f"{p['cost']:.0f}"
            rows = "-" if p["est_rows"] is None else f"{p['est_rows']:.0f}"
            print(
                f"  {marker} {p['index'] + '/' + p['route']:<20} "
                f"cost={cost:>10} est_rows={rows:>8}  {p['reason']}"
            )
        if args.no_run:
            return 0
        res = tman.query(q)
        est_text = "n/a" if est is None else f"{est:.0f}"
        ratio = (
            "n/a"
            if est is None or est <= 0
            else f"{res.candidates / est:.2f}x"
        )
        print(
            f"actual: {len(res)} trajectories, {res.candidates} candidates "
            f"(estimated {est_text}, ratio {ratio}), {res.windows} scans, "
            f"{res.elapsed_ms:.1f} ms wall, {res.simulated_ms:.2f} ms simulated"
        )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """``query``: run a query against a saved deployment."""
    if args.slow_ms is not None:
        obs.set_slow_query_ms(args.slow_ms)
    q = _build_query(args)
    with open_tman(args.deployment) as tman:
        # Reproduction: fail scans/gets/flush I/O at this seeded rate; the
        # retry layer must still deliver exact results.  The injector covers
        # the query alone, not the reopen's statistics-rebuild scans.
        faults = (
            simfault.fault_injection(
                simfault.FaultConfig.uniform(args.fault_rate, seed=args.fault_seed)
            )
            if args.fault_rate
            else contextlib.nullcontext()
        )
        try:
            with faults as injector:
                res = tman.query(
                    q, deadline_ms=args.deadline_ms, allow_partial=args.allow_partial
                )
        except QueryTimeoutError as exc:
            print(f"query timed out: {exc}", file=sys.stderr)
            return 2
        partial = " PARTIAL (deadline reached)" if res.partial else ""
        print(
            f"{len(res)} trajectories ({res.candidates} candidates, "
            f"{res.windows} scans, plan {res.plan}, {res.elapsed_ms:.1f} ms)"
            f"{partial}"
        )
        if injector is not None:
            print(
                f"fault injection: rate={args.fault_rate} seed={args.fault_seed} "
                f"injected={injector.injected} rpc_failures={res.profile.rpc_failures} "
                f"retries={res.profile.retries}"
            )
        for traj in res.trajectories[: args.limit]:
            tr = traj.time_range
            print(f"  {traj.tid}  oid={traj.oid}  points={len(traj)}  "
                  f"t=[{tr.start:.0f},{tr.end:.0f}]")
        if len(res) > args.limit:
            print(f"  ... and {len(res) - args.limit} more")
    if args.trace_out:
        out = Path(args.trace_out)
        out.write_text(json.dumps(obs.tracer().to_chrome(), indent=2))
        print(f"wrote Chrome trace ({len(obs.tracer())} spans) to {out}")
    for entry in obs.slow_query_log().entries():
        print(entry.render())
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """``info``: describe a saved deployment."""
    with open_tman(args.deployment) as tman:
        doc = tman.meta.load_config() or {}
        print(f"deployment: {args.deployment}")
        print(f"rows: {tman.row_count}")
        for key in sorted(doc):
            print(f"  {key}: {doc[key]}")
        cache = tman.index_cache.stats()
        print(f"index cache: {len(tman.index_cache.directory())} elements, "
              f"local hits={cache.hits} misses={cache.misses} "
              f"evictions={cache.evictions} entries={cache.entries} "
              f"remote_fetches={cache.remote_fetches}")
        snap = tman.cluster.stats.snapshot()
        print("io stats:")
        for name in (
            "rows_scanned", "rows_returned", "range_scans", "bytes_transferred",
            "block_reads", "filter_evals", "bloom_rejects", "point_gets",
        ):
            print(f"  {name}: {getattr(snap, name)}")
        block_cache = tman.cluster.block_cache
        if block_cache is None:
            print("block cache: disabled")
        else:
            bc = block_cache.stats()
            print(
                f"block cache: {bc.entries} blocks / {bc.bytes} of "
                f"{bc.capacity_bytes} bytes, hits={bc.hits} misses={bc.misses} "
                f"evictions={bc.evictions} hit_ratio={bc.hit_ratio:.2f}"
            )
        reg = obs.registry()
        serial = scheduled = 0.0
        scans = reg.get("kv_multirange_scans_total")
        if scans is not None:
            serial = scans.labels(mode="serial").value
            scheduled = scans.labels(mode="scheduled").value
        started = reg.get("kv_multirange_windows_started_total")
        cancelled = reg.get("kv_multirange_chunks_cancelled_total")
        print(
            f"scan scheduler: scheduled={scheduled:.0f} serial={serial:.0f} "
            f"windows_started={started.value if started else 0:.0f} "
            f"chunks_cancelled={cancelled.value if cancelled else 0:.0f}"
        )
        cfg = tman.config
        soft = cfg.memtable_soft_bytes
        hard = cfg.memtable_hard_bytes
        print(
            f"memtable: {tman.cluster.memtable_bytes()} unflushed bytes, "
            f"soft_watermark={'off' if soft is None else soft} "
            f"hard_watermark={'off' if hard is None else hard}"
        )
        if cfg.admission_max_inflight > 0:
            print(
                f"admission: max_inflight={cfg.admission_max_inflight} "
                f"max_queue={cfg.admission_max_queue} "
                f"queue_timeout_ms={cfg.admission_queue_timeout_ms:g}"
            )
        else:
            print("admission: unlimited")
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    """``health``: operational snapshot of a saved deployment."""
    with open_tman(args.deployment) as tman:
        doc = tman.health()
        if args.json:
            print(json.dumps(doc, indent=2))
            return 0
        adm = doc["admission"]
        if adm is None:
            print("admission: unlimited (no inflight bound configured)")
        else:
            print(
                f"admission: {adm['inflight']}/{adm['max_inflight']} inflight, "
                f"{adm['queued']}/{adm['max_queue']} queued, "
                f"admitted={adm['admitted']} "
                f"shed_queue_full={adm['shed_queue_full']} "
                f"shed_queue_timeout={adm['shed_queue_timeout']}"
            )
        w = doc["write"]
        soft = "off" if w["soft_bytes"] is None else w["soft_bytes"]
        hard = "off" if w["hard_bytes"] is None else w["hard_bytes"]
        print(
            f"write: memtable_bytes={w['memtable_bytes']} "
            f"soft_watermark={soft} hard_watermark={hard}"
        )
        cl = doc.get("cluster")
        if cl is None:
            print("cluster: threads (in-process regions)")
        else:
            print(
                f"cluster: processes, {len(cl['nodes'])} nodes, "
                f"rf={cl['replication_factor']} "
                f"R={cl['read_quorum']} W={cl['write_quorum']} "
                f"stores={cl['stores']}"
            )
            for node in sorted(cl["nodes"]):
                n = cl["nodes"][node]
                print(
                    f"  {node}: {n['state']} pid={n['pid']} "
                    f"pending_hints={n['pending_hints']}"
                )
        b = doc["breakers"]
        print(f"breakers: {b['open']} open of {b['regions']} regions")
        for name in sorted(b["tables"]):
            t = b["tables"][name]
            print(
                f"  {name}: regions={t['regions']} "
                f"open_breakers={t['open_breakers']} "
                f"memtable_bytes={t['memtable_bytes']}"
            )
        dl = doc["default_deadline_ms"]
        print(f"default deadline: {'none' if dl is None else f'{dl:g} ms'}")
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    """``metrics``: dump the process-wide metrics registry."""
    if args.format == "prometheus":
        text = obs.to_prometheus(obs.registry())
    else:
        text = obs.to_json(obs.registry())
    if args.out:
        Path(args.out).write_text(text + ("\n" if not text.endswith("\n") else ""))
        print(f"wrote {args.format} metrics to {args.out}")
    else:
        print(text)
    return 0


def _run_probe(tman: TMan, n: int) -> int:
    """Run a small deterministic query mix to populate profiles and stats.

    A freshly opened deployment has no query history; ``top`` and
    ``stats`` would render empty frames without it.  Returns the number
    of queries executed.
    """
    import random

    if n <= 0:
        return 0
    stats = tman.table_statistics()
    if stats is None:
        return 0
    span, region = stats.time_span, stats.mbr
    rng = random.Random(1234)
    duration = max(span.duration, 1.0)
    oid = None
    ran = 0
    for i in range(n):
        t0 = span.start + rng.random() * duration * 0.8
        tr = TimeRange(t0, t0 + duration * 0.2)
        wx = region.x1 + rng.random() * (region.x2 - region.x1) * 0.6
        wy = region.y1 + rng.random() * (region.y2 - region.y1) * 0.6
        window = MBR(
            wx, wy,
            wx + (region.x2 - region.x1) * 0.4,
            wy + (region.y2 - region.y1) * 0.4,
        )
        kind = i % 4
        if kind == 0:
            result = tman.query(TemporalRangeQuery(tr))
        elif kind == 1:
            result = tman.query(SpatialRangeQuery(window))
        elif kind == 2:
            result = tman.query(STRangeQuery(window, tr))
        elif oid is not None:
            result = tman.query(IDTemporalQuery(oid, tr))
        else:
            result = tman.query(TemporalRangeQuery(tr))
        if oid is None and result.trajectories:
            oid = result.trajectories[0].oid
        ran += 1
    return ran


def cmd_top(args: argparse.Namespace) -> int:
    """``top``: live dashboard over a saved deployment."""
    import time

    from repro.obs.dashboard import dashboard_frame

    with open_tman(args.deployment) as tman:
        _run_probe(tman, args.probe)
        if args.once:
            text, _ = dashboard_frame(tman, top_n=args.top)
            print(text)
            return 0
        prev = None
        try:
            while True:
                text, prev = dashboard_frame(
                    tman,
                    prev_snapshot=prev,
                    interval_s=args.interval,
                    top_n=args.top,
                )
                # Clear screen + home, like top(1).
                print("\x1b[2J\x1b[H" + text, flush=True)
                time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``stats``: export workload statistics as JSON."""
    with open_tman(args.deployment) as tman:
        _run_probe(tman, args.probe)
        doc = obs.workload_stats().snapshot()
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote workload stats ({doc['total_queries']} queries) to {args.out}")
    else:
        print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI definition."""
    parser = argparse.ArgumentParser(
        prog="repro", description="TMan trajectory store CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset to CSV")
    g.add_argument("output")
    g.add_argument("--spec", choices=sorted(SPECS), default="tdrive")
    g.add_argument("--n", type=int, default=1000)
    g.add_argument("--seed", type=int, default=42)
    g.set_defaults(fn=cmd_generate)

    l = sub.add_parser("load", help="build and save a TMan deployment")
    l.add_argument("input", help="CSV produced by `generate`")
    l.add_argument("deployment", help="output directory")
    l.add_argument("--spec", choices=sorted(SPECS), default="tdrive")
    l.add_argument(
        "--boundary", type=parse_window, help="x1,y1,x2,y2 (defaults to the spec's)"
    )
    l.add_argument("--alpha", type=int, default=3)
    l.add_argument("--beta", type=int, default=3)
    l.add_argument("--max-resolution", type=int, default=14)
    l.add_argument("--shards", type=int, default=4)
    l.add_argument("--encoding", choices=["bitmap", "greedy", "genetic"], default="greedy")
    l.set_defaults(fn=cmd_load)

    q = sub.add_parser("query", help="query a saved deployment")
    q.add_argument("deployment")
    q.add_argument("--type", choices=["temporal", "spatial", "st", "id"], required=True)
    q.add_argument("--start", type=float, default=0.0, help="time range start (s)")
    q.add_argument("--end", type=float, default=0.0, help="time range end (s)")
    q.add_argument("--window", type=parse_window, help="x1,y1,x2,y2 spatial window")
    q.add_argument("--oid", help="object id for --type id")
    q.add_argument("--limit", type=int, default=10)
    q.add_argument(
        "--trace-out",
        help="write the query's Chrome trace_event JSON to this file",
    )
    q.add_argument(
        "--slow-ms",
        type=float,
        help="slow-query threshold; crossing queries print a full trace",
    )
    q.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="inject transient scan/get/flush faults at this per-attempt rate",
    )
    q.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the deterministic fault injector",
    )
    q.add_argument(
        "--deadline-ms",
        type=float,
        help="end-to-end deadline; expiry fails the query (exit code 2)",
    )
    q.add_argument(
        "--allow-partial",
        action="store_true",
        help="on deadline expiry return rows produced so far instead of failing",
    )
    q.set_defaults(fn=cmd_query)

    e = sub.add_parser(
        "explain", help="show candidate plans with estimated vs actual cost"
    )
    e.add_argument("deployment")
    e.add_argument(
        "--type", choices=["temporal", "spatial", "st", "id"], required=True
    )
    e.add_argument("--start", type=float, default=0.0, help="time range start (s)")
    e.add_argument("--end", type=float, default=0.0, help="time range end (s)")
    e.add_argument("--window", type=parse_window, help="x1,y1,x2,y2 spatial window")
    e.add_argument("--oid", help="object id for --type id")
    e.add_argument(
        "--no-run",
        action="store_true",
        help="print the plan table without executing the query",
    )
    e.set_defaults(fn=cmd_explain)

    i = sub.add_parser("info", help="describe a saved deployment")
    i.add_argument("deployment")
    i.set_defaults(fn=cmd_info)

    h = sub.add_parser(
        "health", help="admission / memtable / breaker snapshot"
    )
    h.add_argument("deployment")
    h.add_argument("--json", action="store_true", help="machine-readable output")
    h.set_defaults(fn=cmd_health)

    m = sub.add_parser("metrics", help="dump the process metrics registry")
    m.add_argument(
        "--format", choices=["prometheus", "json"], default="prometheus"
    )
    m.add_argument("--out", help="write to a file instead of stdout")
    m.set_defaults(fn=cmd_metrics)

    t = sub.add_parser("top", help="live dashboard over a saved deployment")
    t.add_argument("deployment")
    t.add_argument(
        "--once", action="store_true", help="render one frame and exit (CI mode)"
    )
    t.add_argument(
        "--interval", type=float, default=2.0, help="refresh interval in seconds"
    )
    t.add_argument("--top", type=int, default=5, help="queries to rank by cost")
    t.add_argument(
        "--probe",
        type=int,
        default=12,
        help="probe queries to run first so the frame has data (0 disables)",
    )
    t.set_defaults(fn=cmd_top)

    s = sub.add_parser("stats", help="export workload statistics as JSON")
    s.add_argument("deployment")
    s.add_argument("--out", help="write to a file instead of stdout")
    s.add_argument(
        "--probe",
        type=int,
        default=12,
        help="probe queries to run first so the export has data (0 disables)",
    )
    s.set_defaults(fn=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
