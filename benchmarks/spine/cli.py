"""Command line of the benchmark spine.

The repository's driver runs::

    python3 benchmarks/spine/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

and reads the last line of standard output: one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` — every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  Before it, every metric the workload reports is printed as
``name value unit``: with ``--trace 0`` that is each of the catalog's
end-to-end metrics that applies to the workload, a superset of the line's.

Developers add ``--out FILE`` (the full JSON document that ``compare`` reads;
a traced run also writes ``FILE.spans.json``), ``--smoke`` (a seconds-long
profile whose numbers ``compare`` rejects) and ``--all`` (the four workloads
one after the other, each in a fresh process, ``--out`` naming a directory;
``--repeat N`` makes it N interleaved sweeps, which is one set for ``compare``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

SMOKE_SECONDS = 1.0


def _parser() -> argparse.ArgumentParser:
    from benchmarks.spine.workloads import NOMINAL_SECONDS, WORKLOADS

    p = argparse.ArgumentParser(prog="benchmarks.spine", description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--all", action="store_true", help="run the four workloads in turn")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=None,
                   help="nominal length of the timed phase; scales the rounds of a pass "
                        f"(default {NOMINAL_SECONDS:g})")
    p.add_argument("--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1),
                   help="1 = traced run reporting the per-layer metrics")
    p.add_argument("--out", type=Path, default=None,
                   help="write the full JSON here (a directory with --all)")
    p.add_argument("--smoke", action="store_true", help="tiny sizes, numbers not comparable")
    p.add_argument("--repeat", type=int, default=1,
                   help="with --all: interleaved sweeps (W1 W2 W3 W4 W1 ...), one JSON each")
    return p


def _print_metrics(result) -> None:
    for name, (value, unit) in result.metrics.items():
        print(f"{name} {value!r} {unit}")
    shares = result.diagnostics.get("layer_shares_by_type")
    for kind, row in (shares or {}).items():
        cells = " ".join(f"{layer}={share:.3f}" for layer, share in row.items())
        print(f"layer_shares.{kind} {cells}")
    for note in result.diagnostics["failures"]:
        print(f"failure: {note}", file=sys.stderr)


def document(result) -> dict:
    """The ``--out`` JSON: each metric with what the catalog says of it, sample
    counts, sizes and provenance."""
    from benchmarks.spine.catalog import END_TO_END, PER_LAYER

    catalog = {m.name: m for m in (*END_TO_END, *PER_LAYER)}
    cells = {}
    for name, (value, unit) in result.metrics.items():
        m = catalog[name]
        cells[name] = {"value": value, "unit": unit, "better": m.better}
        if result.diagnostics["trace"]:
            cells[name].update(layer=m.layer, moves=m.moves)
        else:
            cells[name]["bound"] = m.bound
    return {
        "schema": "benchmarks.spine/v2",
        **result.diagnostics,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": cells,
    }


def run_one(args) -> int:
    from benchmarks.spine.catalog import DRIVER_BOUNDS
    from benchmarks.spine.harness import Run
    from benchmarks.spine.workloads import NOMINAL_SECONDS, WORKLOADS

    profile = "smoke" if args.smoke else "full"
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else NOMINAL_SECONDS
    run = Run(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace), profile)
    result = run.execute()
    _print_metrics(result)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document(result), indent=1))
        if result.spans is not None:
            Path(str(args.out) + ".spans.json").write_text(json.dumps(result.spans))
    line = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result.metrics.items()
            if args.trace or name in DRIVER_BOUNDS
        },
    }
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; then the cross-workload ratios."""
    from benchmarks.spine.catalog import WORKLOADS

    script = Path(__file__).with_name("run.py")
    status = 0
    for sweep in range(args.repeat):
        for name in WORKLOADS:
            cmd = [sys.executable, str(script), "--workload", name, "--seed", str(args.seed),
                   "--trace", str(args.trace)]
            if args.seconds is not None:
                cmd += ["--seconds", str(args.seconds)]
            if args.smoke:
                cmd.append("--smoke")
            if args.out is not None:
                stem = name if args.repeat == 1 else f"{name}.{sweep}"
                cmd += ["--out", str(args.out / f"{stem}.json")]
            print(f"== {name}", flush=True)
            status = max(status, subprocess.run(cmd, check=False).returncode)
    if args.out is not None and not args.trace and args.repeat == 1:
        _print_process_over_thread(args.out)
    return status


def _print_process_over_thread(out_dir: Path) -> None:
    """Derived lines, not named metrics: what the RPC boundary costs per type."""
    try:
        docs = {
            mode: json.loads((out_dir / f"range_{mode}.json").read_text())["metrics"]
            for mode in ("threads", "processes")
        }
    except (OSError, KeyError, ValueError):
        return
    for kind in ("trq", "srq", "strq", "idt"):
        name = f"{kind}_p50_ms"
        ratio = docs["processes"][name]["value"] / docs["threads"][name]["value"]
        print(f"process_over_thread.{kind} {ratio:.3f} ratio")


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


def _children() -> list[int]:
    """Pids whose parent is this process (zombies included)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path(f"/proc/{entry}/stat").read_text()
        except OSError:
            continue  # gone between listdir and read
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            found.append(int(entry))
    return found


def _end_children(skip: tuple = (), grace_s: float = 5.0) -> None:
    """SIGTERM, after ``grace_s`` SIGKILL, and wait for every child not in ``skip``."""
    give_up = time.monotonic() + grace_s
    signalled = False
    while True:
        left = []
        for pid in _children():
            if pid in skip:
                continue
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue  # reaped by someone else (e.g. multiprocessing)
            if not done:
                left.append(pid)
        if not left:
            return
        late = time.monotonic() > give_up
        if not signalled or late:
            for pid in left:
                try:
                    os.kill(pid, signal.SIGKILL if late else signal.SIGTERM)
                except ProcessLookupError:
                    pass
            signalled = True
        time.sleep(0.02)


def reap_children() -> None:
    """Leave no process behind: stop and wait for everything this one started.

    Spawning the process-mode workers also starts multiprocessing's resource
    tracker.  It only exits once every copy of its pipe is closed -- this
    process's, i.e. *after* this process has gone, and each worker's -- so
    without this it outlives the run by a moment (and is left a zombie where
    pid 1 does not reap).  Order matters: first end whatever else is still a
    child (a worker left over from an interrupted start-up or a failed
    shutdown), then close the pipe and wait for the tracker, then sweep once
    more in case the tracker could not be stopped that way.
    """
    from multiprocessing import resource_tracker

    for signum in (signal.SIGINT, signal.SIGTERM):  # nothing may cut this short
        signal.signal(signum, signal.SIG_IGN)
    tracker = resource_tracker._resource_tracker
    _end_children(skip=(getattr(tracker, "_pid", None),))
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        try:
            stop()
        except OSError:
            pass
    _end_children()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.all == (args.workload is not None):
        print("give exactly one of --workload and --all", file=sys.stderr)
        return 2
    # SIGTERM unwinds like Ctrl-C, so workers and scratch files are cleaned up.
    signal.signal(signal.SIGTERM, _raise_exit)
    try:
        return run_all(args) if args.all else run_one(args)
    finally:
        reap_children()
