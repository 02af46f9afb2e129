"""Compare two sets of benchmark runs: ``python -m benchmarks.spine.compare A/ B/``.

A set is a directory of ``--out`` JSONs holding at least three untraced,
full-profile invocations per workload (run them interleaved, W1 W2 W3 W4
W1 ..., so slow drift of the box hits every workload alike).  The set's
value of a metric is the median of its runs and its spread the distance
between their quartiles as a share of the median.  ``B`` is judged against
``A`` per metric and workload with the bounds of :mod:`catalog`:

- ``same``        within the bound either way;
- ``worse`` / ``better``  beyond it;
- ``unresolved``  the spread of either set is wider than the bound, so the
  sets cannot tell (never reported as "unchanged").

Exact-count metrics repeat exactly for one seed, so any move beyond their
bound is real whatever the spread; ``failed_share`` is judged on each set's
worst run, so one failing run of three is not hidden by the median.  Every
run of both sets must share seed, ``--seconds`` and sizes, or the sets are
refused.  Exits 1 when any pair is ``worse``, 2 on unusable input.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from benchmarks.spine.catalog import EXACT, WORKLOADS, end_to_end_for

MIN_RUNS = 3


class UnusableSet(Exception):
    """A run set that cannot be compared (smoke profile, too few runs...)."""


def load_set(directory: Path) -> dict[str, list[dict]]:
    """Workload -> one dict per untraced run: its metric values and ``"inputs"``."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith(".spans.json"):
            continue
        doc = json.loads(path.read_text())
        if doc.get("schema") != "benchmarks.spine/v2" or doc.get("trace"):
            continue
        if doc.get("profile") != "full":
            raise UnusableSet(f"{path}: profile {doc.get('profile')!r} is not comparable")
        values = {name: cell["value"] for name, cell in doc["metrics"].items()}
        sizes = doc["sizes"]
        values["inputs"] = (doc["seed"], doc["seconds"], sizes["trajectories_loaded"],
                            sizes["rounds_in_stream"], sizes["passes"])
        runs.setdefault(doc["workload"], []).append(values)
    for workload in WORKLOADS:
        if len(runs.get(workload, ())) < MIN_RUNS:
            raise UnusableSet(
                f"{directory}: {len(runs.get(workload, ()))} runs of {workload}, "
                f"need at least {MIN_RUNS}"
            )
    return runs


def check_same_inputs(set_a: dict, set_b: dict) -> None:
    """Refuse sets whose runs of a workload differ in seed, seconds or sizes."""
    for workload in WORKLOADS:
        inputs = {run["inputs"] for run in (*set_a[workload], *set_b[workload])}
        if len(inputs) > 1:
            raise UnusableSet(
                f"{workload}: runs differ in (seed, seconds, N, rounds, passes): {sorted(inputs)}"
            )


def summarize(values: list[float]) -> tuple[float, float]:
    """(median, interquartile range as a share of the median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (abs(q3 - q1) / abs(median) if median else 0.0)


def verdict(metric, a: list[float], b: list[float]) -> tuple[str, float, float, float]:
    """(label, median A, median B, worsening of B as a share of A)."""
    med_a, spread_a = summarize(a)
    med_b, spread_b = summarize(b)
    if metric.name == "failed_share":
        med_a, med_b = max(a), max(b)
    delta = med_b - med_a if metric.better == "lower" else med_a - med_b
    worse_by = delta / abs(med_a) if med_a else (float("inf") if delta > 0 else 0.0)
    bound = metric.bound
    if metric.name not in EXACT and max(spread_a, spread_b) > bound:
        return "unresolved", med_a, med_b, worse_by
    if worse_by > bound:
        return "worse", med_a, med_b, worse_by
    if worse_by < -bound:
        return "better", med_a, med_b, worse_by
    return "same", med_a, med_b, worse_by


def compare(set_a: dict, set_b: dict) -> list[tuple]:
    rows = []
    for workload in WORKLOADS:
        for metric in end_to_end_for(workload):
            a = [run[metric.name] for run in set_a[workload] if metric.name in run]
            b = [run[metric.name] for run in set_b[workload] if metric.name in run]
            if len(a) < MIN_RUNS or len(b) < MIN_RUNS:
                rows.append((workload, metric.name, "unresolved", None, None, None))
                continue
            rows.append((workload, metric.name, *verdict(metric, a, b)))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n")[0], file=sys.stderr)
        return 2
    try:
        set_a, set_b = (load_set(Path(p)) for p in argv)
        check_same_inputs(set_a, set_b)
    except (UnusableSet, OSError, ValueError, KeyError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    rows = compare(set_a, set_b)
    print(f"{'workload':22} {'metric':24} {'verdict':10} {'A':>12} {'B':>12} {'B worse by':>10}")
    for workload, name, label, med_a, med_b, worse_by in rows:
        if med_a is None:
            print(f"{workload:22} {name:24} {label:10}")
            continue
        print(f"{workload:22} {name:24} {label:10} {med_a:12.4f} {med_b:12.4f} {worse_by:+10.1%}")
    counts = {label: sum(1 for r in rows if r[2] == label)
              for label in ("same", "better", "worse", "unresolved")}
    print(" ".join(f"{label}={n}" for label, n in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
