"""CLI schema + quality gates for the ``BENCH_<name>.json`` reports.

``python -m repro.bench.validate FILE [...]`` infers the benchmark from
each ``BENCH_<name>.json`` filename and exits non-zero when the report is
missing sections, carries wrongly-typed values, or fails that benchmark's
gates — the part CI actually depends on:

- ``cbo``: calibrated planner regret above ``--max-regret`` (default
  0.15, the acceptance bound of the CBO PR), a divergence guard that
  never fired, or re-planned results that differ;
- ``cluster``: ``results_identical`` false (process mode or quorum reads
  changed a query result).  Wall-clock ratios are checked for sanity but
  not bounded: shared CI runners make latency gates flaky;
- ``columnar``: shape only.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

_PERCENTILES = {"p50_ms": float, "p99_ms": float}
_REGRET = {
    "regret": float,
    "picked_best": int,
    "cbo_mean_ms": float,
    "oracle_mean_ms": float,
}
_CLUSTER_QUERY_TYPES = ("trq", "srq")
_CLUSTER_RATIOS = {q: float for q in _CLUSTER_QUERY_TYPES}
_CLUSTER_MODE = {q: _PERCENTILES for q in _CLUSTER_QUERY_TYPES}

DEFAULT_MAX_REGRET = 0.15


def _cbo_gates(doc: dict, opts: argparse.Namespace) -> list[str]:
    errors: list[str] = []
    regret = doc["planner_regret"]["calibrated"]["regret"]
    if regret > opts.max_regret:
        errors.append(
            f"planner_regret.calibrated.regret: {regret} exceeds {opts.max_regret}"
        )
    replan = doc["adaptive_replan"]
    if not replan["triggered"]:
        errors.append("adaptive_replan.triggered: divergence guard never fired")
    if not replan["results_match"]:
        errors.append("adaptive_replan.results_match: re-planned results diverged")
    return errors


def _cluster_gates(doc: dict, opts: argparse.Namespace) -> list[str]:
    errors: list[str] = []
    if not doc["results_identical"]:
        errors.append(
            "results_identical: process-mode or quorum-read results diverged"
        )
    for section in ("process_over_thread_p50", "quorum_read_overhead_p50"):
        for qtype, ratio in doc[section].items():
            if ratio <= 0:
                errors.append(f"{section}.{qtype}: non-positive ratio {ratio}")
    if doc["queries_per_type"] < 1:
        errors.append("queries_per_type: empty workload")
    return errors


Gates = Callable[[dict, argparse.Namespace], list[str]]

# bench name (from the BENCH_<name>.json filename) -> (schema, gates)
BENCHES: dict[str, tuple[dict, Gates]] = {
    "cbo": (
        {
            "profile": str,
            "smoke": bool,
            "n_trajectories": int,
            "max_regret_gate": float,
            "tr_vs_interval": {
                "queries": int,
                "tr": _PERCENTILES,
                "interval": _PERCENTILES,
                "tr_windows_p50": int,
                "interval_windows_p50": int,
                "p50_speedup": float,
                "cbo_picks_interval": bool,
            },
            "planner_regret": {
                "queries": int,
                "calibration_samples": int,
                "default": _REGRET,
                "calibrated": _REGRET,
                "constants": {
                    "seq_row": float,
                    "point_get": float,
                    "window_open": float,
                    "decode_row": float,
                },
            },
            "adaptive_replan": {
                "estimate": float,
                "observed": int,
                "stale_plan": str,
                "final_plan": str,
                "triggered": bool,
                "results_match": bool,
                "stale_completed_ms": float,
                "adaptive_ms": float,
                "final_plan_alone_ms": float,
                "speedup_vs_stale": float,
            },
        },
        _cbo_gates,
    ),
    "cluster": (
        {
            "profile": str,
            "smoke": bool,
            "n_trajectories": int,
            "queries_per_type": int,
            "nodes": int,
            "replication_factor": int,
            "modes": {
                "threads": _CLUSTER_MODE,
                "processes_r1": _CLUSTER_MODE,
                "processes_r2": _CLUSTER_MODE,
            },
            "process_over_thread_p50": _CLUSTER_RATIOS,
            "quorum_read_overhead_p50": _CLUSTER_RATIOS,
            "results_identical": bool,
        },
        _cluster_gates,
    ),
    "columnar": (
        {
            "profile": str,
            "smoke": bool,
            "n_trajectories": int,
            "points_per_trajectory": int,
            "kernels": {
                name: {
                    "vectorized": _PERCENTILES,
                    "reference": _PERCENTILES,
                    "p50_speedup": float,
                }
                for name in ("frechet", "dtw", "hausdorff")
            },
            "topk_similarity": {
                "k": int,
                "queries": int,
                "after": _PERCENTILES,
                "before": _PERCENTILES,
                "p50_speedup": float,
            },
            "regression_guard": {"profile": str},
        },
        lambda doc, opts: [],
    ),
}


def schema_errors(doc: object, schema: dict, path: str = "") -> list[str]:
    """Return a list of schema violations (empty when ``doc`` conforms)."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return [f"{path or '<root>'}: expected object, got {type(doc).__name__}"]
    for key, expected in schema.items():
        here = f"{path}.{key}" if path else key
        if key not in doc:
            errors.append(f"{here}: missing")
            continue
        value = doc[key]
        if isinstance(expected, dict):
            errors.extend(schema_errors(value, expected, here))
        elif expected is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors.append(f"{here}: expected number, got {type(value).__name__}")
        elif not isinstance(value, expected) or (
            expected is int and isinstance(value, bool)
        ):
            errors.append(
                f"{here}: expected {expected.__name__}, got {type(value).__name__}"
            )
    return errors


def validate_file(path: str, opts: argparse.Namespace) -> list[str]:
    """Every problem with one report file (empty when it passes)."""
    stem = Path(path).stem
    name = stem[len("BENCH_"):] if stem.startswith("BENCH_") else None
    if name not in BENCHES:
        return [f"no schema for this file name (known: {sorted(BENCHES)})"]
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable ({exc})"]
    schema, gates = BENCHES[name]
    return schema_errors(doc, schema) or gates(doc, opts)


def main(argv: list[str] | None = None) -> int:
    """Validate each report file; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.validate",
        description="Schema + quality gates for BENCH_<name>.json reports.",
    )
    parser.add_argument("paths", nargs="*", metavar="FILE")
    parser.add_argument(
        "--max-regret",
        type=float,
        default=DEFAULT_MAX_REGRET,
        help="cbo: fail when calibrated regret exceeds this "
        f"(default {DEFAULT_MAX_REGRET})",
    )
    opts = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if not opts.paths:
        parser.print_usage(sys.stderr)
        return 2
    failed = False
    for path in opts.paths:
        errors = validate_file(path, opts)
        for error in errors:
            print(f"{path}: {error}", file=sys.stderr)
        if errors:
            failed = True
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
