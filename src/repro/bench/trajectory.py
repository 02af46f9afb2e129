"""Aggregate benchmark result files into one trajectory document.

Each benchmark run (``benchmarks/test_*`` with ``BENCH_OUT`` set) emits a
free-form ``BENCH_<name>.json``.  :func:`aggregate_results` collects the
*headline* metrics of every such file into a single schema-versioned
``BENCH_trajectory.json`` so successive runs can be diffed and plotted
without knowing each benchmark's private layout.

Headline selection is curated per known benchmark (the paths below) and
falls back to a generic sweep that keeps numeric leaves whose key names
look like results (``p50``/``p99``/``speedup``/``ratio``/``pct``) for
benchmarks this module has not been taught about yet.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

TRAJECTORY_SCHEMA = "repro.bench.trajectory/v1"

# Dotted paths of the metrics worth tracking over time, per benchmark name.
HEADLINE_PATHS: dict[str, tuple[str, ...]] = {
    "pipeline": (
        "modes.trq_full.p50_ms",
        "modes.trq_limit.p50_ms",
        "modes.srq_full.p50_ms",
        "modes.srq_limit.p50_ms",
        "trq_candidate_reduction",
        "srq_candidate_reduction",
        "obs_overhead.overhead_pct",
    ),
    "multirange": (
        "trq.remote.p50_ms",
        "trq.local.p50_ms",
        "srq.remote.p50_ms",
        "srq.local.p50_ms",
        "block_cache.warm_read_reduction",
    ),
    "columnar": (
        "kernels.frechet.p50_speedup",
        "kernels.dtw.p50_speedup",
        "kernels.hausdorff.p50_speedup",
        "topk_similarity.p50_speedup",
    ),
    "cbo": (
        "tr_vs_interval.p50_speedup",
        "tr_vs_interval.interval.p50_ms",
        "tr_vs_interval.tr.p50_ms",
        "planner_regret.default.regret",
        "planner_regret.calibrated.regret",
        "adaptive_replan.speedup_vs_stale",
    ),
}

# Key-name fragments that mark a numeric leaf as a headline candidate in
# the generic fallback sweep.
_GENERIC_KEY_HINTS = ("p50", "p90", "p99", "speedup", "ratio", "pct", "reduction")
_GENERIC_MAX_LEAVES = 24


def _dig(doc: dict, path: str):
    node = doc
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node if isinstance(node, (int, float)) and not isinstance(node, bool) else None


def _generic_headlines(doc: dict) -> dict[str, float]:
    """Numeric leaves whose key names look like results, depth-first."""
    out: dict[str, float] = {}

    def walk(node, prefix: str) -> None:
        if len(out) >= _GENERIC_MAX_LEAVES:
            return
        if isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], f"{prefix}.{key}" if prefix else key)
            return
        if isinstance(node, bool) or not isinstance(node, (int, float)):
            return
        leaf = prefix.rsplit(".", 1)[-1]
        if any(hint in leaf for hint in _GENERIC_KEY_HINTS):
            out[prefix] = node

    walk(doc, "")
    return out


def summarize_benchmark(name: str, doc: dict) -> dict:
    """One benchmark file -> its headline metrics (curated, else generic)."""
    paths = HEADLINE_PATHS.get(name)
    if paths:
        headlines = {p: v for p in paths if (v := _dig(doc, p)) is not None}
    else:
        headlines = _generic_headlines(doc)
    return {
        "name": name,
        "smoke": bool(doc.get("smoke", False)),
        "headlines": headlines,
    }


def aggregate_results(results_dir: Path) -> dict:
    """Collect every ``BENCH_*.json`` under ``results_dir``.

    Unreadable files are reported under ``skipped`` rather than failing
    the whole aggregation.
    """
    benchmarks = []
    skipped = []
    for path in sorted(results_dir.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_"):]
        if name == "trajectory":
            continue  # don't aggregate our own output
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            skipped.append({"file": path.name, "error": str(exc)})
            continue
        if not isinstance(doc, dict):
            skipped.append({"file": path.name, "error": "not a JSON object"})
            continue
        benchmarks.append(summarize_benchmark(name, doc))
    return {
        "schema": TRAJECTORY_SCHEMA,
        "results_dir": str(results_dir),
        "benchmarks": benchmarks,
        "skipped": skipped,
    }


def render_report(doc: dict) -> str:
    """Human-readable rendering of an aggregated trajectory document."""
    lines = [f"benchmark trajectory ({len(doc['benchmarks'])} benchmarks)"]
    for bench in doc["benchmarks"]:
        tag = " [smoke]" if bench["smoke"] else ""
        lines.append(f"{bench['name']}{tag}:")
        if not bench["headlines"]:
            lines.append("  (no headline metrics found)")
        for path, value in sorted(bench["headlines"].items()):
            lines.append(f"  {path} = {value:g}")
    for entry in doc.get("skipped", ()):
        lines.append(f"skipped {entry['file']}: {entry['error']}")
    return "\n".join(lines)


def validate_trajectory(doc: object) -> list[str]:
    """Schema check for an aggregated document; empty list when valid."""
    errors: list[str] = []
    if not isinstance(doc, dict):
        return ["trajectory doc must be an object"]
    if doc.get("schema") != TRAJECTORY_SCHEMA:
        errors.append(
            f"schema must be {TRAJECTORY_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    benchmarks = doc.get("benchmarks")
    if not isinstance(benchmarks, list):
        return errors + ["'benchmarks' must be a list"]
    for i, bench in enumerate(benchmarks):
        where = f"benchmarks[{i}]"
        if not isinstance(bench, dict):
            errors.append(f"{where}: must be an object")
            continue
        if not isinstance(bench.get("name"), str) or not bench.get("name"):
            errors.append(f"{where}: missing name")
        headlines = bench.get("headlines")
        if not isinstance(headlines, dict):
            errors.append(f"{where}: 'headlines' must be an object")
            continue
        for path, value in headlines.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                errors.append(f"{where}: headline {path!r} is not numeric")
    return errors
