"""Consolidated benchmark report: ``python -m benchmarks.report``.

Collects every table under ``benchmarks/results/`` into a single document
(stdout or a file), ordered by experiment id, so a full
``pytest benchmarks/ --benchmark-only`` run can be summarized in one place.
The committed report is ``benchmarks/results/REPORT.txt``::

    python -m benchmarks.report --output benchmarks/results/REPORT.txt
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

# Display order: paper artifacts first, ablations and extensions after.
ORDER = [
    "fig14_time_ranges",
    "fig14_resolutions",
    "table1_times",
    "table1_candidates",
    "fig15_alpha_beta",
    "fig16a_used_shapes",
    "fig16b_encoding_query",
    "fig16c_encoding_storage",
    "fig17_trq_times",
    "fig17_trq_simulated",
    "fig17_trq_candidates",
    "fig17_trq_transfer",
    "fig18_srq_times",
    "fig18_srq_simulated",
    "fig18_srq_candidates",
    "fig19a_trips_per_object",
    "fig19a_idt",
    "fig19b_strq",
    "fig20_threshold_similarity",
    "fig21_topk_times",
    "fig21_topk_candidates",
    "fig22a_scalability",
    "fig22b_updates",
    "fig23_tail_latency",
    "fig23_tail_candidates",
    "ablation_storage_model",
    "ablation_pushdown",
    "ext_count_queries",
    "ext_knn_point",
    "ext_similarity_join",
    "ext_compression",
    "ext_storage_engines",
]
# The report's own file: never a table of the report.
REPORT_FILE = "REPORT.txt"


def build_report(results_dir: Path) -> str:
    """Concatenate all known result tables in experiment order."""
    if not results_dir.exists():
        raise FileNotFoundError(
            f"{results_dir} not found — run `pytest benchmarks/ --benchmark-only` first"
        )
    sections = ["TMan reproduction — benchmark report", "=" * 40, ""]
    known = set()
    for name in ORDER:
        path = results_dir / f"{name}.txt"
        if path.exists():
            known.add(path.name)
            sections.append(path.read_text().rstrip())
            sections.append("")
    # Any table not in the curated order still gets included at the end.
    for path in sorted(results_dir.glob("*.txt")):
        if path.name not in known and path.name != REPORT_FILE:
            sections.append(path.read_text().rstrip())
            sections.append("")
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description="Summarize benchmark results")
    parser.add_argument(
        "--results",
        default=Path(__file__).resolve().parent / "results",
        type=Path,
        help="results directory (default: <repo>/benchmarks/results)",
    )
    parser.add_argument("--output", type=Path, help="write to a file instead of stdout")
    args = parser.parse_args(argv)
    report = build_report(args.results)
    if args.output:
        args.output.write_text(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
