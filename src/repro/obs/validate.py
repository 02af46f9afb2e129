"""CLI schema check for exported observability documents.

``python -m repro.obs.validate FILE [FILE...]`` exits non-zero when any
file fails :func:`repro.obs.export.validate_snapshot`, so exporter drift
breaks a build instead of dashboards.  With ``--stats`` the files are
checked against the workload-statistics schema
(:func:`repro.obs.stats.validate_workload_stats`) instead; CI runs that
against the ``repro stats`` export.
"""

from __future__ import annotations

import json
import sys

from repro.obs.export import validate_snapshot
from repro.obs.stats import validate_workload_stats


def main(argv: list[str] | None = None) -> int:
    """Validate each document file; returns the process exit code."""
    paths = list(sys.argv[1:] if argv is None else argv)
    stats_mode = "--stats" in paths
    if stats_mode:
        paths = [p for p in paths if p != "--stats"]
    if not paths:
        print(
            "usage: python -m repro.obs.validate [--stats] FILE.json [...]",
            file=sys.stderr,
        )
        return 2
    validate = validate_workload_stats if stats_mode else validate_snapshot
    failed = False
    for path in paths:
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable ({exc})", file=sys.stderr)
            failed = True
            continue
        errors = validate(doc)
        if errors:
            failed = True
            for error in errors:
                print(f"{path}: {error}", file=sys.stderr)
        elif stats_mode:
            groups = len(doc.get("groups", []))
            print(
                f"{path}: schema-valid ({groups} workload groups, "
                f"{doc.get('total_queries', 0)} queries)"
            )
        else:
            metric_count = len(doc.get("metrics", []))
            print(f"{path}: schema-valid ({metric_count} metrics)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
