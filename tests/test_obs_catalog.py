"""Metric-catalog drift lint: registry <-> ``docs/observability.md``.

Both directions are enforced: every metric family registered by the code
must have a catalog row, and every catalogued name must correspond to a
registered family.  Adding a metric without documenting it (or renaming
one and leaving the docs stale) fails this test instead of producing an
unreadable dashboard.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro import TMan, TManConfig, obs
from repro.datasets import TDRIVE_SPEC, tdrive_like

DOCS = Path(__file__).resolve().parent.parent / "docs" / "observability.md"

# Backticked identifiers inside markdown table rows, e.g.
# `kv_retry_total{op,capped}` or `cache_index_hits` / `cache_index_misses`.
_NAME_RE = re.compile(r"`([a-z][a-z0-9_]*)(?:\{[^}]*\})?`")


def documented_metrics() -> set[str]:
    """Names from the '## Metric catalog' section's tables only.

    Other sections (e.g. the QueryProfile field table) use backticked
    snake_case identifiers that are not registry metrics.
    """
    names: set[str] = set()
    in_catalog = False
    for line in DOCS.read_text().splitlines():
        if line.startswith("## "):
            in_catalog = line.strip() == "## Metric catalog"
            continue
        if not in_catalog or not line.startswith("|"):
            continue
        first_cell = line.split("|")[1] if line.count("|") >= 2 else ""
        for match in _NAME_RE.finditer(first_cell):
            names.add(match.group(1))
    # Drop table headers that happen to use backticks but are not metrics.
    return {n for n in names if "_" in n}


@pytest.fixture(scope="module")
def registered_metrics():
    """Metric families present after exercising a real deployment.

    Family registration happens at module import or object construction;
    running one query of each class touches every layer.
    """
    obs.reset_all()
    config = TManConfig(
        boundary=TDRIVE_SPEC.boundary,
        max_resolution=12,
        num_shards=1,
        kv_workers=2,
        admission_max_inflight=4,
    )
    tman = TMan(config)
    data = tdrive_like(30, seed=5)
    tman.bulk_load(data)
    from repro.model import TimeRange

    span = data[0].time_range
    tman.temporal_range_query(TimeRange(span.start, span.end))
    tman.spatial_range_query(data[0].mbr)
    tman.id_temporal_query(data[0].oid, TimeRange(span.start, span.end))
    tman.top_k_similarity_query(data[0], 2)
    # modules that only register under faults/injection
    import repro.kvstore.simfault  # noqa: F401
    import repro.runtime.backpressure  # noqa: F401

    names = {m["name"] for m in obs.snapshot()["metrics"]}
    tman.close()
    obs.reset_all()
    return names


def test_docs_file_exists():
    assert DOCS.is_file(), f"missing {DOCS}"


def test_every_registered_metric_is_documented(registered_metrics):
    documented = documented_metrics()
    undocumented = sorted(registered_metrics - documented)
    assert not undocumented, (
        "metrics registered in code but missing from docs/observability.md: "
        f"{undocumented}"
    )


def test_every_documented_metric_is_registered(registered_metrics):
    documented = documented_metrics()
    stale = sorted(documented - registered_metrics)
    assert not stale, (
        "metrics documented in docs/observability.md but not registered by "
        f"the code (renamed or removed?): {stale}"
    )


def test_read_path_families_are_registered(registered_metrics):
    """The scheduler / block-cache / multi-get families dashboards read
    must exist outright — the drift lint alone would let a row and its
    metric disappear together."""
    required = {
        "kv_blockcache_hits_total",
        "kv_blockcache_misses_total",
        "kv_blockcache_evictions_total",
        "kv_multirange_scans_total",
        "kv_multirange_windows_started_total",
        "kv_multiget_batches_total",
    }
    assert required <= registered_metrics, sorted(required - registered_metrics)


def test_catalog_parser_sees_a_sane_catalog():
    documented = documented_metrics()
    # the catalog is substantial; a parser regression would shrink it
    assert len(documented) >= 30, sorted(documented)
    assert "query_total" in documented
    assert "kv_rows_scanned_total" in documented
