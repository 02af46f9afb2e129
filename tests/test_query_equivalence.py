"""Property-style equivalence: client-side filtering must return
bit-identical results to push-down, and ``limit`` must return a prefix.

One dataset, two deployments — the default and a push-down-off variant
— and all seven query types run against each.  Results are compared as
ordered tid lists: after the pipeline's final merge/dedupe the output
order is deterministic.  ``tests/test_query_correctness.py`` is the
absolute check against a brute-force oracle.
"""

from __future__ import annotations

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.model import MBR, TimeRange

N_TRAJS = 80
SEED = 4242


def _make(dataset, **overrides):
    config = TManConfig(
        boundary=TDRIVE_SPEC.boundary,
        max_resolution=12,
        num_shards=2,
        kv_workers=2,
        split_rows=500,
        **overrides,
    )
    tman = TMan(config)
    tman.bulk_load(dataset)
    return tman


@pytest.fixture(scope="module")
def dataset():
    return tdrive_like(N_TRAJS, seed=SEED)


@pytest.fixture(scope="module")
def deployments(dataset):
    variants = {
        "scheduled": dict(),
        "no_push_down": dict(push_down=False),
    }
    tmans = {name: _make(dataset, **kw) for name, kw in variants.items()}
    yield tmans
    for tman in tmans.values():
        tman.close()


def _queries(dataset):
    span = TDRIVE_SPEC.boundary
    mid_x = (span.x1 + span.x2) / 2
    mid_y = (span.y1 + span.y2) / 2
    window = MBR(span.x1, span.y1, mid_x, mid_y)
    probe = dataset[7]
    t0 = probe.time_range.start
    return {
        "temporal": lambda t: t.temporal_range_query(TimeRange(t0, t0 + 5400)),
        "spatial": lambda t: t.spatial_range_query(window),
        "st": lambda t: t.st_range_query(window, TimeRange(t0, t0 + 7200)),
        "idt": lambda t: t.id_temporal_query(
            probe.oid, TimeRange(t0, t0 + 3600)
        ),
        "threshold": lambda t: t.threshold_similarity_query(
            probe, 0.2, measure="frechet"
        ),
        "topk": lambda t: t.top_k_similarity_query(probe, 5, measure="frechet"),
        "knn": lambda t: t.knn_point_query(mid_x, mid_y, 5),
    }


QUERY_NAMES = ["temporal", "spatial", "st", "idt", "threshold", "topk", "knn"]


@pytest.mark.parametrize("qname", QUERY_NAMES)
def test_no_push_down_is_order_identical(deployments, dataset, qname):
    run = _queries(dataset)[qname]
    base = run(deployments["scheduled"])
    other = run(deployments["no_push_down"])
    assert [t.tid for t in base.trajectories] == [
        t.tid for t in other.trajectories
    ]
    if base.distances is not None:
        assert base.distances == other.distances


@pytest.mark.parametrize("qname", QUERY_NAMES)
def test_results_are_nonempty(deployments, dataset, qname):
    # Guard against the equivalence above passing vacuously.
    res = _queries(dataset)[qname](deployments["scheduled"])
    assert len(res.trajectories) > 0


@pytest.mark.parametrize("qname", ["temporal", "spatial", "st", "idt"])
def test_counts_match(deployments, dataset, qname):
    from repro.query.types import (
        IDTemporalQuery,
        SpatialRangeQuery,
        STRangeQuery,
        TemporalRangeQuery,
    )

    span = TDRIVE_SPEC.boundary
    mid_x = (span.x1 + span.x2) / 2
    mid_y = (span.y1 + span.y2) / 2
    window = MBR(span.x1, span.y1, mid_x, mid_y)
    probe = dataset[7]
    t0 = probe.time_range.start
    q = {
        "temporal": TemporalRangeQuery(TimeRange(t0, t0 + 5400)),
        "spatial": SpatialRangeQuery(window),
        "st": STRangeQuery(window, TimeRange(t0, t0 + 7200)),
        "idt": IDTemporalQuery(probe.oid, TimeRange(t0, t0 + 3600)),
    }[qname]
    counts = {name: t.count(q).count for name, t in deployments.items()}
    assert len(set(counts.values())) == 1, counts


def test_limit_scans_less_under_scheduler(deployments, dataset):
    # Early termination through the window scheduler: limit=k touches
    # strictly fewer candidates than the full run (per-stage proof).
    tmin = min(t.time_range.start for t in dataset)
    tmax = max(t.time_range.end for t in dataset)
    tr = TimeRange(tmin, tmax)  # matches everything -> limit prunes a lot
    tman = deployments["scheduled"]
    full = tman.temporal_range_query(tr)
    lim = tman.temporal_range_query(tr, limit=2)
    assert len(lim.trajectories) == 2
    assert lim.candidates < full.candidates
    assert lim.profile["windows"].rows_out <= full.profile["windows"].rows_out
    assert lim.profile["decode"].rows_in <= full.profile["decode"].rows_in


def test_limit_equivalence(deployments, dataset):
    # Early termination returns a prefix of the full result either way.
    probe = dataset[7]
    t0 = probe.time_range.start
    tr = TimeRange(t0, t0 + 7200)
    full = deployments["scheduled"].temporal_range_query(tr)
    for name in ("scheduled", "no_push_down"):
        lim = deployments[name].temporal_range_query(tr, limit=3)
        assert [t.tid for t in lim.trajectories] == [
            t.tid for t in full.trajectories[:3]
        ]
