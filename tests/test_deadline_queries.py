"""End-to-end deadline semantics across every query type.

Three-way matrix per query type: a generous deadline changes nothing, an
already-expired deadline fails fast with :class:`QueryTimeoutError`, and an
expired deadline with ``allow_partial`` returns a truncated result flagged
``partial`` instead of raising.  A final equivalence class checks that a
deployment with every limit configured-but-unstressed returns bit-identical
results to an unlimited one.
"""

from __future__ import annotations

import pytest

from repro import (
    IDTemporalQuery,
    QueryTimeoutError,
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
    ThresholdSimilarityQuery,
    TMan,
    TManConfig,
    TopKSimilarityQuery,
)
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.model import MBR, TimeRange
from repro.query.types import KNNPointQuery

N_TRAJS = 60
SEED = 777

QUERY_NAMES = ["temporal", "spatial", "st", "idt", "threshold", "topk", "knn"]

# Far past any wall clock this suite will see; never expires mid-query.
GENEROUS_MS = 300_000.0
# Expired before the first cooperative check (sub-microsecond budget).
EXPIRED_MS = 0.0001


@pytest.fixture(scope="module")
def dataset():
    return tdrive_like(N_TRAJS, seed=SEED)


def _config(**overrides):
    base = dict(
        boundary=TDRIVE_SPEC.boundary,
        max_resolution=12,
        num_shards=2,
        kv_workers=2,
        split_rows=500,
    )
    base.update(overrides)
    return TManConfig(**base)


@pytest.fixture(scope="module")
def tman(dataset):
    t = TMan(_config())
    t.bulk_load(dataset)
    yield t
    t.close()


def _queries(dataset):
    span = TDRIVE_SPEC.boundary
    mid_x = (span.x1 + span.x2) / 2
    mid_y = (span.y1 + span.y2) / 2
    window = MBR(span.x1, span.y1, mid_x, mid_y)
    probe = dataset[7]
    t0 = probe.time_range.start
    return {
        "temporal": TemporalRangeQuery(TimeRange(t0, t0 + 5400)),
        "spatial": SpatialRangeQuery(window),
        "st": STRangeQuery(window, TimeRange(t0, t0 + 7200)),
        "idt": IDTemporalQuery(probe.oid, TimeRange(t0, t0 + 3600)),
        "threshold": ThresholdSimilarityQuery(probe, 0.2, "frechet"),
        "topk": TopKSimilarityQuery(probe, 5, "frechet"),
        "knn": KNNPointQuery(mid_x, mid_y, 5),
    }


@pytest.fixture(scope="module")
def baseline(tman, dataset):
    out = {}
    for name, q in _queries(dataset).items():
        res = tman.query(q)
        assert len(res.trajectories) > 0
        out[name] = ([t.tid for t in res.trajectories], res.distances)
    return out


@pytest.mark.parametrize("qname", QUERY_NAMES)
def test_generous_deadline_changes_nothing(tman, dataset, baseline, qname):
    res = tman.query(_queries(dataset)[qname], deadline_ms=GENEROUS_MS)
    tids, distances = baseline[qname]
    assert [t.tid for t in res.trajectories] == tids
    if distances is not None:
        assert res.distances == distances
    assert res.partial is False
    assert res.profile.deadline_ms == GENEROUS_MS
    assert res.profile.deadline_remaining_ms > 0


@pytest.mark.parametrize("qname", QUERY_NAMES)
def test_expired_deadline_fails_fast(tman, dataset, qname):
    with pytest.raises(QueryTimeoutError):
        tman.query(_queries(dataset)[qname], deadline_ms=EXPIRED_MS)


@pytest.mark.parametrize("qname", QUERY_NAMES)
def test_expired_deadline_with_allow_partial_truncates(
    tman, dataset, baseline, qname
):
    res = tman.query(
        _queries(dataset)[qname], deadline_ms=EXPIRED_MS, allow_partial=True
    )
    assert res.partial is True
    assert res.profile.partial is True
    # A truncated result is a prefix of the work, never invented rows.
    baseline_tids = set(baseline[qname][0])
    dataset_tids = {t.tid for t in dataset}
    for traj in res.trajectories:
        assert traj.tid in dataset_tids
    if qname in ("temporal", "spatial", "st", "idt", "threshold"):
        assert {t.tid for t in res.trajectories} <= baseline_tids


def test_count_honors_deadline(tman, dataset):
    q = _queries(dataset)["temporal"]
    full = tman.count(q)
    assert full.count > 0
    with pytest.raises(QueryTimeoutError):
        tman.count(q, deadline_ms=EXPIRED_MS)


def test_default_deadline_from_config(dataset):
    with TMan(_config(default_deadline_ms=EXPIRED_MS)) as t:
        t.bulk_load(dataset[:10])
        q = TemporalRangeQuery(TimeRange(0, 10**9))
        with pytest.raises(QueryTimeoutError):
            t.query(q)
        # An explicit per-query deadline overrides the config default.
        res = t.query(q, deadline_ms=GENEROUS_MS)
        assert len(res) == 10


def test_deadline_spent_in_admission_queue_is_on_the_profile(dataset):
    """A query whose budget runs out while queued comes back partial, and
    its profile records the deadline like an executed query's."""
    config = _config(
        admission_max_inflight=1, admission_max_queue=4,
        admission_queue_timeout_ms=GENEROUS_MS,
    )
    with TMan(config) as t:
        t.bulk_load(dataset[:10])
        t.admission.acquire()  # hold the only slot
        try:
            res = t.query(
                _queries(dataset)["temporal"], deadline_ms=20.0, allow_partial=True
            )
        finally:
            t.admission.release()
    assert res.partial and res.profile.partial
    assert res.profile.plan == "shed"
    assert res.profile.deadline_ms == 20.0
    assert res.profile.deadline_remaining_ms <= 0


def test_deadline_exceeded_metric_counts_outcomes(tman, dataset):
    from repro import obs

    counter = obs.registry().get("query_deadline_exceeded_total")
    err_before = counter.labels(outcome="error").value
    part_before = counter.labels(outcome="partial").value
    with pytest.raises(QueryTimeoutError):
        tman.query(_queries(dataset)["temporal"], deadline_ms=EXPIRED_MS)
    tman.query(
        _queries(dataset)["temporal"], deadline_ms=EXPIRED_MS, allow_partial=True
    )
    assert counter.labels(outcome="error").value == err_before + 1
    assert counter.labels(outcome="partial").value == part_before + 1


class TestLimitsDisabledEquivalence:
    """Configured-but-unstressed limits must not change any result."""

    @pytest.fixture(scope="class")
    def limited_tman(self, dataset):
        t = TMan(
            _config(
                admission_max_inflight=8,
                admission_max_queue=8,
                memtable_soft_bytes=1 << 16,
                memtable_hard_bytes=1 << 20,
                default_deadline_ms=GENEROUS_MS,
            )
        )
        t.bulk_load(dataset)
        yield t
        t.close()

    @pytest.mark.parametrize("qname", QUERY_NAMES)
    def test_bit_identical_results(
        self, tman, limited_tman, dataset, baseline, qname
    ):
        res = limited_tman.query(_queries(dataset)[qname])
        tids, distances = baseline[qname]
        assert [t.tid for t in res.trajectories] == tids
        if distances is not None:
            assert res.distances == distances
        assert res.partial is False
