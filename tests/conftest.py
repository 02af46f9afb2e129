"""Shared fixtures: small deterministic datasets and TMan deployments."""

from __future__ import annotations

import os
from pathlib import Path

import pytest
from hypothesis import settings

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, QueryWorkload, tdrive_like
from repro.geometry.distance import point_to_polyline_arrays
from repro.geometry.relations import polyline_intersects_rect
from repro.model import MBR, STPoint, TimeRange, Trajectory
from repro.query.types import (
    IDTemporalQuery,
    KNNPointQuery,
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
    ThresholdSimilarityQuery,
    TopKSimilarityQuery,
)
from repro.similarity.measures import distance_by_name

# `pytest --hypothesis-profile=fuzz`: a deeper, still reproducible sweep of
# the property tests that leave their example count to the profile.
settings.register_profile("fuzz", max_examples=2000, derandomize=True, deadline=None)


@pytest.fixture(scope="session")
def small_dataset() -> list[Trajectory]:
    """200 TDrive-like trajectories, generated once per session."""
    return tdrive_like(200, seed=101)


@pytest.fixture(scope="session")
def workload(small_dataset) -> QueryWorkload:
    return QueryWorkload(TDRIVE_SPEC, small_dataset, seed=202)


@pytest.fixture(scope="session")
def loaded_tman(small_dataset) -> TMan:
    """A default-schema TMan (TShape primary, TR + IDT secondary) with data."""
    config = TManConfig(
        boundary=TDRIVE_SPEC.boundary,
        max_resolution=14,
        num_shards=2,
        kv_workers=1,
        split_rows=5000,
    )
    tman = TMan(config)
    tman.bulk_load(small_dataset)
    yield tman
    tman.close()


def seven_queries(dataset) -> dict:
    """One descriptor per query type: the south-west quarter of the TDrive
    extent and the hours after ``dataset[7]`` starts."""
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


def brute_force_temporal(trajs, time_range):
    """Reference TRQ semantics."""
    return sorted(t.tid for t in trajs if t.time_range.intersects(time_range))


def brute_force_spatial(trajs, window: MBR):
    """Reference SRQ semantics (polyline intersection)."""
    return sorted(
        t.tid
        for t in trajs
        if polyline_intersects_rect([p.xy for p in t.points], window)
    )


def brute_force_query(trajs, q):
    """``(tids, distances)`` of any query descriptor over the raw
    trajectories, from the brute-force helpers and the exact kernels: sorted
    tids for the single-pass types, the ranked answer and its distances for
    top-k and kNN."""
    if isinstance(q, TemporalRangeQuery):
        return brute_force_temporal(trajs, q.time_range), None
    if isinstance(q, SpatialRangeQuery):
        return brute_force_spatial(trajs, q.window), None
    if isinstance(q, STRangeQuery):
        both = set(brute_force_temporal(trajs, q.time_range))
        return sorted(both & set(brute_force_spatial(trajs, q.window))), None
    if isinstance(q, IDTemporalQuery):
        own = [t for t in trajs if t.oid == q.oid]
        return brute_force_temporal(own, q.time_range), None
    if isinstance(q, ThresholdSimilarityQuery):
        distance = distance_by_name(q.measure)
        return sorted(
            t.tid
            for t in trajs
            if t.tid != q.query.tid
            and distance(q.query.points, t.points) <= q.threshold
        ), None
    if isinstance(q, TopKSimilarityQuery):
        distance = distance_by_name(q.measure)
        ranked = sorted(
            (distance(q.query.points, t.points), t.tid)
            for t in trajs
            if t.tid != q.query.tid
        )
    else:
        assert isinstance(q, KNNPointQuery)
        ranked = sorted(
            (point_to_polyline_arrays(q.x, q.y, *t.xy_arrays()[1:]), t.tid)
            for t in trajs
        )
    ranked = ranked[: q.k]
    return [tid for _, tid in ranked], [d for d, _ in ranked]


@pytest.fixture(scope="session")
def brute():
    """Expose the brute-force reference functions as a namespace fixture."""

    class _Brute:
        temporal = staticmethod(brute_force_temporal)
        spatial = staticmethod(brute_force_spatial)
        query = staticmethod(brute_force_query)

    return _Brute


def make_line_trajectory(
    oid: str = "o",
    tid: str = "t",
    start=(116.30, 39.90),
    end=(116.40, 39.95),
    t0: float = 1000.0,
    n: int = 20,
    dt: float = 60.0,
) -> Trajectory:
    """A straight-line helper used across index tests."""
    pts = [
        STPoint(
            t0 + i * dt,
            start[0] + (end[0] - start[0]) * i / max(1, n - 1),
            start[1] + (end[1] - start[1]) * i / max(1, n - 1),
        )
        for i in range(n)
    ]
    return Trajectory(oid, tid, pts)


@pytest.fixture
def line_trajectory() -> Trajectory:
    return make_line_trajectory()


DATA_DIR = Path(__file__).parent / "data"


def reaped(process) -> bool:
    """True once a worker ``Popen`` has exited and been waited for: it is
    neither running nor a zombie child of this process."""
    try:
        os.waitpid(process.pid, os.WNOHANG)
    except ChildProcessError:
        return process.returncode is not None
    return False
