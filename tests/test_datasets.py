"""Tests for the synthetic dataset generators and workloads."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from repro.core.quadtree import QuadTreeGrid
from repro.core.tshape import TShapeIndex
from repro.datasets import (
    LORRY_SPEC,
    TDRIVE_SPEC,
    QueryWorkload,
    lorry_like,
    replicate_dataset,
    tdrive_like,
)


class TestDeterminism:
    def test_same_seed_same_data(self):
        a = tdrive_like(50, seed=1)
        b = tdrive_like(50, seed=1)
        assert [t.tid for t in a] == [t.tid for t in b]
        assert a[0].points == b[0].points

    def test_different_seed_different_data(self):
        a = tdrive_like(50, seed=1)
        b = tdrive_like(50, seed=2)
        assert a[0].points != b[0].points

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            tdrive_like(0)


def _digest(trajs) -> str:
    """sha256 over every trajectory's ids and raw column bytes."""
    h = hashlib.sha256()
    for t in trajs:
        b = t.block
        for part in (t.oid.encode(), t.tid.encode(), b.ts.tobytes(), b.xs.tobytes(),
                     b.ys.tobytes()):
            h.update(len(part).to_bytes(8, "little"))
            h.update(part)
    return h.hexdigest()


class TestGolden:
    """The generators' output, bit for bit: the benchmark spine and every
    paper figure read these datasets, so a change that moves a single draw
    or float operation must show up here first."""

    def test_tdrive_digest(self):
        assert _digest(tdrive_like(300, seed=42, max_points=50)) == (
            "5cbd75b7d8a5e804bb09247d1414e51193cd7720c082c34ec0c8029f6e326d53"
        )

    def test_lorry_digest(self):
        assert _digest(lorry_like(300, seed=43, max_points=40)) == (
            "0fbd789ad12c85d766fde9e48b4197c679d86a2f58f7937475ac838cd5263044"
        )

    def test_replicated_digest(self):
        base = lorry_like(50, seed=43, max_points=40)
        assert _digest(list(replicate_dataset(base, 3, LORRY_SPEC))) == (
            "4502b33616df483189b0768c0675d909c48f9e27daa0edf17b06efc6975da7c5"
        )


class TestColumnar:
    def test_generated_points_are_columns(self):
        """A generated trajectory retains its three float64 columns and a
        few fixed-size objects, not one object per point (184 B/point when
        every fix was an STPoint)."""
        tdrive_like(5, seed=1)  # imports and numpy caches stay out of the count
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            data = tdrive_like(2000, seed=42, max_points=50)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / sum(len(t) for t in data) <= 64
        assert all(t.block._points is None for t in data)

    def test_load_and_every_query_type_keep_columns(self):
        """Ingest, the range queries and the similarity rings all read the
        columns: none of them materializes a base trajectory's STPoints."""
        from repro import TMan, TManConfig

        data = tdrive_like(300, seed=5, max_points=40)
        query = data[4]
        x, y = float(query.block.xs[0]), float(query.block.ys[0])
        tman = TMan(TManConfig(boundary=TDRIVE_SPEC.boundary, max_resolution=13,
                               num_shards=2, kv_workers=2, split_rows=100))
        try:
            tman.bulk_load(data)
            results = [
                tman.temporal_range_query(query.time_range),
                tman.spatial_range_query(query.mbr),
                tman.st_range_query(query.mbr, query.time_range),
                tman.id_temporal_query(query.oid, query.time_range),
                tman.threshold_similarity_query(query, 0.1),
                tman.top_k_similarity_query(query, 5),
                tman.knn_point_query(x, y, 5),
            ]
        finally:
            tman.close()
        assert all(len(r) for r in results)
        assert all(t.block._points is None for t in data)


class TestShapes:
    @pytest.mark.parametrize("maker,spec", [(tdrive_like, TDRIVE_SPEC), (lorry_like, LORRY_SPEC)])
    def test_within_boundary(self, maker, spec):
        for traj in maker(100, seed=3):
            assert spec.boundary.contains(traj.mbr)

    @pytest.mark.parametrize("maker,spec", [(tdrive_like, TDRIVE_SPEC), (lorry_like, LORRY_SPEC)])
    def test_within_time_span(self, maker, spec):
        for traj in maker(100, seed=3):
            assert 0 <= traj.time_range.start
            assert traj.time_range.end <= spec.time_span

    def test_point_counts_bounded(self):
        for traj in tdrive_like(50, seed=3, max_points=80):
            assert 2 <= len(traj) <= 80

    def test_oids_are_reused_across_trips(self):
        trajs = tdrive_like(200, seed=4)
        oids = {t.oid for t in trajs}
        assert len(oids) < len(trajs)  # objects generate multiple trips


class TestPaperDistributions:
    """Fig. 14's facts, which the generators are tuned to match."""

    def test_tdrive_time_range_cdf(self):
        trajs = tdrive_like(2000, seed=42)
        durations = np.array([t.time_range.duration for t in trajs])
        under_2h = float((durations < 2 * 3600).mean())
        under_18h = float((durations < 18 * 3600).mean())
        assert 0.50 <= under_2h <= 0.80  # paper: ~66%
        assert under_18h >= 0.99

    def test_lorry_time_range_cdf(self):
        trajs = lorry_like(2000, seed=43)
        durations = np.array([t.time_range.duration for t in trajs])
        under_2h = float((durations < 2 * 3600).mean())
        under_14h = float((durations < 14 * 3600).mean())
        assert 0.78 <= under_2h <= 0.95  # paper: ~88%
        assert under_14h >= 0.99

    def test_tdrive_resolution_concentration(self):
        """Fig. 14(c): resolutions concentrated around 7-10 at 5x5."""
        trajs = tdrive_like(800, seed=42)
        index = TShapeIndex(QuadTreeGrid(TDRIVE_SPEC.boundary, 16), alpha=5, beta=5)
        resolutions = [index.index_trajectory(t).resolution for t in trajs]
        core = sum(1 for r in resolutions if 6 <= r <= 11) / len(resolutions)
        assert core >= 0.7

    def test_lorry_resolution_spread(self):
        """Fig. 14(d): resolutions mostly 9-14 over the wide boundary."""
        trajs = lorry_like(800, seed=43)
        index = TShapeIndex(QuadTreeGrid(LORRY_SPEC.boundary, 18), alpha=5, beta=5)
        resolutions = [index.index_trajectory(t).resolution for t in trajs]
        core = sum(1 for r in resolutions if 8 <= r <= 15) / len(resolutions)
        assert core >= 0.7


class TestReplication:
    def test_counts(self):
        base = tdrive_like(30, seed=9)
        out = list(replicate_dataset(base, 4, TDRIVE_SPEC))
        assert len(out) == 120

    def test_copy_zero_identical(self):
        base = tdrive_like(10, seed=9)
        out = list(replicate_dataset(base, 2, TDRIVE_SPEC))
        assert out[:10] == base

    def test_unique_tids(self):
        base = tdrive_like(20, seed=9)
        out = list(replicate_dataset(base, 5, TDRIVE_SPEC))
        tids = [t.tid for t in out]
        assert len(tids) == len(set(tids))

    def test_replicas_stay_in_boundary(self):
        base = tdrive_like(30, seed=9)
        for traj in replicate_dataset(base, 6, TDRIVE_SPEC):
            assert TDRIVE_SPEC.boundary.contains(traj.mbr)

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            list(replicate_dataset(tdrive_like(5), 0))


class TestWorkload:
    def test_rejects_empty_dataset(self):
        with pytest.raises(ValueError):
            QueryWorkload(TDRIVE_SPEC, [], seed=1)

    def test_temporal_windows_have_requested_length(self):
        wl = QueryWorkload(TDRIVE_SPEC, tdrive_like(50, seed=5), seed=6)
        for tr in wl.temporal_windows(3600, 10):
            assert tr.duration == pytest.approx(3600)

    def test_spatial_windows_size_km(self):
        from repro.geometry.distance import haversine_km

        wl = QueryWorkload(TDRIVE_SPEC, tdrive_like(50, seed=5), seed=6)
        for w in wl.spatial_windows(2.0, 5):
            width_km = haversine_km(w.x1, TDRIVE_SPEC.center[1], w.x2, TDRIVE_SPEC.center[1])
            assert width_km == pytest.approx(2.0, rel=0.05)

    def test_object_ids_exist(self):
        data = tdrive_like(50, seed=5)
        wl = QueryWorkload(TDRIVE_SPEC, data, seed=6)
        oids = {t.oid for t in data}
        assert all(o in oids for o in wl.object_ids(10))

    def test_deterministic(self):
        data = tdrive_like(50, seed=5)
        a = QueryWorkload(TDRIVE_SPEC, data, seed=6).temporal_windows(60, 5)
        b = QueryWorkload(TDRIVE_SPEC, data, seed=6).temporal_windows(60, 5)
        assert a == b

    def test_percentile(self):
        wl = QueryWorkload(TDRIVE_SPEC, tdrive_like(10, seed=5), seed=6)
        assert wl.percentile_ms([1, 2, 3, 4, 100], 50) == 3
