"""Correctness tests for the baseline systems against the oracle."""

import pytest

from repro import obs
from benchmarks.comparators import DFT, DITA, REPOSE, STHadoop, TManXZ, TManXZT, TrajMesa, make_trass
from repro.datasets import TDRIVE_SPEC, QueryWorkload, tdrive_like
from repro.model import TimeRange
from repro.similarity.measures import distance_by_name

from tests.conftest import brute_force_spatial, brute_force_temporal


@pytest.fixture(scope="module")
def dataset():
    return tdrive_like(150, seed=91)


@pytest.fixture(scope="module")
def wl(dataset):
    return QueryWorkload(TDRIVE_SPEC, dataset, seed=92)


class TestTrajMesa:
    @pytest.fixture(scope="class")
    def system(self, dataset):
        tm = TrajMesa(TDRIVE_SPEC.boundary, max_resolution=14, num_shards=2, kv_workers=1)
        tm.bulk_load(dataset)
        yield tm
        tm.close()

    def test_trq(self, system, dataset, wl):
        for tr in wl.temporal_windows(3600, 3):
            got = sorted(t.tid for t in system.temporal_range_query(tr).trajectories)
            assert got == brute_force_temporal(dataset, tr)

    def test_srq(self, system, dataset, wl):
        for window in wl.spatial_windows(2.0, 3):
            got = sorted(t.tid for t in system.spatial_range_query(window).trajectories)
            assert got == brute_force_spatial(dataset, window)

    def test_result_profile_is_finished(self, system, dataset):
        """The profile states the query's wall time, start and plan, so a
        baseline query renders as a Chrome trace like a TMan query."""
        result = system.temporal_range_query(dataset[0].time_range)
        profile = result.profile
        assert profile.elapsed_ms == result.elapsed_ms > 0
        assert profile.plan == result.plan == "trajmesa/xzt"
        names = [e["name"] for e in obs.chrome_trace([profile])["traceEvents"]]
        assert names[:2] == ["query.execute", "pipeline.run"]

    def test_strq(self, system, dataset, wl):
        for window, tr in wl.st_windows(3.0, 7200, 3):
            got = sorted(t.tid for t in system.st_range_query(window, tr).trajectories)
            expected = sorted(
                set(brute_force_temporal(dataset, tr))
                & set(brute_force_spatial(dataset, window))
            )
            assert got == expected

    def test_idt(self, system, dataset, wl):
        oid = dataset[0].oid
        span = TimeRange(0, 1e9)
        got = sorted(t.tid for t in system.id_temporal_query(oid, span).trajectories)
        assert got == sorted(t.tid for t in dataset if t.oid == oid)

    def test_threshold_similarity(self, system, dataset, wl):
        distance = distance_by_name("hausdorff")
        q = dataset[0]
        got = sorted(
            t.tid
            for t in system.threshold_similarity_query(q, 0.03, "hausdorff").trajectories
        )
        expected = sorted(
            t.tid
            for t in dataset
            if t.tid != q.tid and distance(q.points, t.points) <= 0.03
        )
        assert got == expected

    def test_storage_redundancy(self, system, dataset):
        """TrajMesa stores each trajectory once per index table."""
        assert system.temporal_table.count_rows() == len(dataset)
        assert system.spatial_table.count_rows() == len(dataset)
        assert system.st_table.count_rows() == len(dataset)
        assert system.id_table.count_rows() == len(dataset)


class TestSTHadoop:
    @pytest.fixture(scope="class")
    def system(self, dataset):
        sth = STHadoop(TDRIVE_SPEC.boundary, kv_workers=1)
        sth.bulk_load(dataset[:80])
        yield sth
        sth.close()

    def test_point_level_trq(self, system, dataset):
        """STH matches trajectories that have a *fix* in the window."""
        tr = dataset[0].time_range
        result = system.temporal_range_query(tr)
        assert result.profile.elapsed_ms == result.elapsed_ms > 0
        got = {t.tid for t in result.trajectories}
        expected = {
            t.tid
            for t in dataset[:80]
            if any(tr.start <= p.t <= tr.end for p in t.points)
        }
        assert got == expected

    def test_point_level_srq(self, system, dataset):
        window = dataset[0].mbr
        got = {t.tid for t in system.spatial_range_query(window).trajectories}
        expected = {
            t.tid
            for t in dataset[:80]
            if any(window.contains_point(p.lng, p.lat) for p in t.points)
        }
        assert got == expected

    def test_strq(self, system, dataset):
        target = dataset[0]
        res = system.st_range_query(target.mbr, target.time_range)
        assert target.tid in {t.tid for t in res.trajectories}

    def test_candidates_are_points(self, system, dataset):
        """Point-level candidates dwarf trajectory-level ones (Fig. 17b)."""
        tr = dataset[0].time_range
        res = system.temporal_range_query(tr)
        assert res.candidates >= len(res)

    def test_job_overhead_charged(self, system, dataset):
        res = system.temporal_range_query(dataset[0].time_range)
        assert res.simulated_ms >= system.job_overhead_ms


class TestRetrofits:
    def test_tman_xzt_matches_oracle(self, dataset, wl):
        sys_ = TManXZT(num_shards=2, kv_workers=1)
        sys_.bulk_load(dataset)
        for tr in wl.temporal_windows(3 * 3600, 3):
            got = sorted(t.tid for t in sys_.temporal_range_query(tr).trajectories)
            assert got == brute_force_temporal(dataset, tr)
        sys_.close()

    def test_tman_xz_matches_oracle(self, dataset, wl):
        sys_ = TManXZ(TDRIVE_SPEC.boundary, max_resolution=14, num_shards=2, kv_workers=1)
        sys_.bulk_load(dataset)
        for window in wl.spatial_windows(2.0, 3):
            got = sorted(t.tid for t in sys_.spatial_range_query(window).trajectories)
            assert got == brute_force_spatial(dataset, window)
        sys_.close()

    def test_tman_xz_strq(self, dataset, wl):
        sys_ = TManXZ(TDRIVE_SPEC.boundary, max_resolution=14, num_shards=2, kv_workers=1)
        sys_.bulk_load(dataset)
        window, tr = wl.st_windows(3.0, 7200, 1)[0]
        got = sorted(t.tid for t in sys_.st_range_query(window, tr).trajectories)
        expected = sorted(
            set(brute_force_temporal(dataset, tr))
            & set(brute_force_spatial(dataset, window))
        )
        assert got == expected
        sys_.close()

    def test_trass_is_tman_with_xzstar_knobs(self, dataset):
        trass = make_trass(TDRIVE_SPEC.boundary, max_resolution=14, num_shards=1, kv_workers=1)
        assert trass.config.alpha == 2 and trass.config.beta == 2
        assert trass.config.shape_encoding == "bitmap"
        assert not trass.config.use_index_cache
        trass.bulk_load(dataset[:50])
        target = dataset[3]
        res = trass.spatial_range_query(target.mbr)
        assert target.tid in {t.tid for t in res.trajectories}
        trass.close()


class TestInMemorySimilaritySystems:
    @pytest.mark.parametrize("cls", [DFT, DITA, REPOSE])
    @pytest.mark.parametrize("measure", ["frechet", "dtw", "hausdorff"])
    def test_threshold_matches_oracle(self, dataset, cls, measure):
        distance = distance_by_name(measure)
        system = cls(TDRIVE_SPEC.boundary)
        system.bulk_load(dataset)
        q = dataset[1]
        theta = 0.04 if measure != "dtw" else 0.8
        got = sorted(
            t.tid for t in system.threshold_similarity_query(q, theta, measure).trajectories
        )
        expected = sorted(
            t.tid
            for t in dataset
            if t.tid != q.tid and distance(q.points, t.points) <= theta
        )
        assert got == expected

    @pytest.mark.parametrize("cls", [DFT, DITA, REPOSE])
    def test_topk_matches_oracle(self, dataset, cls):
        distance = distance_by_name("frechet")
        system = cls(TDRIVE_SPEC.boundary)
        system.bulk_load(dataset)
        q = dataset[2]
        k = 5
        res = system.top_k_similarity_query(q, k, "frechet")
        expected = sorted(
            ((distance(q.points, t.points), t.tid) for t in dataset if t.tid != q.tid)
        )[:k]
        assert [t.tid for t in res.trajectories] == [tid for _, tid in expected]

    @pytest.mark.parametrize("cls", [DFT, DITA, REPOSE])
    def test_topk_rejects_bad_k(self, dataset, cls):
        system = cls(TDRIVE_SPEC.boundary)
        system.bulk_load(dataset[:10])
        with pytest.raises(ValueError):
            system.top_k_similarity_query(dataset[0], 0)

    def test_repose_pruning_reduces_verifications(self, dataset):
        system = REPOSE(TDRIVE_SPEC.boundary)
        system.bulk_load(dataset)
        res = system.top_k_similarity_query(dataset[0], 3, "frechet")
        assert res.candidates < len(dataset) - 1
