"""Tests for window generation and the push-down ablation."""

import pytest

from repro import TMan, TManConfig
from repro.core.st import STWindow
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.model import MBR
from repro.model.timerange import TimeRange
from repro.query.types import (
    KNNPointQuery,
    SpatialRangeQuery,
    STRangeQuery,
    ThresholdSimilarityQuery,
    TopKSimilarityQuery,
)
from repro.query.windows import (
    primary_windows_inclusive,
    primary_windows_u64,
    secondary_windows_inclusive,
    st_primary_windows,
)
from repro.storage.schema import RowKeyCodec, encode_u64


class TestWindowGeneration:
    def test_primary_windows_replicated_per_shard(self):
        codec = RowKeyCodec(4, index_width=8)
        windows = primary_windows_u64(codec, [(10, 20)])
        assert len(windows) == 4
        shards = {w[0][0] for w in windows}
        assert shards == {0, 1, 2, 3}

    def test_inclusive_adds_one(self):
        codec = RowKeyCodec(1, index_width=8)
        [(start, stop)] = primary_windows_inclusive(codec, [(10, 20)])
        assert start.endswith(encode_u64(10))
        assert stop.endswith(encode_u64(21))

    def test_secondary_windows_have_no_shard(self):
        [(start, stop)] = secondary_windows_inclusive([(5, 7)])
        assert start == encode_u64(5) and stop == encode_u64(8)

    def test_st_fine_windows(self):
        codec = RowKeyCodec(2, index_width=16)
        windows = st_primary_windows(
            codec, [STWindow(3, 3, ((100, 200), (300, 301)))]
        )
        # 2 shape ranges x 2 shards.
        assert len(windows) == 4
        start, stop = windows[0]
        assert encode_u64(3) in start

    def test_st_coarse_windows(self):
        codec = RowKeyCodec(1, index_width=16)
        [(start, stop)] = st_primary_windows(codec, [STWindow(3, 9, None)])
        assert start.endswith(encode_u64(3) + encode_u64(0))
        assert stop.endswith(encode_u64(10) + encode_u64(0))


class TestWindowGenerationCounts:
    """Deterministic work gates of the directory-pruned TShape walk (no
    clocks): lookups bounded by the occupied elements the window touches,
    one generation check per warm SRQ, one expansion per (query, window)."""

    @pytest.fixture(scope="class")
    def loaded(self):
        data = tdrive_like(300, seed=42, max_points=30)
        cfg = TManConfig(
            boundary=TDRIVE_SPEC.boundary, max_resolution=14, num_shards=2,
            kv_workers=2, secondary_indexes=("tr", "idt"),
        )
        with TMan(cfg) as tman:
            tman.bulk_load(data)
            yield tman, data

    @pytest.fixture()
    def expansions(self, monkeypatch):
        """Windows ``TShapeIndex.query_ranges`` was called with."""
        from repro.core.tshape import TShapeIndex

        calls = []
        walk = TShapeIndex.query_ranges
        monkeypatch.setattr(
            TShapeIndex, "query_ranges",
            lambda self, window, *a, **kw: calls.append(window) or walk(self, window, *a, **kw),
        )
        return calls

    def test_srq_lookups_bounded_by_occupied_elements_touched(self, loaded):
        tman, data = loaded
        index, cache = tman.tshape_index, tman.index_cache
        unit = MBR(0.0, 0.0, 1.0, 1.0)
        anchors = {}
        for traj in data:
            key = index.index_trajectory(traj)
            anchors[key.element_code] = key.anchor
        assert sorted(anchors) == cache.directory().tolist()
        for target in data[::25]:
            window = target.mbr.expanded(0.01)
            sr = index.grid.normalize_mbr(window)
            touched = sum(
                sr.intersects(index.element_rect(a).intersection(unit))
                for a in anchors.values()
            )
            tman.spatial_range_query(window)  # warm the LFU for this window
            before = cache.stats()
            res = tman.spatial_range_query(window)
            after = cache.stats()
            assert target.tid in {t.tid for t in res.trajectories}
            lookups = (after.hits + after.misses) - (before.hits + before.misses)
            assert 0 < lookups <= touched <= len(anchors)
            assert after.misses == before.misses
            # Warm: the directory's generation check is the only round trip.
            assert after.remote_fetches - before.remote_fetches == 1

    def test_one_expansion_per_query_whichever_plan_wins(self, loaded, expansions):
        tman, data = loaded
        t0 = data[0]
        start = t0.time_range.start
        narrow_time = STRangeQuery(t0.mbr.expanded(0.3), TimeRange(start, start + 600.0))
        # Two days from t0's start: the TR expansion opens dozens of
        # windows (from the origin it coalesces to one, and TR wins).
        narrow_space = STRangeQuery(t0.mbr, TimeRange(start, start + 2 * 86400.0))
        plans = set()
        for q in (narrow_time, narrow_space):
            del expansions[:]
            res = tman.query(q)
            plans.add(res.plan)
            assert expansions == [q.window], res.plan  # priced, and run if chosen
            del expansions[:]
            tman.count(q)
            assert expansions == [q.window]
        # Both outcomes of the costing are covered: without the shared
        # expansion the tshape/primary STRQ would walk twice.
        assert plans == {"tr/secondary", "tshape/primary"}
        for q in (SpatialRangeQuery(t0.mbr), ThresholdSimilarityQuery(t0, 0.01)):
            del expansions[:]
            tman.query(q)
            assert len(expansions) == 1

    def test_one_expansion_per_ring(self, loaded, expansions):
        tman, data = loaded
        cx, cy = data[0].mbr.center
        for q in (TopKSimilarityQuery(data[0], 5), KNNPointQuery(cx, cy, 5)):
            del expansions[:]
            res = tman.query(q)
            assert len(expansions) == res.profile.rounds >= 1
            assert len(set(expansions)) == len(expansions)  # a new window per ring


class TestPushDownAblation:
    """Push-down on/off must return identical results; off transfers more."""

    @pytest.fixture(scope="class")
    def dataset(self):
        return tdrive_like(150, seed=55)

    def _run(self, dataset, push_down):
        cfg = TManConfig(
            boundary=TDRIVE_SPEC.boundary,
            max_resolution=14,
            num_shards=2,
            kv_workers=1,
            push_down=push_down,
        )
        tman = TMan(cfg)
        tman.bulk_load(dataset)
        return tman

    def test_results_identical_transfer_differs(self, dataset):
        on = self._run(dataset, push_down=True)
        off = self._run(dataset, push_down=False)
        try:
            window = dataset[3].mbr.expanded(0.01)
            r_on = on.spatial_range_query(window)
            r_off = off.spatial_range_query(window)
            assert sorted(t.tid for t in r_on.trajectories) == sorted(
                t.tid for t in r_off.trajectories
            )

            # Transfer accounting: without push-down every scanned row is
            # returned to the client.
            on_delta = on.cluster.stats.snapshot()
            off_delta = off.cluster.stats.snapshot()
            assert off_delta.rows_returned >= on_delta.rows_returned
        finally:
            on.close()
            off.close()

    def test_temporal_pushdown_equivalence(self, dataset):
        on = self._run(dataset, push_down=True)
        off = self._run(dataset, push_down=False)
        try:
            tr = dataset[7].time_range
            assert sorted(t.tid for t in on.temporal_range_query(tr).trajectories) == sorted(
                t.tid for t in off.temporal_range_query(tr).trajectories
            )
        finally:
            on.close()
            off.close()


class TestIndexCacheAblation:
    """Cache on/off must agree on results for SRQ."""

    def test_no_cache_same_results(self):
        dataset = tdrive_like(100, seed=66)
        base = TManConfig(
            boundary=TDRIVE_SPEC.boundary, max_resolution=12, num_shards=1,
            kv_workers=1, alpha=2, beta=2,
        )
        with_cache = TMan(base)
        without = TMan(
            TManConfig(
                boundary=TDRIVE_SPEC.boundary, max_resolution=12, num_shards=1,
                kv_workers=1, alpha=2, beta=2,
                shape_encoding="bitmap", use_index_cache=False,
            )
        )
        try:
            with_cache.bulk_load(dataset)
            without.bulk_load(dataset)
            window = dataset[0].mbr.expanded(0.005)
            a = with_cache.spatial_range_query(window)
            b = without.spatial_range_query(window)
            assert sorted(t.tid for t in a.trajectories) == sorted(
                t.tid for t in b.trajectories
            )
        finally:
            with_cache.close()
            without.close()
