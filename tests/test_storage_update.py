"""Tests for the §IV-C update path: buffer shape cache and re-encoding."""

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.storage.persistence import open_tman, save_tman


def make_tman(threshold=8, **overrides):
    defaults = dict(
        boundary=TDRIVE_SPEC.boundary,
        max_resolution=14,
        num_shards=2,
        kv_workers=1,
        buffer_shape_threshold=threshold,
    )
    defaults.update(overrides)
    return TMan(TManConfig(**defaults))


@pytest.fixture(scope="module")
def dataset():
    return tdrive_like(150, seed=77)


class TestInsert:
    def test_insert_without_bulk_load(self, dataset):
        with make_tman(threshold=100_000) as tman:
            report = tman.insert(dataset[:30])
            assert report.rows_written == 30
            assert report.reencodes_triggered == 0
            res = tman.temporal_range_query(dataset[0].time_range)
            assert dataset[0].tid in {t.tid for t in res.trajectories}

    def test_known_shapes_reuse_final_codes(self, dataset):
        with make_tman(threshold=100_000) as tman:
            tman.bulk_load(dataset[:50])
            buffered_before = len(tman.buffer_cache)
            # Re-inserting the same trajectories hits the cache every time.
            tman.insert(dataset[:50])
            assert len(tman.buffer_cache) == buffered_before

    def test_unknown_shapes_staged_in_buffer(self, dataset):
        with make_tman(threshold=100_000) as tman:
            tman.insert(dataset[:20])
            assert len(tman.buffer_cache) > 0

    def test_reencode_triggered_at_threshold(self, dataset):
        with make_tman(threshold=5) as tman:
            report = tman.insert(dataset[:40])
            assert report.reencodes_triggered >= 1

    def test_queries_correct_after_reencode(self, dataset):
        """The crucial invariant: re-encoding rewrites rows consistently."""
        with make_tman(threshold=5) as tman:
            tman.insert(dataset)
            # Spatial query must find every trajectory by its own MBR.
            for traj in dataset[::10]:
                res = tman.spatial_range_query(traj.mbr)
                assert traj.tid in {t.tid for t in res.trajectories}, traj.tid

    def test_temporal_queries_correct_after_reencode(self, dataset):
        with make_tman(threshold=5) as tman:
            tman.insert(dataset)
            for traj in dataset[::20]:
                res = tman.temporal_range_query(traj.time_range)
                assert traj.tid in {t.tid for t in res.trajectories}

    def test_no_duplicate_results_after_reencode(self, dataset):
        with make_tman(threshold=5) as tman:
            tman.insert(dataset)
            res = tman.spatial_range_query(dataset[0].mbr)
            tids = [t.tid for t in res.trajectories]
            assert len(tids) == len(set(tids))

    def test_mixed_bulk_and_insert(self, dataset):
        with make_tman(threshold=10) as tman:
            tman.bulk_load(dataset[:75])
            tman.insert(dataset[75:])
            for traj in (dataset[0], dataset[80], dataset[-1]):
                res = tman.spatial_range_query(traj.mbr)
                assert traj.tid in {t.tid for t in res.trajectories}

    def test_row_count_tracks_inserts(self, dataset):
        with make_tman(threshold=1000) as tman:
            tman.bulk_load(dataset[:10])
            tman.insert(dataset[10:25])
            assert tman.row_count == 25

    def test_reencode_report_counts_rewrites(self, dataset):
        with make_tman(threshold=3) as tman:
            report = tman.insert(dataset[:30])
            if report.reencodes_triggered:
                assert report.rows_rewritten >= 0

    def test_reencode_replaces_only_the_changed_cache_entries(self, dataset):
        """A re-encode must not throw the hot elements away, and must not
        leave a pre-re-encode final code in the local layer either."""
        from repro.cache import ShapeIndexCache

        with make_tman(threshold=5) as tman:
            tman.bulk_load(dataset[:60])
            cache = tman.index_cache
            reencoded = []
            put_mapping = cache.put_mapping
            cache.put_mapping = lambda code, mapping: (
                reencoded.append(code), put_mapping(code, mapping)
            )
            report = tman.insert(dataset[60:])
            assert report.reencodes_triggered >= 1 and report.rows_rewritten > 0
            # (a) elements the re-encodes did not touch are still local hits.
            untouched = sorted(set(cache.directory().tolist()) - set(reencoded))
            assert untouched and reencoded
            before = cache.stats()
            for code in untouched:
                assert cache.get_mapping(code)
            after = cache.stats()
            assert after.misses == before.misses
            assert after.hits == before.hits + len(untouched)
            assert after.remote_fetches == before.remote_fetches
            # (b) the local layer agrees with the metadata table on every
            # element, and the key each row is stored under is the one
            # queries ask for.
            remote = ShapeIndexCache(tman.meta.table)
            for code in cache.directory().tolist():
                assert cache.get_mapping(code) == remote.get_mapping(code), code
            for traj in dataset:
                res = tman.spatial_range_query(traj.mbr)
                assert traj.tid in {t.tid for t in res.trajectories}, traj.tid

    def test_directory_outlives_reencode_and_delete(self, dataset):
        """insert -> re-encode -> delete: mappings are never dropped, so the
        directory keeps every element and later inserts land on known codes."""
        with make_tman(threshold=5) as tman:
            report = tman.insert(dataset[:80])
            assert report.reencodes_triggered >= 1
            codes = {tman.tshape_index.index_trajectory(t).element_code for t in dataset[:80]}
            assert tman.index_cache.directory().tolist() == sorted(codes)
            for traj in dataset[:80]:
                assert tman.delete(traj)
            assert tman.index_cache.directory().tolist() == sorted(codes)
            assert tman.spatial_range_query(TDRIVE_SPEC.boundary).trajectories == []
            tman.insert(dataset[:10])
            res = tman.spatial_range_query(TDRIVE_SPEC.boundary)
            assert {t.tid for t in res.trajectories} == {t.tid for t in dataset[:10]}

    def test_statistics_exact_without_flush_and_after_reopen(self, dataset, tmp_path):
        """Inserts that re-encode plus deletes: the writer-fed histograms
        equal the live rows with no flush, and equal what the header scan
        rebuilds when the saved deployment is reopened."""
        with make_tman(threshold=5) as tman:
            tman.bulk_load(dataset[:60])
            report = tman.insert(dataset[60:])
            assert report.reencodes_triggered >= 1 and report.rows_rewritten > 0
            for traj in dataset[:5]:
                assert tman.delete(traj)
            victim = dataset[100]
            assert tman.delete_by_id(victim.oid, victim.tid, victim.time_range)
            assert not tman.delete(dataset[0])  # already gone: forgotten once
            stats = tman.table_statistics()
            assert stats.row_count == tman.primary_table.count_rows() == 144
            assert tman.row_count == 144
            save_tman(tman, tmp_path / "dep")
        with open_tman(tmp_path / "dep") as reopened:
            rebuilt = reopened.table_statistics()
            assert rebuilt.row_count == 144
            assert rebuilt.period_hist == stats.period_hist
            assert rebuilt.cell_hist == stats.cell_hist
