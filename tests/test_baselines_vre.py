"""Tests for the VRE segment-storage baseline."""

import pytest

from benchmarks.comparators.vre import VRE
from repro.datasets import tdrive_like

from tests.conftest import brute_force_temporal


@pytest.fixture(scope="module")
def dataset():
    return tdrive_like(100, seed=311)


@pytest.fixture(scope="module")
def system(dataset):
    vre = VRE(segment_seconds=1800.0, kv_workers=1)
    vre.bulk_load(dataset)
    yield vre
    vre.close()


class TestStorage:
    def test_stores_more_rows_than_trajectories(self, system, dataset):
        """Segmentation: one row per segment, not per trajectory."""
        assert system.segment_count > system.trajectory_count == len(dataset)

    def test_secondary_maps_all_segments(self, system):
        assert system.by_tid.count_rows() == system.segment_count


class TestTemporalQueries:
    def test_matches_oracle(self, system, dataset):
        for target in dataset[::20]:
            res = system.temporal_range_query(target.time_range)
            got = sorted(t.tid for t in res.trajectories)
            assert got == brute_force_temporal(dataset, target.time_range)

    def test_reassembled_trajectories_complete(self, system, dataset):
        target = dataset[0]
        res = system.temporal_range_query(target.time_range)
        rebuilt = next(t for t in res.trajectories if t.tid == target.tid)
        assert len(rebuilt) == len(target)
        # The row codec quantizes timestamps to milliseconds.
        assert rebuilt.time_range.start == pytest.approx(target.time_range.start, abs=1e-3)
        assert rebuilt.time_range.end == pytest.approx(target.time_range.end, abs=1e-3)

    def test_reassembly_overhead_reported(self, system, dataset):
        res = system.temporal_range_query(dataset[0].time_range)
        # Every reassembly primary.get is one of the profile's point gets.
        assert res.profile.point_gets >= len(res)
        assert res.count == 0
        assert res.profile.elapsed_ms == res.elapsed_ms > 0

    def test_candidates_are_segments(self, system, dataset):
        """Segment rows scanned exceed matching trajectories (Fig 1a cost)."""
        res = system.temporal_range_query(dataset[0].time_range)
        assert res.candidates >= len(res)
