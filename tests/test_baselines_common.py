"""Tests for the shared single-index baseline store."""

import pytest

from benchmarks.comparators.common import SingleIndexStore
from repro.core.temporal import TRIndex
from repro.datasets import tdrive_like
from repro.model import TimeRange
from repro.query.filters import TemporalFilter
from repro.query.windows import primary_windows_inclusive, primary_windows_u64

from tests.conftest import brute_force_temporal


@pytest.fixture(scope="module")
def dataset():
    return tdrive_like(80, seed=616)


def make_store(dataset, push_down=True):
    index = TRIndex(period_seconds=1800.0, max_periods=40)
    store = SingleIndexStore(
        "probe",
        index_value_fn=lambda t: index.index_time_range(t.time_range),
        num_shards=2,
        kv_workers=1,
        push_down=push_down,
    )
    store.bulk_load(dataset)
    return index, store


class TestSingleIndexStore:
    def test_bulk_load_counts(self, dataset):
        _, store = make_store(dataset)
        assert store.row_count == len(dataset)
        assert store.table.count_rows() == len(dataset)
        store.close()

    def test_query_matches_oracle(self, dataset):
        index, store = make_store(dataset)
        try:
            for target in dataset[::16]:
                tr = target.time_range
                windows = primary_windows_inclusive(store.keys, index.query_ranges(tr))
                res = store.run_windows(windows, TemporalFilter(tr))
                assert sorted(t.tid for t in res.trajectories) == brute_force_temporal(
                    dataset, tr
                )
        finally:
            store.close()

    def test_windows_cover_all_shards(self, dataset):
        _, store = make_store(dataset)
        windows = primary_windows_u64(store.keys, [(0, 10)])
        assert len(windows) == 2  # one per shard
        assert {w[0][0] for w in windows} == {0, 1}
        store.close()

    def test_pushdown_off_transfers_candidates(self, dataset):
        index, on = make_store(dataset, push_down=True)
        _, off = make_store(dataset, push_down=False)
        try:
            tr = dataset[0].time_range
            windows_on = primary_windows_inclusive(on.keys, index.query_ranges(tr))
            res_on = on.run_windows(windows_on, TemporalFilter(tr))
            windows_off = primary_windows_inclusive(off.keys, index.query_ranges(tr))
            res_off = off.run_windows(windows_off, TemporalFilter(tr))
            # Same answers.
            assert sorted(t.tid for t in res_on.trajectories) == sorted(
                t.tid for t in res_off.trajectories
            )
            # Client-side mode ships every candidate.
            assert res_off.transferred_rows == res_off.candidates
            assert res_on.transferred_rows <= res_off.transferred_rows
        finally:
            on.close()
            off.close()

    def test_result_accounting(self, dataset):
        index, store = make_store(dataset)
        try:
            tr = TimeRange(0, 1e6)
            windows = primary_windows_inclusive(store.keys, index.query_ranges(tr))
            res = store.run_windows(windows, TemporalFilter(tr))
            assert res.windows == len(windows) or res.windows > 0
            assert res.plan == "probe/primary"
            assert res.simulated_ms > 0
        finally:
            store.close()
