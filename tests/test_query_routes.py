"""Tests for non-default planner routes and executor edge paths."""

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.model import TimeRange
from repro.query.types import TemporalRangeQuery

from tests.conftest import brute_force_spatial, brute_force_temporal


@pytest.fixture(scope="module")
def dataset():
    return tdrive_like(120, seed=555)


def build(primary, secondaries, dataset, **overrides):
    defaults = dict(
        boundary=TDRIVE_SPEC.boundary, max_resolution=14,
        num_shards=2, kv_workers=1,
        primary_index=primary, secondary_indexes=tuple(secondaries),
    )
    defaults.update(overrides)
    tman = TMan(TManConfig(**defaults))
    tman.bulk_load(dataset)
    return tman


class TestTShapeSecondaryRoute:
    """SRQ through a tshape *secondary* table (primary = tr)."""

    @pytest.fixture(scope="class")
    def system(self, dataset):
        tman = build("tr", ("tshape", "idt"), dataset)
        yield tman
        tman.close()

    def test_plan_uses_secondary(self, system, dataset):
        res = system.spatial_range_query(dataset[0].mbr)
        assert res.plan == "tshape/secondary"

    def test_results_match_oracle(self, system, dataset):
        for target in dataset[::30]:
            res = system.spatial_range_query(target.mbr)
            assert sorted(t.tid for t in res.trajectories) == brute_force_spatial(
                dataset, target.mbr
            )

    def test_strq_cbo_can_choose_either_route(self, system, dataset):
        target = dataset[0]
        res = system.st_range_query(target.mbr, target.time_range)
        assert target.tid in {t.tid for t in res.trajectories}
        assert res.plan in ("tshape/secondary", "tr/primary")


class TestPushDownSwitchOnSecondaryRoute:
    """``push_down=False`` moves the filter client-side on secondary routes too."""

    def test_filter_runs_after_the_resolve(self, dataset):
        on = build("tshape", ("tr", "idt"), dataset)
        off = build("tshape", ("tr", "idt"), dataset, push_down=False)
        try:
            span = dataset[0].time_range
            window = TimeRange(span.start - 20_000, span.end + 20_000)
            a = on.temporal_range_query(window)
            b = off.temporal_range_query(window)
            assert a.plan == b.plan == "tr/secondary"
            assert [t.tid for t in a.trajectories] == [t.tid for t in b.trajectories]
            # Client-side, the resolve emits every fetched row and a
            # client_filter stage drops the TR windows' false positives.
            assert "client_filter" not in a.profile
            resolved = b.profile["secondary_resolve"].rows_out
            assert resolved > a.profile["secondary_resolve"].rows_out
            assert b.profile["client_filter"].rows_in == resolved
            assert b.profile["client_filter"].rows_out == len(b)
            assert "client_filter" in off.explain(TemporalRangeQuery(window))
            # A point get ships the row before any filter sees it.
            assert a.transferred_rows == b.transferred_rows
        finally:
            on.close()
            off.close()


class TestFullScanRoute:
    """No spatial index at all: SRQ degrades to a filtered full scan."""

    @pytest.fixture(scope="class")
    def system(self, dataset):
        tman = build("tr", ("idt",), dataset)
        yield tman
        tman.close()

    def test_plan_is_scan(self, system, dataset):
        res = system.spatial_range_query(dataset[0].mbr)
        assert res.plan.endswith("/scan")

    def test_full_scan_still_exact(self, system, dataset):
        target = dataset[7]
        res = system.spatial_range_query(target.mbr)
        assert sorted(t.tid for t in res.trajectories) == brute_force_spatial(
            dataset, target.mbr
        )

    def test_full_scan_touches_everything(self, system, dataset):
        res = system.spatial_range_query(dataset[0].mbr)
        assert res.candidates >= len(dataset)


class TestSTWindowBudget:
    """CBO fallback: a tiny window budget forces coarse ST windows.

    Coarse 6-hour TR periods keep the fine plan's candidate-value product
    small; with the default 30-minute periods a 100k budget would admit
    tens of thousands of scans per query.
    """

    def test_coarse_and_fine_agree(self, dataset):
        knobs = dict(tr_period_seconds=6 * 3600.0, tr_max_periods=5)
        fine = build("st", ("idt",), dataset, st_window_budget=100_000, **knobs)
        coarse = build("st", ("idt",), dataset, st_window_budget=1, **knobs)
        try:
            target = dataset[11]
            a = fine.st_range_query(target.mbr, target.time_range)
            b = coarse.st_range_query(target.mbr, target.time_range)
            assert sorted(t.tid for t in a.trajectories) == sorted(
                t.tid for t in b.trajectories
            )
            # The coarse plan issues fewer, wider scans.
            assert b.windows <= a.windows or a.windows == 0
        finally:
            fine.close()
            coarse.close()


class TestConcurrentQueries:
    def test_parallel_readers_agree(self, dataset):
        from concurrent.futures import ThreadPoolExecutor

        tman = build("tshape", ("tr", "idt"), dataset, kv_workers=2)
        try:
            windows = [t.mbr for t in dataset[:12]]
            expected = [brute_force_spatial(dataset, w) for w in windows]

            def run(window):
                return sorted(
                    t.tid for t in tman.spatial_range_query(window).trajectories
                )

            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(run, windows))
            assert got == expected
        finally:
            tman.close()


class TestTemporalViaSTPrefix:
    """TRQ answered through the ST primary's TR prefix."""

    def test_exact(self, dataset):
        tman = build("st", ("idt",), dataset)
        try:
            for target in dataset[::40]:
                res = tman.temporal_range_query(target.time_range)
                assert res.plan == "st/primary"
                assert sorted(t.tid for t in res.trajectories) == brute_force_temporal(
                    dataset, target.time_range
                )
        finally:
            tman.close()
