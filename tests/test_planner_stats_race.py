"""Planner statistics snapshotting: one frozen snapshot per planning call.

Regression for a cross-thread race: ``table_statistics()`` used to pull
the live provider on *every* selectivity estimate, so a flush landing
mid-plan could cost half the candidate matrix against the old histograms
and half against the new ones.  Each planning entry point now freezes
one snapshot (thread-locally) for its whole duration.

A query asks for its estimate once, while planning; the plan carries it,
and the workload statistics compare the observed candidates with that
estimate.
"""

from __future__ import annotations

import threading

import pytest

from repro import TMan, obs
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.model import MBR, TimeRange
from repro.query.planner import QueryPlan, QueryPlanner
from repro.query.types import STRangeQuery, TemporalRangeQuery
from repro.storage.config import TManConfig


class StubStatistics:
    """Duck-typed TableStatistics recording which snapshot served a call."""

    def __init__(self, serial: int, usage_log: list):
        self.serial = serial
        self._log = usage_log
        self.row_count = 1000 + serial

    def _note(self) -> None:
        self._log.append((threading.get_ident(), self.serial))

    def estimate_temporal(self, tr: TimeRange) -> float:
        self._note()
        return 50.0

    def estimate_spatial(self, window: MBR) -> float:
        self._note()
        return 80.0

    def estimate_st(self, window: MBR, tr: TimeRange) -> float:
        self._note()
        return 20.0

    def cell_count_at(self, x: float, y: float) -> int:
        self._note()
        return 10


class MutatingProvider:
    """Returns a brand-new statistics snapshot on every pull (thread-safe)."""

    def __init__(self):
        self.calls = 0
        self.usage_log: list = []
        self._mu = threading.Lock()

    def __call__(self):
        with self._mu:
            self.calls += 1
            return StubStatistics(self.calls, self.usage_log)


def _planner(provider) -> QueryPlanner:
    config = TManConfig(boundary=TDRIVE_SPEC.boundary)
    planner = QueryPlanner(config)
    planner.set_statistics_provider(provider)
    return planner


def _strq() -> STRangeQuery:
    b = TDRIVE_SPEC.boundary
    window = MBR(b.x1, b.y1, (b.x1 + b.x2) / 2, (b.y1 + b.y2) / 2)
    return STRangeQuery(window, TimeRange(0.0, 7200.0))


def test_provider_pulled_once_per_plan():
    provider = MutatingProvider()
    planner = _planner(provider)
    planner.plan(_strq())
    assert provider.calls == 1


def test_provider_pulled_once_per_candidate_matrix():
    # candidate_plans costs every applicable route AND re-derives the
    # chosen plan — historically many provider pulls, now exactly one.
    provider = MutatingProvider()
    planner = _planner(provider)
    candidates = planner.candidate_plans(_strq())
    assert len(candidates) >= 2
    assert provider.calls == 1
    # Every estimate inside the matrix was served by that single snapshot.
    assert {serial for _, serial in provider.usage_log} == {1}


def test_provider_pulled_once_per_estimate():
    provider = MutatingProvider()
    planner = _planner(provider)
    planner.estimate_candidates(TemporalRangeQuery(TimeRange(0.0, 3600.0)))
    assert provider.calls == 1


def test_snapshot_refreshes_between_plans():
    provider = MutatingProvider()
    planner = _planner(provider)
    planner.plan(_strq())
    planner.plan(_strq())
    assert provider.calls == 2
    serials = {serial for _, serial in provider.usage_log}
    assert serials == {1, 2}


def test_outside_planning_scope_pulls_live():
    provider = MutatingProvider()
    planner = _planner(provider)
    first = planner.table_statistics()
    second = planner.table_statistics()
    assert first.serial != second.serial


def test_concurrent_plans_each_freeze_their_own_snapshot():
    provider = MutatingProvider()
    planner = _planner(provider)
    query = _strq()
    errors: list = []

    def worker():
        try:
            for _ in range(10):
                planner.candidate_plans(query)
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    # 8 threads x 10 plans = 80 pulls, one per planning call.
    assert provider.calls == 80
    # How many estimates one plan logs (control, fresh provider).
    control = MutatingProvider()
    _planner(control).candidate_plans(query)
    per_plan = len(control.usage_log)
    assert per_plan >= 2
    # No plan ever observed two different snapshots: grouped by thread
    # ident, every plan shows up as one contiguous run of `per_plan`
    # same-serial entries.  (Idents may be reused by consecutive worker
    # threads, so a group can hold several workers' plans — each is
    # still a clean run because serials are globally unique.)
    by_thread: dict[int, list[int]] = {}
    for tid, serial in provider.usage_log:
        by_thread.setdefault(tid, []).append(serial)
    total_runs = 0
    for serials in by_thread.values():
        runs = 1 + sum(1 for a, b in zip(serials, serials[1:]) if a != b)
        assert len(serials) == runs * per_plan
        total_runs += runs
    assert total_runs == 80


# -- one estimate per query, carried by the plan ------------------------------


class ScaledStatistics(StubStatistics):
    """STRQ estimates that grow with the snapshot's serial, so a recorded
    observed/estimated ratio names the snapshot it was computed from."""

    def estimate_st(self, window: MBR, tr: TimeRange) -> float:
        super().estimate_st(window, tr)
        return 20.0 * self.serial


class ScaledProvider(MutatingProvider):
    def __call__(self):
        with self._mu:
            self.calls += 1
            return ScaledStatistics(self.calls, self.usage_log)


@pytest.fixture(scope="module")
def loaded_tman():
    data = tdrive_like(120, seed=3, max_points=30)
    tman = TMan(TManConfig(boundary=TDRIVE_SPEC.boundary, max_resolution=12,
                           num_shards=2, kv_workers=2))
    tman.bulk_load(data)
    yield tman, data
    tman.close()


def _count_estimates(monkeypatch, planner: QueryPlanner) -> list:
    calls: list = []
    original = planner.estimate_candidates

    def counted(query):
        calls.append(query)
        return original(query)

    monkeypatch.setattr(planner, "estimate_candidates", counted)
    return calls


def test_planned_query_estimates_once(loaded_tman, monkeypatch):
    tman, data = loaded_tman
    monkeypatch.setattr(tman.planner, "_table_stats", ScaledProvider())
    strq = _strq()
    # The STRQ is costed over two or more routes.
    assert len(tman.planner.candidate_plans(strq)) >= 2
    assert tman.planner.plan(strq).reason.startswith("CBO")
    calls = _count_estimates(monkeypatch, tman.planner)
    for query in (strq, TemporalRangeQuery(data[0].time_range)):
        calls.clear()
        tman.query(query)
        assert calls == [query]


def test_forced_plan_estimates_nothing_and_records_no_ratio(loaded_tman, monkeypatch):
    tman, _ = loaded_tman
    monkeypatch.setattr(tman.planner, "_table_stats", ScaledProvider())
    obs.reset_all()
    calls = _count_estimates(monkeypatch, tman.planner)
    result = tman.query(_strq(), plan=QueryPlan("tshape", "primary", "forced"))
    assert calls == []
    assert result.profile.estimated_candidates is None
    (group,) = obs.workload_stats().snapshot()["groups"]
    assert group["estimate_ratio"]["count"] == 0


def test_recorded_ratio_uses_the_plans_snapshot(loaded_tman, monkeypatch):
    tman, _ = loaded_tman
    provider = ScaledProvider()
    monkeypatch.setattr(tman.planner, "_table_stats", provider)
    obs.reset_all()
    result = tman.query(_strq())
    assert result.candidates > 0
    # The plan was costed with the first snapshot (estimate 20 x serial 1).
    (group,) = obs.workload_stats().snapshot()["groups"]
    assert group["estimate_ratio"]["recent"] == [round(result.candidates / 20.0, 4)]
    assert result.profile.estimated_candidates == 20.0
    assert provider.calls == 1  # nothing pulled a later snapshot
