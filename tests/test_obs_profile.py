"""Per-query resource attribution: QueryProfile end-to-end.

The reconciliation tests are the contract of the `IOStats.add` chokepoint:
every storage counter delta produced while a query's profile is installed
— including deltas from scan-scheduler worker threads — must appear on
that query's profile, exactly.  A result's counters are read off that
profile, so they stay exact when queries overlap.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.kvstore.simfault import FaultConfig, fault_injection
from repro.model import MBR, TimeRange
from repro.obs import profile_log, reset_all, workload_stats
from repro.obs.profile import (
    QueryProfile,
    current_profile,
    profile_scope,
    run_with_profile,
)
from repro.query.pipeline import build_pipeline
from repro.query.types import (
    IDTemporalQuery,
    KNNPointQuery,
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
    ThresholdSimilarityQuery,
    TopKSimilarityQuery,
)

# Snapshot fields mirrored 1:1 onto profiles by the IOStats chokepoint.
RECONCILED = (
    "rows_scanned",
    "rows_returned",
    "range_scans",
    "bytes_transferred",
    "block_reads",
    "bloom_rejects",
    "point_gets",
)


@pytest.fixture(scope="module")
def dataset():
    return tdrive_like(120, seed=31)


@pytest.fixture(scope="module")
def tman(dataset):
    config = TManConfig(
        boundary=TDRIVE_SPEC.boundary,
        max_resolution=14,
        num_shards=2,
        kv_workers=4,  # worker pool: attribution must cross threads
        split_rows=400,  # several regions, so parallel_scan fans out
    )
    t = TMan(config)
    t.bulk_load(dataset)
    yield t
    t.close()


def _all_queries(dataset):
    boundary = TDRIVE_SPEC.boundary
    span = dataset[0].time_range
    tr = TimeRange(span.start, span.start + 7200)
    window = MBR(
        boundary.x1 + (boundary.x2 - boundary.x1) * 0.25,
        boundary.y1 + (boundary.y2 - boundary.y1) * 0.25,
        boundary.x1 + (boundary.x2 - boundary.x1) * 0.75,
        boundary.y1 + (boundary.y2 - boundary.y1) * 0.75,
    )
    return [
        TemporalRangeQuery(tr),
        SpatialRangeQuery(window),
        STRangeQuery(window, tr),
        IDTemporalQuery(dataset[0].oid, tr),
        ThresholdSimilarityQuery(dataset[0], 0.5),
        TopKSimilarityQuery(dataset[0], 3),
        KNNPointQuery(
            (boundary.x1 + boundary.x2) / 2, (boundary.y1 + boundary.y2) / 2, 2
        ),
    ]


class TestReconciliation:
    def test_every_query_type_reconciles_with_registry_delta(self, tman, dataset):
        """The acceptance bar: profile totals == process-wide stat deltas."""
        for query in _all_queries(dataset):
            before = tman.cluster.stats.snapshot()
            result = tman.query(query)
            delta = tman.cluster.stats.snapshot() - before
            profile = result.profile
            assert profile is not None, f"no profile on {type(query).__name__}"
            assert profile.query_type == type(query).__name__
            for field in RECONCILED:
                assert getattr(profile, field) == getattr(delta, field), (
                    f"{type(query).__name__}.{field}: "
                    f"profile={getattr(profile, field)} delta={getattr(delta, field)}"
                )
            assert profile.elapsed_ms > 0
            assert profile.plan  # executor stamped index/route

    def test_parallel_worker_rows_are_attributed(self, tman, dataset):
        """Scheduled scans produce rows on pool threads; the profile
        must still see them (explicit contextvar handoff)."""
        span = dataset[0].time_range
        query = TemporalRangeQuery(TimeRange(span.start, span.start + 48 * 3600))
        before = tman.cluster.stats.snapshot()
        result = tman.query(query)
        delta = tman.cluster.stats.snapshot() - before
        assert delta.rows_scanned > 0, "query scanned nothing; test is vacuous"
        assert result.profile.rows_scanned == delta.rows_scanned
        assert result.profile.bytes_transferred == delta.bytes_transferred

    def test_decode_and_similarity_time_attributed(self, tman, dataset):
        result = tman.query(TopKSimilarityQuery(dataset[0], 3))
        profile = result.profile
        assert profile.similarity_rows > 0
        assert profile.similarity_ms > 0
        assert profile.attributed_ms <= profile.elapsed_ms * 1.5  # sanity

    def test_profile_rendered_in_trace(self, tman, dataset):
        span = dataset[0].time_range
        result = tman.query(TemporalRangeQuery(TimeRange(span.start, span.start + 3600)))
        text = result.profile.render()
        assert text.splitlines()[-1] == result.profile.summary()
        assert result.profile.query_id in text


class TestLadderAttribution:
    """Point decodes and exact kernels made while a row is being decided
    (push-down filters included) land on the query's profile."""

    def test_threshold_kernel_calls_are_similarity_rows(self, tman, dataset, monkeypatch):
        from repro.similarity import measures

        calls = []
        dtw = measures.DISTANCES["dtw"]  # DTW has no DP upper bound: every call is exact
        monkeypatch.setitem(
            measures.DISTANCES, "dtw", lambda a, b: calls.append(1) or dtw(a, b)
        )
        result = tman.query(ThresholdSimilarityQuery(dataset[0], 0.5, "dtw"))
        assert calls, "no row reached the exact kernel; test is vacuous"
        assert result.profile.similarity_rows == len(calls)
        assert result.profile.similarity_ms > 0

    def test_srq_decode_rows_include_the_points_rung(self, tman, monkeypatch):
        from repro.storage.serializer import RowSerializer

        decodes = []
        decode = RowSerializer.decode_trajectory
        monkeypatch.setattr(
            RowSerializer, "decode_trajectory",
            lambda self, *args: decodes.append(1) or decode(self, *args),
        )
        b = TDRIVE_SPEC.boundary
        strip = MBR(b.x1, 39.9, b.x2, 39.901)  # MBRs overlap it, polylines often miss
        result = tman.query(SpatialRangeQuery(strip))
        assert len(decodes) > len(result.trajectories), "no points-rung decode; vacuous"
        assert result.profile.decode_rows == len(decodes)


class TestConcurrentExactness:
    def test_concurrent_results_count_only_their_own_work(self, tman, dataset):
        """Every query type at once, behind a barrier, three rounds: each
        result's counters equal its serial run's.  Process-wide snapshot
        deltas taken around a query would also count its neighbours' rows."""
        queries = _all_queries(dataset)

        def ledger(result):
            return (
                result.candidates, result.transferred_rows, result.windows,
                result.simulated_ms,
                *(getattr(result.profile, field) for field in RECONCILED),
            )

        serial = [ledger(tman.query(q)) for q in queries]
        rounds = 3
        barrier = threading.Barrier(len(queries))
        seen: list[list[tuple]] = [[] for _ in queries]
        errors: list[BaseException] = []

        def client(i):
            try:
                for _ in range(rounds):
                    barrier.wait(30)
                    seen[i].append(ledger(tman.query(queries[i])))
            except BaseException as exc:  # reported below
                errors.append(exc)
                barrier.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(i,)) for i in range(len(queries))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        for query, want, got in zip(queries, serial, seen):
            assert got == [want] * rounds, type(query).__name__


class TestProfileMachinery:
    def test_run_with_profile_crosses_threads(self):
        profile = QueryProfile("manual", "test")
        seen = []

        def worker():
            seen.append(current_profile())

        thread = threading.Thread(target=run_with_profile, args=(profile, worker))
        thread.start()
        thread.join()
        assert seen == [profile]
        # and a bare thread has no ambient profile
        seen.clear()
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen == [None]

    def test_profile_scope_nesting_reuses_outer(self, tman, dataset):
        span = dataset[0].time_range
        outer = QueryProfile("outer", "outer-plan")
        with profile_scope(outer):
            result = tman.query(
                TemporalRangeQuery(TimeRange(span.start, span.start + 3600))
            )
        # executor attributed into the installed (outer) profile
        assert result.profile is outer
        assert outer.rows_scanned >= 0
        assert outer.rounds == 1 and "decode" in outer  # and the stages
        assert outer.query_type == "TemporalRangeQuery"  # finish() stamped it

    def test_concurrent_queries_attribute_independently(self, tman, dataset):
        span = dataset[0].time_range
        query = TemporalRangeQuery(TimeRange(span.start, span.start + 7200))
        results = {}

        def stages(profile):
            return [(s.name, s.rows_in, s.rows_out, s.bytes_out) for s in profile.stages]

        serial = stages(tman.query(query).profile)

        def client(name, query):
            results[name] = tman.query(query)

        threads = [
            threading.Thread(target=client, args=(i, query)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        ids = {r.profile.query_id for r in results.values()}
        assert len(ids) == 4  # four distinct profiles, no cross-talk
        for r in results.values():
            assert r.profile.rows_scanned > 0
            assert stages(r.profile) == serial

    def test_shared_profile_loses_no_round(self, tman, dataset):
        """Pipelines on many threads folding rounds into one outer profile
        (a shared ``profile_scope``) lose no update."""
        span = dataset[0].time_range
        query = TemporalRangeQuery(TimeRange(span.start, span.start + 3600))
        plan = tman.planner.plan(query)
        single = QueryProfile()
        with profile_scope(single):
            build_pipeline(tman, query, plan).run()
        shared = QueryProfile()
        threads, runs = 8, 5

        def client():
            with profile_scope(shared):
                for _ in range(runs):
                    build_pipeline(tman, query, plan).run()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=client) for _ in range(threads)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        n = threads * runs
        assert shared.rounds == n
        assert [(s.name, s.rows_in, s.rows_out, s.bytes_out) for s in shared.stages] == [
            (s.name, n * s.rows_in, n * s.rows_out, n * s.bytes_out)
            for s in single.stages
        ]

    def test_profile_log_records_and_ranks(self, tman, dataset):
        reset_all()
        span = dataset[0].time_range
        tman.query(TemporalRangeQuery(TimeRange(span.start, span.start + 3600)))
        tman.query(SpatialRangeQuery(TDRIVE_SPEC.boundary))
        log = profile_log()
        assert len(log) == 2
        top = log.top(1)
        assert len(top) == 1
        assert top[0].elapsed_ms == max(p.elapsed_ms for p in log.entries())

    def test_profile_log_keeps_slim_copies(self, tman, dataset):
        import repro.obs as obs
        from repro.obs.dashboard import render_dashboard
        from repro.query.cost import MIN_CALIBRATION_SAMPLES, calibrate

        reset_all()
        results = [tman.query(q) for q in _all_queries(dataset) * 2]
        assert len(results) >= MIN_CALIBRATION_SAMPLES
        entries = profile_log().entries()
        originals = [res.profile for res in results]
        for profile, entry in zip(originals, entries):
            assert entry is not profile and entry.stages == ()
            assert entry.as_dict() == {**profile.as_dict(), "stages": []}
            # The caller's profile keeps its stage table.
            table = profile.render().splitlines()
            assert table[0].split() == ["stage", "rows_in", "rows_out", "bytes", "ms"]
            assert len(table) == len(profile.stages) + 3 and profile.stages
        # What `repro top` and the cost calibration read is unchanged.
        snap = obs.snapshot()
        assert render_dashboard(snap, profiles=entries) == render_dashboard(
            snap, profiles=originals
        )
        assert calibrate(entries) == calibrate(originals)

    def test_as_dict_round_trips_all_fields(self, tman, dataset):
        span = dataset[0].time_range
        result = tman.query(
            TemporalRangeQuery(TimeRange(span.start, span.start + 3600))
        )
        doc = result.profile.as_dict()
        for key in ("query_id", "query_type", "plan", "elapsed_ms", "rows_scanned",
                    "bytes_transferred", "decode_ms", "admission_wait_ms"):
            assert key in doc


class TestAdmissionAndSlowlog:
    def test_admission_wait_attributed(self, dataset):
        config = TManConfig(
            boundary=TDRIVE_SPEC.boundary,
            max_resolution=12,
            num_shards=1,
            kv_workers=2,
            admission_max_inflight=1,
            admission_max_queue=8,
            admission_queue_timeout_ms=5000.0,
        )
        tman = TMan(config)
        tman.bulk_load(dataset[:40])
        span = dataset[0].time_range
        query = TemporalRangeQuery(TimeRange(span.start, span.start + 24 * 3600))
        try:
            waits = []

            def client():
                result = tman.query(query)
                waits.append(result.profile.admission_wait_ms)

            # A region cursor that sleeps (releasing the GIL) holds the one
            # slot long enough for the other clients to arrive and queue.
            with fault_injection(FaultConfig(scan_delay_ms=5.0)):
                threads = [threading.Thread(target=client) for _ in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(30)
            assert len(waits) == 6
            # with one slot, someone must have queued
            assert any(w > 0 for w in waits)
        finally:
            tman.close()

    def test_slow_query_log_carries_profile(self, tman, dataset):
        from repro.obs import set_slow_query_ms, slow_query_log

        reset_all()
        set_slow_query_ms(0.0)  # capture everything
        try:
            span = dataset[0].time_range
            tman.query(TemporalRangeQuery(TimeRange(span.start, span.start + 3600)))
            entries = slow_query_log().entries()
            assert entries
            assert entries[-1].profile is not None
            assert entries[-1].profile["rows_scanned"] >= 0
            assert "profile" in entries[-1].as_dict()
        finally:
            set_slow_query_ms(None)


class TestWorkloadStatsIntegration:
    def test_queries_feed_workload_stats(self, tman, dataset):
        reset_all()
        for query in _all_queries(dataset):
            tman.query(query)
        doc = workload_stats().snapshot()
        types = {g["query_type"] for g in doc["groups"]}
        assert types == {type(q).__name__ for q in _all_queries(dataset)}
        assert doc["total_queries"] == 7

    def test_estimate_ratio_recorded_for_range_queries(self, tman, dataset):
        reset_all()
        span = dataset[0].time_range
        tman.query(TemporalRangeQuery(TimeRange(span.start, span.start + 7200)))
        groups = workload_stats().snapshot()["groups"]
        (group,) = [g for g in groups if g["query_type"] == "TemporalRangeQuery"]
        assert group["estimate_ratio"]["count"] == 1
