"""Per-stage records in the query profile and streaming behavior of the
query pipeline."""

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.model.timerange import TimeRange
from repro.obs.profile import QueryProfile, profile_scope
from repro.query import build_pipeline
from repro.query.types import (
    IDTemporalQuery,
    KNNPointQuery,
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
    ThresholdSimilarityQuery,
    TopKSimilarityQuery,
)


def _deploy(primary_index, secondary_indexes):
    data = tdrive_like(120, seed=7, max_points=30)
    config = TManConfig(
        boundary=TDRIVE_SPEC.boundary,
        max_resolution=13,
        num_shards=2,
        kv_workers=2,
        split_rows=500,
        primary_index=primary_index,
        secondary_indexes=secondary_indexes,
    )
    t = TMan(config)
    t.bulk_load(data)
    t._test_data = data
    return t


@pytest.fixture(scope="module")
def tman():
    t = _deploy("tshape", ("tr", "idt"))
    yield t
    t.close()


@pytest.fixture(scope="module")
def tr_tman():
    """TR primary behind a TShape secondary: the spatial and similarity
    types read through secondary resolves."""
    t = _deploy("tr", ("tshape", "idt"))
    yield t
    t.close()


def queries_for(tman):
    t0 = tman._test_data[0]
    return {
        "trq": TemporalRangeQuery(
            TimeRange(t0.time_range.start, t0.time_range.start + 7200)
        ),
        "srq": SpatialRangeQuery(t0.mbr),
        "strq": STRangeQuery(t0.mbr, t0.time_range),
        "idt": IDTemporalQuery(t0.oid, TimeRange(0, 864000)),
        "threshold": ThresholdSimilarityQuery(t0, 0.05, "hausdorff"),
        "topk": TopKSimilarityQuery(t0, 3, "frechet"),
    }


class TestTracePresence:
    def test_all_six_query_types_report_traces(self, tman):
        for name, q in queries_for(tman).items():
            res = tman.query(q)
            profile = res.profile
            assert isinstance(profile, QueryProfile), name
            assert profile.rounds >= 1
            # Primary routes scan regions directly; secondary routes resolve
            # index entries into point gets instead.
            assert "region_scan" in profile or "secondary_resolve" in profile, name
            names = [s.name for s in profile.stages]
            assert len(names) == len(set(names))
            for stage in profile.stages:
                assert stage.rows_in >= 0 and stage.rows_out >= 0
                assert stage.wall_ms >= 0.0

    def test_windows_feed_region_scan(self, tman):
        res = tman.query(queries_for(tman)["srq"])
        profile = res.profile
        assert profile["windows"].rows_out == profile["region_scan"].rows_in
        assert profile["windows"].rows_out == res.windows
        assert profile["region_scan"].bytes_out > 0

    def test_sink_rows_match_result(self, tman):
        qs = queries_for(tman)
        for name in ("trq", "srq", "strq", "idt"):
            res = tman.query(qs[name])
            assert res.profile["collect"].rows_out == len(res.trajectories), name
        res = tman.query(qs["topk"])
        # The top-k sink reports its heap size once per expanding-ring
        # round, so its cumulative rows_out is at least the result size.
        assert res.profile["top_k"].rows_out >= len(res.trajectories)

    def test_count_reports_trace_without_decode(self, tman):
        qs = queries_for(tman)
        res = tman.count(qs["trq"])
        profile = res.profile
        assert profile is not None
        assert "count" in profile
        assert profile["count"].rows_out == res.count
        full = tman.query(qs["trq"])
        assert res.count == len(full.trajectories)

    def test_trace_renders_and_serializes(self, tman):
        res = tman.query(queries_for(tman)["srq"])
        d = res.profile.as_dict()
        assert d["rounds"] >= 1
        assert any(s["name"] == "region_scan" for s in d["stages"])
        text = res.profile.render()
        assert "region_scan" in text and "rows_out" in text
        assert text.splitlines()[-1] == res.profile.summary()
        # The read-only view older readers use.
        assert res.trace is res.profile

    def test_explain_matches_trace_stages(self, tman, tr_tman):
        """EXPLAIN names the stages the run traces, for all seven types."""
        for t in (tman, tr_tman):
            qs = queries_for(t)
            first = t._test_data[0].points[0]
            qs["knn"] = KNNPointQuery(first.lng, first.lat, 2)
            for name, q in qs.items():
                text = t.explain(q)
                plan = t.planner.plan(q)
                assert text.startswith(f"{plan.index}/{plan.route}: ")
                static = text.split(": ", 1)[1].split(" -> ")
                traced = [s.name for s in t.query(q).profile.stages]
                assert traced == static, (t.config.primary_index, name)


class TestPublicPipeline:
    def test_pipeline_runs_outside_any_query_profile(self, tman):
        """``build_pipeline(...).run()`` is public API: with no query profile
        open, its decode stage still decodes and only skips attribution."""
        qs = queries_for(tman)
        for name in ("trq", "srq"):
            q = qs[name]
            got = build_pipeline(tman, q, tman.planner.plan(q)).run()
            assert got, name
            assert sorted(t.tid for t in got) == sorted(
                t.tid for t in tman.query(q).trajectories
            ), name

    def test_pipeline_records_into_the_open_profile(self, tman):
        """Each run adds one round and its stages to the active profile; an
        outer scope accumulates them like its counters."""
        q = queries_for(tman)["srq"]
        plan = tman.planner.plan(q)
        outer = QueryProfile()
        with profile_scope(outer):
            build_pipeline(tman, q, plan).run()
            assert outer.rounds == 1
            first = {s.name: s.rows_out for s in outer.stages}
            build_pipeline(tman, q, plan).run()
        assert outer.rounds == 2
        names = tman.explain(q).split(": ", 1)[1].split(" -> ")
        assert [s.name for s in outer.stages] == names
        assert "collect" in outer and "top_k" not in outer  # reads never create
        with pytest.raises(KeyError):
            outer["top_k"]
        assert {s.name: s.rows_out for s in outer.stages} == {
            name: 2 * rows for name, rows in first.items()
        }


class TestIterativeQueries:
    def test_topk_trace_accumulates_rounds(self, tman):
        res = tman.query(queries_for(tman)["topk"])
        assert res.profile.rounds >= 1
        assert res.profile["similarity_refine"].rows_out == len(res.trajectories) or (
            res.profile["similarity_refine"].rows_out >= len(res.trajectories)
        )
        assert res.distances == sorted(res.distances)

    def test_knn_trace_and_early_termination(self, tman):
        """The expanding-ring kNN scans strictly fewer rows than a full
        materialized scan of the primary table."""
        total_rows = tman.primary_table.count_rows()
        t0 = tman._test_data[0]
        before = tman.cluster.stats.snapshot()
        res = tman.query(KNNPointQuery(t0.points[0].lng, t0.points[0].lat, 2))
        scanned = (tman.cluster.stats.snapshot() - before).rows_scanned
        assert len(res.trajectories) == 2
        assert res.profile is not None and "knn_refine" in res.profile
        assert res.profile.rounds >= 1
        assert scanned < total_rows


class TestStreamingLimit:
    def test_limit_truncates_and_scans_less(self, tman):
        """limit=n stops the pipeline early: fewer candidates touched than
        the unlimited run of the same query (satellite: early termination
        observable through IOStats at the query layer too)."""
        # Wide enough to open more windows than the scheduler dispatches
        # at once (the trajectory's own MBR is one chunk of 32).
        q = SpatialRangeQuery(tman._test_data[0].mbr.expanded(0.05))
        full = tman.query(q)
        assert len(full.trajectories) > 2
        lim = tman.query(q, limit=2)
        assert [t.tid for t in lim.trajectories] == [
            t.tid for t in full.trajectories
        ][:2]
        assert lim.candidates < full.candidates
        assert lim.profile["decode"].rows_in <= full.profile["decode"].rows_in
        assert lim.profile["limit"].rows_out == 2

    def test_limit_rejected_for_similarity_queries(self, tman):
        qs = queries_for(tman)
        with pytest.raises(ValueError):
            tman.query(qs["topk"], limit=1)
        with pytest.raises(ValueError):
            tman.query(qs["threshold"], limit=1)

    def test_count_rejected_for_similarity_queries(self, tman):
        with pytest.raises(TypeError):
            tman.count(queries_for(tman)["threshold"])
        with pytest.raises(TypeError):
            tman.count(queries_for(tman)["topk"])
