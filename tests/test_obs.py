"""Tests for the unified observability layer (``repro.obs``).

Unit tests construct private :class:`MetricsRegistry` instances so they
cannot interfere with the process-wide singletons the instrumented modules
hold handles to; the integration tests exercise those singletons against a
real deployment and restore their state afterwards, and the Chrome-trace
tests render the profiles of real queries.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.obs import (
    MetricError,
    MetricsRegistry,
    SlowQueryLog,
    chrome_trace,
    to_json,
    to_prometheus,
    validate_snapshot,
)


@pytest.fixture
def reg():
    return MetricsRegistry()


def _finished(elapsed_ms: float, **counts) -> obs.QueryProfile:
    """A finished profile with the given wall time and counters."""
    profile = obs.QueryProfile("TemporalRangeQuery", "tr/primary")
    profile.add(**counts)
    return profile.finish(elapsed_ms)


class TestRegistry:
    def test_counter_get_or_create(self, reg):
        a = reg.counter("c", "help")
        b = reg.counter("c")
        assert a is b
        a.inc()
        a.inc(2.5)
        assert b.value == 3.5

    def test_unregister_drops_family(self, reg):
        fam = reg.counter("tmp_metric")
        fam.inc()
        assert reg.unregister("tmp_metric")
        assert not reg.unregister("tmp_metric")  # second call: already gone
        names = {m["name"] for m in reg.snapshot()["metrics"]}
        assert "tmp_metric" not in names
        fam.inc()  # held handles keep working, just unexported
        assert fam.value == 2

    def test_counter_rejects_negative(self, reg):
        with pytest.raises(MetricError):
            reg.counter("c").inc(-1)

    def test_type_conflict_raises(self, reg):
        reg.counter("m")
        with pytest.raises(MetricError):
            reg.gauge("m")

    def test_labelname_conflict_raises(self, reg):
        reg.counter("m", labelnames=("a",))
        with pytest.raises(MetricError):
            reg.counter("m", labelnames=("b",))

    def test_label_validation(self, reg):
        fam = reg.counter("m", labelnames=("stage",))
        with pytest.raises(MetricError):
            fam.labels(wrong="x")
        with pytest.raises(MetricError):
            fam.labels(stage="x", extra="y")

    def test_label_cardinality(self, reg):
        fam = reg.counter("m", labelnames=("stage",))
        for i in range(17):
            fam.labels(stage=f"s{i}").inc()
        assert fam.series_count == 17
        # Same label values reuse the same child.
        assert fam.labels(stage="s0") is fam.labels(stage="s0")
        assert fam.series_count == 17

    def test_gauge_set_and_callback(self, reg):
        g = reg.gauge("g")
        g.set(7)
        assert g.value == 7.0
        g.inc(3)
        g.dec(1)
        assert g.value == 9.0
        backing = [41]
        reg.gauge("g2", callback=lambda: backing[0] + 1)
        assert reg.get("g2").value == 42.0

    def test_gauge_callback_reregistration_replaces(self, reg):
        reg.gauge("g", callback=lambda: 1)
        reg.gauge("g", callback=lambda: 2)
        assert reg.get("g").value == 2.0

    def test_reset_keeps_handles_valid(self, reg):
        c = reg.counter("c")
        c.inc(5)
        reg.reset()
        assert c.value == 0.0
        c.inc()
        assert reg.get("c").value == 1.0

    def test_concurrent_increments_exact(self, reg):
        c = reg.counter("c")
        h = reg.histogram("h")
        threads_n, per_thread = 8, 10_000

        def work():
            for _ in range(per_thread):
                c.inc()
                h.observe(1.0)

        threads = [threading.Thread(target=work) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == threads_n * per_thread
        assert h.count == threads_n * per_thread

    def test_snapshot_shape(self, reg):
        reg.counter("c", "help").inc()
        reg.histogram("h").observe(3.0)
        snap = reg.snapshot()
        assert validate_snapshot(snap) == []
        names = [m["name"] for m in snap["metrics"]]
        assert names == sorted(names)


class TestHistogram:
    def test_percentiles_vs_numpy(self, reg):
        rng = np.random.default_rng(1234)
        samples = rng.lognormal(mean=1.0, sigma=1.2, size=5000)
        h = reg.histogram("h")
        for v in samples:
            h.observe(float(v))
        for pct in (50, 90, 95, 99):
            expected = float(np.percentile(samples, pct))
            assert h.percentile(pct) == pytest.approx(expected, rel=0.15), pct

    def test_min_max_clamp(self, reg):
        h = reg.histogram("h")
        h.observe(3.0)
        # One sample: every percentile is that sample (within bucket error 0).
        assert h.percentile(50) == pytest.approx(3.0)
        assert h.percentile(99) == pytest.approx(3.0)

    def test_negative_clamps_to_zero(self, reg):
        h = reg.histogram("h")
        h.observe(-5.0)
        assert h.count == 1
        assert h.percentile(50) == 0.0

    def test_empty_percentile_raises(self, reg):
        with pytest.raises(MetricError):
            reg.histogram("h").percentile(50)

    def test_bad_parameters_rejected(self, reg):
        with pytest.raises(MetricError):
            reg.histogram("h1", growth=1.0)
        with pytest.raises(MetricError):
            reg.histogram("h2", base=0.0)


class TestSlowQueryLog:
    def test_disabled_by_default(self):
        log = SlowQueryLog()
        assert not log.maybe_record("q", _finished(1e9))
        assert log.entries() == []

    def test_threshold_triggers(self):
        log = SlowQueryLog(threshold_ms=10.0)
        assert not log.maybe_record("fast", _finished(9.9))
        profile = _finished(10.0, rows_scanned=2, point_gets=1, rows_returned=2)
        assert log.maybe_record("slow", profile)
        (entry,) = log.entries()
        assert entry.query == repr("slow")
        assert entry.profile is profile  # the profile itself, not a copy
        rendered = entry.render()
        assert "slow-query" in rendered and profile.render() in rendered
        doc = entry.as_dict()
        assert set(doc) == {"query", "plan", "elapsed_ms", "candidates",
                            "transferred_rows", "trace", "wall_time", "profile"}
        assert doc["candidates"] == 3 and doc["transferred_rows"] == 2
        assert doc["trace"] == profile.render()
        assert doc["profile"] == profile.as_dict()

    def test_capacity_and_dropped(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=2)
        for i in range(5):
            log.maybe_record(f"q{i}", _finished(1.0))
        assert len(log) == 2
        assert log.dropped == 3
        assert [e.query for e in log.entries()] == [repr("q3"), repr("q4")]


class TestExporters:
    def test_prometheus_text(self, reg):
        reg.counter("c_total", "a counter", labelnames=("kind",)).labels(
            kind="x"
        ).inc(2)
        h = reg.histogram("lat_ms", "latency")
        h.observe(1.0)
        h.observe(100.0)
        text = to_prometheus(reg)
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{kind="x"} 2' in text
        assert "# TYPE lat_ms histogram" in text
        assert 'lat_ms_bucket{le="+Inf"} 2' in text
        assert "lat_ms_sum 101" in text
        assert "lat_ms_count 2" in text

    def test_prometheus_buckets_cumulative(self, reg):
        h = reg.histogram("h")
        for v in (1.0, 1.0, 50.0):
            h.observe(v)
        lines = [
            line for line in to_prometheus(reg).splitlines()
            if line.startswith("h_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in lines]
        assert counts == sorted(counts)
        assert counts[-1] == 3

    def test_json_round_trip(self, reg):
        reg.counter("c").inc()
        doc = json.loads(to_json(reg))
        assert validate_snapshot(doc) == []

    def test_validate_catches_corruption(self, reg):
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        assert validate_snapshot(snap) == []
        bad = json.loads(json.dumps(snap))
        bad["metrics"][0]["samples"][0]["count"] = 99
        assert any("bucket counts" in e for e in validate_snapshot(bad))
        assert validate_snapshot({"schema": "nope"})
        assert validate_snapshot([1, 2, 3])

    def test_validate_cli(self, tmp_path, reg, capsys):
        from repro.obs.validate import main as validate_main

        reg.counter("c").inc()
        good = tmp_path / "good.json"
        good.write_text(to_json(reg))
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "wrong"}')
        assert validate_main([str(good)]) == 0
        assert "schema-valid" in capsys.readouterr().out
        assert validate_main([str(bad)]) == 1
        assert validate_main([]) == 2


@pytest.fixture
def demo_tman():
    from repro import TMan, TManConfig
    from repro.datasets import TDRIVE_SPEC, tdrive_like

    obs.reset_all()
    data = tdrive_like(40, seed=99)
    tman = TMan(
        TManConfig(
            boundary=TDRIVE_SPEC.boundary, max_resolution=12,
            num_shards=2, kv_workers=1,
        )
    )
    tman.bulk_load(data)
    yield tman, data
    tman.close()
    obs.set_slow_query_ms(None)
    obs.reset_all()


def _run_queries(tman, data):
    """One TRQ, SRQ, IDT and STRQ around ``data[0]``; returns the results."""
    from repro.model import TimeRange

    tr = TimeRange(data[0].time_range.start, data[0].time_range.end)
    return [
        tman.temporal_range_query(tr),
        tman.spatial_range_query(data[0].mbr),
        tman.id_temporal_query(data[0].oid, tr),
        tman.st_range_query(data[0].mbr, tr),
    ]


# Timestamps and durations are rounded to 1e-3 us; a child may overhang its
# parent's interval by that rounding, and by no more.
_ROUNDING_US = 0.01


def _nest(events: list[dict]) -> list[tuple[dict, list[tuple[dict, list[dict]]]]]:
    """``[(query event, [(pipeline.run event, [stage events])])]`` in
    document order, asserting every event lies inside its parent's interval.
    """
    tree: list[tuple[dict, list]] = []
    for event in events:
        if event["name"].startswith("query."):
            tree.append((event, []))
            continue
        query, runs = tree[-1]
        if event["name"] == "pipeline.run":
            parent = query
            runs.append((event, []))
        else:
            assert event["name"].startswith("stage."), event
            parent, stages = runs[-1]
            stages.append(event)
        assert event["tid"] == parent["tid"]
        assert event["ts"] >= parent["ts"] - _ROUNDING_US
        assert event["ts"] + event["dur"] <= parent["ts"] + parent["dur"] + _ROUNDING_US
    return tree


class TestIntegration:
    def test_registry_populated_across_layers(self, demo_tman):
        tman, data = demo_tman
        _run_queries(tman, data)
        snap = obs.snapshot()
        assert validate_snapshot(snap) == []
        populated = {
            m["name"]
            for m in snap["metrics"]
            if any(s.get("value", 0) or s.get("count", 0) for s in m["samples"])
        }
        assert len(populated) >= 12, sorted(populated)
        # Every layer contributes.
        assert any(n.startswith("kv_") for n in populated)
        assert any(n.startswith("cache_") for n in populated)
        assert any(n.startswith("query_") for n in populated)
        assert any(n.startswith("pipeline_") for n in populated)
        assert any(n.startswith("ingest_") for n in populated)

    def test_query_latency_labeled_by_type(self, demo_tman):
        tman, data = demo_tman
        _run_queries(tman, data)
        lat = obs.registry().get("query_latency_ms")
        assert lat.labels(type="TemporalRangeQuery").count >= 1
        assert lat.labels(type="SpatialRangeQuery").count >= 1
        assert obs.registry().get("query_total").labels(
            type="IDTemporalQuery"
        ).value >= 1

    def test_trace_spans_nest_query_over_pipeline(self, demo_tman):
        tman, data = demo_tman
        profiles = [res.profile for res in _run_queries(tman, data)]
        tree = _nest(chrome_trace(profiles)["traceEvents"])
        assert len(tree) == len(profiles)
        for lane, (profile, (query, runs)) in enumerate(zip(profiles, tree), 1):
            assert query["name"] == "query.execute" and query["tid"] == lane
            assert query["args"] == {"type": profile.query_type, "plan": profile.plan}
            assert len(runs) == profile.rounds == 1
            ((_, stages),) = runs
            assert [e["name"] for e in stages] == [f"stage.{s.name}" for s in profile.stages]
            # Back to back: each stage starts where the one before it ended.
            for before, after in zip(stages, stages[1:]):
                assert after["ts"] == pytest.approx(
                    before["ts"] + before["dur"], abs=_ROUNDING_US
                )

    def test_slow_query_log_captures_trace(self, demo_tman):
        tman, data = demo_tman
        obs.set_slow_query_ms(0.0)
        _run_queries(tman, data)
        entries = obs.slow_query_log().entries()
        assert len(entries) == 4
        assert any("TemporalRangeQuery" in e.query for e in entries)
        assert all(e.profile.stages for e in entries), "entries must carry stage tables"
        assert obs.registry().get("query_slow_total").value == 4


class TestChromeTrace:
    def test_topk_has_one_pipeline_run_per_round(self, demo_tman):
        from repro.query.types import TopKSimilarityQuery

        tman, data = demo_tman
        profile = tman.query(TopKSimilarityQuery(data[0], 10)).profile
        assert profile.rounds >= 2
        ((query, runs),) = _nest(chrome_trace([profile])["traceEvents"])
        assert query["name"] == "query.execute"
        assert len(runs) == profile.rounds
        starts = [run["ts"] for run, _ in runs]
        assert starts == sorted(starts)

    def test_count_query_top_event_is_query_count(self, demo_tman):
        from repro.model import TimeRange
        from repro.query.types import TemporalRangeQuery

        tman, data = demo_tman
        tr = data[0].time_range
        res = tman.count(TemporalRangeQuery(TimeRange(tr.start, tr.end)))
        ((query, runs),) = _nest(chrome_trace([res.profile])["traceEvents"])
        assert query["name"] == "query.count"
        assert runs[0][1][-1]["name"] == "stage.count"

    def test_document_round_trips_through_json(self, demo_tman):
        tman, data = demo_tman
        doc = chrome_trace([res.profile for res in _run_queries(tman, data)])
        assert doc["displayTimeUnit"] == "ms"
        assert all(e["ph"] == "X" and e["pid"] == 1 for e in doc["traceEvents"])
        assert min(e["ts"] for e in doc["traceEvents"]) == 0.0
        assert json.loads(json.dumps(doc)) == doc

    def test_process_mode_gives_the_same_event_names(self, demo_tman, tmp_path):
        import dataclasses

        from repro import TMan

        tman, data = demo_tman
        config = dataclasses.replace(
            tman.config, cluster_mode="processes", cluster_nodes=1,
            replication_factor=1, read_quorum=1, write_quorum=1,
            cluster_data_dir=str(tmp_path),
        )
        with TMan(config) as remote:
            remote.bulk_load(data)
            in_processes = [res.profile for res in _run_queries(remote, data)]
        in_threads = [res.profile for res in _run_queries(tman, data)]
        for threads, processes in zip(in_threads, in_processes):
            assert [e["name"] for e in chrome_trace([threads])["traceEvents"]] == [
                e["name"] for e in chrome_trace([processes])["traceEvents"]
            ]

    def test_profile_log_entries_carry_no_round_records(self, demo_tman):
        tman, data = demo_tman
        obs.profile_log().clear()
        results = _run_queries(tman, data)
        entries = obs.profile_log().entries()
        assert len(entries) == len(results)
        for res, entry in zip(results, entries):
            assert res.profile.round_records and entry.round_records == ()
            assert entry.rounds == res.profile.rounds
        names = {e["name"] for e in chrome_trace(entries)["traceEvents"]}
        assert names == {"query.execute"}

    def test_unfinished_profile_is_left_out(self):
        assert chrome_trace([obs.QueryProfile("shed")]) == {
            "traceEvents": [], "displayTimeUnit": "ms",
        }


class TestHistogramExemplars:
    def test_exemplar_kept_per_bucket_max_value_wins(self, reg):
        fam = reg.histogram("lat_ms")
        fam.observe(5.0, exemplar="q1")
        fam.observe(5.2, exemplar="q2")  # same bucket, larger value wins
        fam.observe(5.1, exemplar="q3")
        fam.observe(100.0, exemplar="q9")  # different bucket
        exemplars = fam._default.exemplars()
        assert [e[2] for e in exemplars] == ["q2", "q9"]

    def test_exemplars_in_snapshot_and_tolerated_by_validator(self, reg):
        fam = reg.histogram("lat_ms")
        fam.observe(1.0, exemplar="q1")
        fam.observe(2.0)  # no exemplar: bucket stays bare
        snap = reg.snapshot()
        (metric,) = [m for m in snap["metrics"] if m["name"] == "lat_ms"]
        sample = metric["samples"][0]
        assert sample["exemplars"]
        bound, value, exemplar = sample["exemplars"][0]
        assert exemplar == "q1" and value == 1.0
        assert validate_snapshot(snap) == []
        json.loads(json.dumps(snap))  # JSON-serializable

    def test_no_exemplars_key_when_none_attached(self, reg):
        fam = reg.histogram("lat_ms")
        fam.observe(1.0)
        (metric,) = [m for m in reg.snapshot()["metrics"] if m["name"] == "lat_ms"]
        assert "exemplars" not in metric["samples"][0]

    def test_reset_clears_exemplars(self, reg):
        fam = reg.histogram("lat_ms")
        fam.observe(1.0, exemplar="q1")
        reg.reset()
        assert fam._default.exemplars() == []


class TestLabelCardinalityGuard:
    def test_overflow_collapses_past_cap(self):
        reg = MetricsRegistry(max_label_series=4)
        fam = reg.counter("m", labelnames=("region",))
        with pytest.warns(RuntimeWarning, match="label combinations"):
            for i in range(10):
                fam.labels(region=f"r{i}").inc()
        # 4 real series + 1 overflow series
        assert fam.series_count == 5
        snap = reg.snapshot()
        (metric,) = [m for m in snap["metrics"] if m["name"] == "m"]
        overflow = [
            s for s in metric["samples"]
            if s["labels"].get("region") == "__overflow__"
        ]
        assert len(overflow) == 1
        assert overflow[0]["value"] == 6  # the 6 collapsed increments

    def test_existing_series_unaffected_by_overflow(self):
        reg = MetricsRegistry(max_label_series=2)
        fam = reg.counter("m", labelnames=("region",))
        fam.labels(region="a").inc()
        fam.labels(region="b").inc()
        with pytest.warns(RuntimeWarning):
            fam.labels(region="c").inc()
        fam.labels(region="a").inc()  # established series keeps working
        assert fam.labels(region="a").value == 2

    def test_warns_only_once(self):
        reg = MetricsRegistry(max_label_series=1)
        fam = reg.counter("m", labelnames=("x",))
        fam.labels(x="a").inc()
        with pytest.warns(RuntimeWarning) as caught:
            fam.labels(x="b").inc()
            fam.labels(x="c").inc()
        assert len(caught) == 1

    def test_cap_is_configurable(self):
        reg = MetricsRegistry(max_label_series=3)
        assert reg.max_label_series == 3
        reg.set_max_label_series(100)
        assert reg.max_label_series == 100
        with pytest.raises(MetricError):
            reg.set_max_label_series(0)


class TestSlowQueryLogEviction:
    def test_eviction_keeps_newest_and_counts_dropped(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=3)
        for i in range(10):
            log.maybe_record(f"q{i}", _finished(float(i)))
        assert [e.profile.elapsed_ms for e in log.entries()] == [7.0, 8.0, 9.0]
        assert log.dropped == 7
        log.clear()
        assert log.dropped == 0 and len(log) == 0

    def test_concurrent_recording_never_exceeds_capacity(self):
        log = SlowQueryLog(threshold_ms=0.0, capacity=8)

        def writer(tid: int) -> None:
            for i in range(100):
                log.maybe_record(f"t{tid}-q{i}", _finished(1.0))

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(log) == 8
        assert log.dropped == 4 * 100 - 8
