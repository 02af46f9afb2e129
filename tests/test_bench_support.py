"""Tests for the benchmark support package (harness + report + validate)."""

import json
import shutil
from pathlib import Path

import pytest

from repro.bench import ResultTable, percentile, run_queries, summarize_ms
from repro.bench.report import build_report
from repro.query.types import QueryResult


class TestPercentiles:
    def test_median(self):
        assert percentile([5, 1, 3], 50) == 3

    def test_p100_is_max(self):
        assert percentile([1, 9, 4], 100) == 9

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([])

    def test_summarize_keys(self):
        s = summarize_ms([1, 2, 3, 4, 5])
        assert set(s) == {"p50", "p70", "p80", "p90", "p95", "p99", "p100"}
        assert s["p50"] <= s["p90"] <= s["p95"] <= s["p99"] <= s["p100"]

    def test_histogram_summary_reads_registry(self):
        from repro.bench.harness import histogram_summary
        from repro.obs import registry

        hist = registry().histogram("bench_support_test_ms", "test histogram")
        try:
            for v in (1.0, 2.0, 4.0, 8.0):
                hist.observe(v)
            s = histogram_summary("bench_support_test_ms")
            assert s["count"] == 4.0
            assert s["p50"] <= s["p95"] <= s["p99"]
        finally:
            # keep the process-wide registry free of test-only families
            # (the metric-catalog lint snapshots it)
            registry().unregister("bench_support_test_ms")

    def test_histogram_summary_unknown_name(self):
        from repro.bench.harness import histogram_summary

        with pytest.raises(KeyError):
            histogram_summary("never_registered_anywhere")


class TestRunQueries:
    def test_aggregates_fields(self):
        def fake_query(w):
            return QueryResult(
                trajectories=[], candidates=w * 2, transferred_rows=w,
                windows=1, elapsed_ms=float(w), simulated_ms=2.0 * w,
            )

        stats = run_queries(fake_query, [1, 2, 3])
        assert stats.median_ms == 2.0
        assert stats.median_candidates == 4
        assert stats.median_transferred == 2
        assert stats.all_ms == [1.0, 2.0, 3.0]


class TestResultTable:
    def test_render_alignment(self):
        t = ResultTable("Title", ["a", "bb"])
        t.add_row("x", 1.5)
        t.add_row("longer", 200.0)
        text = t.render()
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "longer" in text and "200" in text

    def test_wrong_arity_rejected(self):
        t = ResultTable("T", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row("only-one")

    def test_float_formatting(self):
        t = ResultTable("T", ["v"])
        t.add_row(0.12345)
        t.add_row(12.345)
        t.add_row(1234.5)
        body = t.render()
        assert "0.1234" in body or "0.1235" in body
        assert "12.35" in body or "12.34" in body
        assert "1234" in body or "1235" in body


class TestReport:
    def test_build_from_directory(self, tmp_path):
        (tmp_path / "fig15_alpha_beta.txt").write_text("Fig 15 table\n----\nrow\n")
        (tmp_path / "custom_extra.txt").write_text("Extra table\n----\nrow\n")
        report = build_report(tmp_path)
        assert "Fig 15 table" in report
        assert "Extra table" in report
        # Curated entries come before unknown extras.
        assert report.index("Fig 15 table") < report.index("Extra table")

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            build_report(tmp_path / "nope")


class TestValidate:
    """`repro.bench.validate`: one schema walker, gates per bench name."""

    RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

    def test_committed_reports_pass(self, capsys):
        from repro.bench.validate import main

        paths = [
            str(self.RESULTS / f"BENCH_{name}.json")
            for name in ("cbo", "cluster", "columnar")
        ]
        assert main(paths) == 0
        assert capsys.readouterr().out.count(": ok") == 3

    def test_bench_inferred_from_file_name(self, tmp_path, capsys):
        from repro.bench.validate import main

        # A cluster report under the cbo name fails the cbo schema.
        wrong = tmp_path / "BENCH_cbo.json"
        shutil.copy(self.RESULTS / "BENCH_cluster.json", wrong)
        assert main([str(wrong)]) == 1
        assert "tr_vs_interval: missing" in capsys.readouterr().err
        unknown = tmp_path / "BENCH_nosuch.json"
        unknown.write_text("{}")
        assert main([str(unknown)]) == 1
        assert main([]) == 2

    def test_gates_run_after_schema(self, tmp_path, capsys):
        from repro.bench.validate import main

        cbo = tmp_path / "BENCH_cbo.json"
        cbo.write_text((self.RESULTS / "BENCH_cbo.json").read_text())
        assert main([str(cbo), "--max-regret", "-1"]) == 1
        assert "exceeds -1" in capsys.readouterr().err
        doc = json.loads((self.RESULTS / "BENCH_cluster.json").read_text())
        doc["results_identical"] = False
        cluster = tmp_path / "BENCH_cluster.json"
        cluster.write_text(json.dumps(doc))
        assert main([str(cluster)]) == 1
        assert "results_identical" in capsys.readouterr().err
        doc["results_identical"] = "yes"  # wrong type: schema error, no gate
        cluster.write_text(json.dumps(doc))
        assert main([str(cluster)]) == 1
        assert "expected bool" in capsys.readouterr().err
