"""Tests for the benchmark support package (harness + report)."""

import pytest

from benchmarks.harness import ResultTable, percentile, run_queries, summarize_ms
from benchmarks.report import build_report
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

    def test_skips_its_own_output(self, tmp_path):
        (tmp_path / "fig15_alpha_beta.txt").write_text("Fig 15 table\n----\nrow\n")
        (tmp_path / "REPORT.txt").write_text("An earlier report\n")
        report = build_report(tmp_path)
        assert "Fig 15 table" in report
        assert "An earlier report" not in report

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            build_report(tmp_path / "nope")
