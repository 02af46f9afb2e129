"""Tests for the command-line interface."""

import pytest

from repro.cli import main, read_csv, write_csv
from repro.datasets import tdrive_like


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    assert main(["generate", str(path), "--n", "60", "--seed", "9"]) == 0
    return path


@pytest.fixture(scope="module")
def deployment(tmp_path_factory, csv_path):
    dep = tmp_path_factory.mktemp("cli") / "deploy"
    code = main([
        "load", str(csv_path), str(dep),
        "--max-resolution", "12", "--shards", "2",
    ])
    assert code == 0
    return dep


class TestCSV:
    def test_roundtrip(self, tmp_path):
        trajs = tdrive_like(10, seed=3)
        path = tmp_path / "t.csv"
        write_csv(path, trajs)
        back = list(read_csv(path))
        assert [t.tid for t in back] == [t.tid for t in trajs]
        assert len(back[0]) == len(trajs[0])
        assert back[0].points[0].lng == pytest.approx(trajs[0].points[0].lng, abs=1e-7)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(SystemExit):
            list(read_csv(path))


class TestCommands:
    def test_generate_creates_file(self, csv_path):
        assert csv_path.exists()
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "oid,tid,t,lng,lat"
        assert len(lines) > 60

    def test_load_creates_deployment(self, deployment):
        assert (deployment / "config.json").exists()
        assert (deployment / "tables.snap").exists()

    def test_info(self, deployment, capsys):
        assert main(["info", str(deployment)]) == 0
        out = capsys.readouterr().out
        assert "rows: 60" in out
        assert "alpha" in out
        assert "io stats:" in out
        assert "rows_scanned:" in out
        assert "remote_fetches=" in out
        assert "block cache:" in out
        assert "scan scheduler:" in out

    def test_temporal_query(self, deployment, csv_path, capsys):
        trajs = list(read_csv(csv_path))
        tr = trajs[0].time_range
        code = main([
            "query", str(deployment), "--type", "temporal",
            "--start", str(tr.start), "--end", str(tr.end),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert trajs[0].tid in out

    def test_spatial_query(self, deployment, csv_path, capsys):
        trajs = list(read_csv(csv_path))
        m = trajs[0].mbr
        code = main([
            "query", str(deployment), "--type", "spatial",
            "--window", f"{m.x1},{m.y1},{m.x2},{m.y2}",
            "--limit", "100",
        ])
        assert code == 0
        assert trajs[0].tid in capsys.readouterr().out

    def test_id_query(self, deployment, csv_path, capsys):
        trajs = list(read_csv(csv_path))
        code = main([
            "query", str(deployment), "--type", "id",
            "--oid", trajs[0].oid, "--start", "0", "--end", "1e9",
        ])
        assert code == 0
        assert trajs[0].oid in capsys.readouterr().out

    def test_query_with_fault_injection(self, deployment, csv_path, capsys):
        from repro.kvstore.simfault import set_fault_injector

        trajs = list(read_csv(csv_path))
        tr = trajs[0].time_range
        base_args = [
            "query", str(deployment), "--type", "temporal",
            "--start", str(tr.start), "--end", str(tr.end),
        ]
        assert main(base_args) == 0
        clean = capsys.readouterr().out
        try:
            code = main(base_args + ["--fault-rate", "0.1", "--fault-seed", "42"])
        finally:
            set_fault_injector(None)  # the CLI installs a process-wide one
        assert code == 0
        out = capsys.readouterr().out
        assert trajs[0].tid in out
        assert "fault injection: rate=0.1 seed=42" in out
        # Same result lines, faults notwithstanding.
        assert clean.splitlines()[1:] == [
            line for line in out.splitlines()[1:] if not line.startswith("fault ")
        ]

    def test_fault_injection_counts_the_query_alone(self, deployment, csv_path, capsys):
        from repro.kvstore.simfault import FaultConfig, fault_injection
        from repro.query.types import TemporalRangeQuery
        from repro.storage.persistence import open_tman

        tr = list(read_csv(csv_path))[0].time_range
        config = FaultConfig.uniform(0.2, seed=3)
        # A reopen rebuilds the planner statistics with a scan, so an
        # injector installed before it draws faults no query made.
        with fault_injection(config) as during_open:
            with open_tman(deployment):
                pass
        assert during_open.injected > 0
        with open_tman(deployment) as tman:
            with fault_injection(config) as during_query:
                res = tman.query(TemporalRangeQuery(tr))
        # Every fault the query drew is one of its RPC failures.
        n = during_query.injected
        assert n == res.profile.rpc_failures > 0
        code = main([
            "query", str(deployment), "--type", "temporal",
            "--start", str(tr.start), "--end", str(tr.end),
            "--fault-rate", "0.2", "--fault-seed", "3",
        ])
        assert code == 0
        (line,) = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("fault injection:")]
        assert f" injected={n} rpc_failures={n} " in line

    @pytest.mark.parametrize("command", ["query", "explain"])
    @pytest.mark.parametrize(
        "window", ["116.2,39.8,116.5", "116.2,39.8,east,40.0", "116.5,39.8,116.2,40.0"]
    )
    def test_malformed_window_is_a_usage_error(self, command, window, capsys):
        # Rejected while parsing, so the deployment path is never opened.
        with pytest.raises(SystemExit) as exc:
            main([command, "no-such-dir", "--type", "spatial", "--window", window])
        assert exc.value.code == 2
        message = capsys.readouterr().err.strip().splitlines()[-1]
        assert "argument --window: expected x1,y1,x2,y2" in message
        assert repr(window) in message

    def test_spatial_query_without_window_fails(self, deployment):
        with pytest.raises(SystemExit, match="needs --window"):
            main(["query", str(deployment), "--type", "spatial"])

    def test_load_empty_csv_fails(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("oid,tid,t,lng,lat\n")
        with pytest.raises(SystemExit):
            main(["load", str(path), str(tmp_path / "dep")])


class TestObservabilityCommands:
    def test_query_trace_out(self, deployment, csv_path, tmp_path, capsys):
        import json

        trajs = list(read_csv(csv_path))
        tr = trajs[0].time_range
        trace_file = tmp_path / "trace.json"
        code = main([
            "query", str(deployment), "--type", "temporal",
            "--start", str(tr.start), "--end", str(tr.end),
            "--trace-out", str(trace_file),
        ])
        assert code == 0
        assert "wrote Chrome trace" in capsys.readouterr().out
        doc = json.loads(trace_file.read_text())
        assert doc["traceEvents"], "trace must contain spans"
        names = {e["name"] for e in doc["traceEvents"]}
        assert "query.execute" in names
        assert any(n.startswith("stage.") for n in names)

    def test_query_slow_ms_prints_entries(self, deployment, csv_path, capsys):
        from repro import obs

        obs.slow_query_log().clear()
        trajs = list(read_csv(csv_path))
        tr = trajs[0].time_range
        code = main([
            "query", str(deployment), "--type", "temporal",
            "--start", str(tr.start), "--end", str(tr.end),
            "--slow-ms", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[slow-query" in out
        obs.set_slow_query_ms(None)
        obs.slow_query_log().clear()

    def test_metrics_prometheus(self, capsys):
        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE" in out

    def test_metrics_json_to_file(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "metrics.json"
        assert main(["metrics", "--format", "json", "--out", str(out_file)]) == 0
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == "repro.obs.metrics/v1"


class TestDashboardCommands:
    def test_top_once_renders_dashboard(self, deployment, capsys):
        assert main(["top", str(deployment), "--once", "--probe", "6"]) == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "-- queries " in out
        assert "-- caches " in out
        assert "-- runtime " in out
        assert "by elapsed" in out
        assert "TemporalRangeQuery" in out  # probe workload ran

    def test_top_probe_zero_renders_empty_dashboard(self, deployment, capsys):
        assert main(["top", str(deployment), "--once", "--probe", "0"]) == 0
        assert "-- queries " in capsys.readouterr().out

    def test_stats_exports_valid_workload_stats(self, deployment, tmp_path,
                                                capsys):
        import json

        from repro.obs.stats import validate_workload_stats

        out_file = tmp_path / "workload_stats.json"
        assert main(["stats", str(deployment), "--out", str(out_file)]) == 0
        assert "wrote workload stats" in capsys.readouterr().out
        doc = json.loads(out_file.read_text())
        assert validate_workload_stats(doc) == []
        assert doc["total_queries"] > 0
        # stdout mode emits the same JSON document
        assert main(["stats", str(deployment)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_workload_stats(doc) == []
