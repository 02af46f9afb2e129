"""Smoke test of the benchmark spine (about two minutes; not in tier-1 testpaths).

Run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/spine/test_spine_smoke.py -q

It runs every workload at the ``--smoke`` profile through the same command the
driver uses and checks the contract between ``BENCHMARK.json``, the catalog and
what a run prints; it does not look at any timing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.spine import catalog
from benchmarks.spine.compare import UnusableSet, check_same_inputs, compare, load_set

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
EXACT_LAYER = ("kvstore.flushes", "kvstore.wal_bytes")


def run(workload: str, trace: int, out: Path) -> tuple[dict, dict, list[str]]:
    """One smoke run: (last-line JSON, --out document, printed metric lines)."""
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "42", "--seconds", "1",
           "--trace", str(trace), "--smoke", "--out", str(out)]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(out.read_text()), lines[:-1]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("spine")
    return {
        (workload, trace, rep): run(workload, trace, out / f"{workload}.{trace}.{rep}.json")
        for workload in catalog.WORKLOADS
        for trace, reps in ((0, 2), (1, 1))
        for rep in range(reps)
    } | {
        ("ingest_mixed_durable", 1, 1): run(
            "ingest_mixed_durable", 1, out / "ingest_mixed_durable.1.1.json"
        )
    }, out


def test_benchmark_json_matches_the_catalog():
    assert SPEC["paths"] == ["benchmarks/spine"]
    assert [w["name"] for w in SPEC["workloads"]] == list(catalog.WORKLOADS)
    by_name = {m.name: m for m in catalog.END_TO_END}
    assert len(by_name) == 16
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]] == [
        (name, by_name[name].unit, by_name[name].better, bound)
        for name, bound in catalog.DRIVER_BOUNDS.items()
    ]
    # Only a metric every workload reports can be declared to the driver.
    assert all(by_name[name].workloads == catalog.WORKLOADS for name in catalog.DRIVER_BOUNDS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in catalog.PER_LAYER
    ]
    assert all(m.layer in catalog.LAYERS and m.moves for m in catalog.PER_LAYER)
    names = [m.name for m in (*catalog.END_TO_END, *catalog.PER_LAYER)]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)


def printed_units(printed: list[str]) -> dict[str, str]:
    seen = {}
    for text in printed:
        if not text.startswith("layer_shares."):
            name, _, unit = text.split(" ")
            seen[name] = unit
    return seen


@pytest.mark.parametrize("workload", catalog.WORKLOADS)
def test_every_declared_metric_is_reported_and_nothing_else(runs, workload):
    line, doc, printed = runs[0][(workload, 0, 0)]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    units = {m.name: m.unit for m in catalog.end_to_end_for(workload)}
    assert {n: c["unit"] for n, c in line["metrics"].items()} == {
        name: units[name] for name in catalog.DRIVER_BOUNDS
    }
    assert printed_units(printed) == units
    assert {n: c["unit"] for n, c in doc["metrics"].items()} == units
    assert doc["metrics"]["failed_share"]["value"] == 0
    assert doc["profile"] == "smoke"

    line, doc, printed = runs[0][(workload, 1, 0)]
    assert line["correct"] is True and line["failed"] == 0
    units = {m.name: m.unit for m in catalog.PER_LAYER}
    assert {n: c["unit"] for n, c in line["metrics"].items()} == units
    assert printed_units(printed) == units
    assert all(c["layer"] in catalog.LAYERS and c["moves"] for c in doc["metrics"].values())
    # A renamed wrapper target would silently zero its per-layer metric.
    assert doc["trace_missing_targets"] == []


def test_end_to_end_metrics_are_never_zero(runs):
    for workload in catalog.WORKLOADS:
        line, _, _ = runs[0][(workload, 0, 0)]
        assert all(cell["value"] > 0 for cell in line["metrics"].values())


def test_layers_a_workload_bypasses_report_zero(runs):
    for workload in catalog.WORKLOADS:
        metrics = runs[0][(workload, 1, 0)][0]["metrics"]
        if workload != "range_processes":
            assert all(c["value"] == 0 for n, c in metrics.items() if n.startswith("cluster."))
        if workload != "similarity_threads":
            assert all(c["value"] == 0 for n, c in metrics.items() if n.startswith("similarity."))
    processes = runs[0][("range_processes", 1, 0)][0]["metrics"]
    assert processes["cluster.rpc_calls_per_query"]["value"] > 0
    similarity = runs[0][("similarity_threads", 1, 0)][0]["metrics"]
    assert similarity["similarity.kernel_calls_per_query"]["value"] > 0


def test_exact_count_metrics_repeat_for_one_seed(runs):
    for workload in catalog.WORKLOADS:
        first, second = (runs[0][(workload, 0, rep)] for rep in (0, 1))
        assert (first[0]["metrics"]["stored_bytes_per_point"]
                == second[0]["metrics"]["stored_bytes_per_point"])
        assert first[1]["result_signature"] == second[1]["result_signature"]
    first, second = (runs[0][("ingest_mixed_durable", t, r)] for t, r in ((0, 0), (0, 1)))
    assert first[1]["metrics"]["write_amp"] == second[1]["metrics"]["write_amp"]
    first, second = (runs[0][("ingest_mixed_durable", 1, rep)][0]["metrics"] for rep in (0, 1))
    for name in EXACT_LAYER:
        assert first[name] == second[name]
    assert first["kvstore.wal_bytes"]["value"] > 0


def test_thread_and_process_mode_return_identical_results(runs):
    threads, processes = (runs[0][(w, 0, 0)][1] for w in ("range_threads", "range_processes"))
    assert threads["result_signature"] == processes["result_signature"]
    assert threads["samples"] == processes["samples"]


def test_traced_run_writes_spans_with_parent_links(runs):
    _, out = runs
    spans = json.loads((out / "range_threads.1.0.json.spans.json").read_text())
    ids = {s["id"] for s in spans}
    assert spans and all({"id", "parent", "name", "layer", "op", "thread", "t0", "t1"} <= set(s)
                         for s in spans)
    assert all(s["parent"] is None or s["parent"] in ids for s in spans)
    assert any(s["parent"] is not None for s in spans)


def test_compare_rejects_smoke_numbers(runs):
    with pytest.raises(UnusableSet):
        load_set(runs[1])


def _full_run(seed=42, failed_share=0.0, **metrics):
    values = {m.name: 1.0 for m in catalog.END_TO_END}
    values.update(metrics, failed_share=failed_share, inputs=(seed, 20.0, 1200, 60, 2))
    return values


def test_compare_sees_one_failing_run_and_refuses_mixed_seeds():
    good = {w: [_full_run() for _ in range(3)] for w in catalog.WORKLOADS}
    one_bad = {w: [_full_run(), _full_run(failed_share=0.01), _full_run()]
               for w in catalog.WORKLOADS}
    labels = {(w, name): label for w, name, label, *_ in compare(good, one_bad)}
    assert all(label == "worse" for (_, name), label in labels.items()
               if name == "failed_share")
    assert all(label == "same" for (_, name), label in labels.items()
               if name != "failed_share")
    other_seed = {w: [_full_run(seed=7) for _ in range(3)] for w in catalog.WORKLOADS}
    with pytest.raises(UnusableSet):
        check_same_inputs(good, other_seed)
    check_same_inputs(good, one_bad)


def test_scratch_space_is_removed(runs):
    assert not (ROOT / ".spine_work").exists()


def _session_members(sid: int) -> list[str]:
    """``/proc/<pid>/stat`` of every process (zombies too) in session ``sid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[3]) == sid:
                found.append(stat)
    return found


def test_a_process_mode_run_leaves_no_process_behind():
    # Workers and multiprocessing's resource tracker must have ended *before*
    # the run exits, not a moment after it.
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", "range_processes", "--seed", "42",
           "--seconds", "1", "--trace", "0", "--smoke"]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    _, err = proc.communicate(timeout=180)
    assert proc.returncode == 0, err
    assert _session_members(proc.pid) == []
