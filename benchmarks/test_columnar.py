"""Vectorized similarity benchmark.

Quantifies the antidiagonal numpy kernels against the row-by-row
reference kernels (:mod:`repro.similarity.reference`, kept in-tree as the
test oracle), both per-call and end-to-end through a Fig-21-style top-k
similarity workload where the "before" pass runs the same deployment
with the reference kernels patched into the measure registry.  (The v1
storage and scalar-decode arms are retired with their baselines; the
last measured numbers are in ``docs/perf.md``.)

Trajectories are resampled to realistic fix counts (the scaled-down
dataset generator emits very short trips; the paper's similarity
workloads run on trajectories with hundreds of fixes, where the DP
kernels dominate).  Emits ``benchmarks/results/BENCH_columnar.json``
(schema-checked in CI via ``python -m repro.bench.validate``)
and enforces a regression guard: top-k similarity p50 must stay within
2x the baseline recorded in ``benchmarks/baselines/columnar_baseline.json``.
``BENCH_SMOKE=1`` shrinks the workload so CI can run the full path in
seconds.
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import time

import numpy as np

from benchmarks.conftest import RESULTS_DIR
from repro import TMan, TManConfig
from repro.datasets import LORRY_SPEC, lorry_like
from repro.model.pointblock import PointBlock
from repro.model.trajectory import Trajectory
from repro.similarity import measures
from repro.similarity.reference import (
    dtw_reference,
    frechet_reference,
    hausdorff_reference,
)

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
PROFILE = "smoke" if SMOKE else "full"
N_TRAJS = 40 if SMOKE else 120
POINTS = 200 if SMOKE else 400
QUERIES = 2 if SMOKE else 4
K = 10
KERNEL_PAIRS = 4 if SMOKE else 10
BASELINE_FILE = (
    pathlib.Path(__file__).parent / "baselines" / "columnar_baseline.json"
)

REFERENCE_KERNELS = {
    "frechet": frechet_reference,
    "dtw": dtw_reference,
    "hausdorff": hausdorff_reference,
}


def _densify(traj: Trajectory, n: int) -> Trajectory:
    """Resample a trajectory to ``n`` fixes by linear interpolation."""
    ts, xs, ys = traj.xy_arrays()
    grid = np.linspace(ts[0], ts[-1], n) if len(ts) > 1 else ts
    block = PointBlock(
        grid, np.interp(grid, ts, xs), np.interp(grid, ts, ys), validate=False
    )
    return Trajectory(traj.oid, traj.tid, block)


def _dataset():
    raw = lorry_like(N_TRAJS, seed=43, max_points=POINTS)
    return [_densify(t, POINTS) for t in raw]


def _percentiles(samples_ms):
    ordered = sorted(samples_ms)
    return {
        "p50_ms": round(statistics.median(ordered), 4),
        "p99_ms": round(ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))], 4),
    }


def test_columnar_benchmark():
    data = _dataset()
    report = {
        "profile": PROFILE,
        "smoke": SMOKE,
        "n_trajectories": N_TRAJS,
        "points_per_trajectory": POINTS,
    }

    # -- similarity kernels: vectorized vs reference ----------------------
    pairs = [
        (data[i].block, data[i + 1].block) for i in range(0, 2 * KERNEL_PAIRS, 2)
    ]
    kernels = {}
    for name, vectorized in measures.DISTANCES.items():
        reference = REFERENCE_KERNELS[name]
        vec_ms, ref_ms = [], []
        for a, b in pairs:
            t0 = time.perf_counter()
            got = vectorized(a, b)
            vec_ms.append((time.perf_counter() - t0) * 1e3)
            t0 = time.perf_counter()
            want = reference(list(a), list(b))
            ref_ms.append((time.perf_counter() - t0) * 1e3)
            assert got == want, (name, got, want)  # bit-identical
        kernels[name] = {
            "vectorized": _percentiles(vec_ms),
            "reference": _percentiles(ref_ms),
            "p50_speedup": round(
                statistics.median(ref_ms) / max(statistics.median(vec_ms), 1e-9), 3
            ),
        }
    report["kernels"] = kernels

    # -- fig21-style top-k similarity, before vs after --------------------
    config = TManConfig(
        boundary=LORRY_SPEC.boundary,
        max_resolution=14,
        num_shards=2,
        kv_workers=2,
    )
    tman = TMan(config)
    tman.bulk_load(data)
    probes = data[:QUERIES]
    try:
        def run_topk():
            samples, tids = [], []
            for probe in probes:
                t0 = time.perf_counter()
                res = tman.top_k_similarity_query(probe, K, "frechet")
                samples.append((time.perf_counter() - t0) * 1e3)
                tids.append([t.tid for t in res.trajectories])
            return samples, tids

        run_topk()  # warm caches so both passes measure steady state
        after_ms, after_tids = run_topk()
        saved = dict(measures.DISTANCES)
        measures.DISTANCES.update(REFERENCE_KERNELS)
        try:
            before_ms, before_tids = run_topk()
        finally:
            measures.DISTANCES.clear()
            measures.DISTANCES.update(saved)
        assert after_tids == before_tids
        topk = {
            "k": K,
            "queries": QUERIES,
            "after": _percentiles(after_ms),
            "before": _percentiles(before_ms),
            "p50_speedup": round(
                statistics.median(before_ms) / max(statistics.median(after_ms), 1e-9),
                3,
            ),
        }
        report["topk_similarity"] = topk
        if not SMOKE:
            # The headline acceptance number: vectorized kernels make the
            # fig21 top-k workload >= 5x faster at the median.
            assert topk["p50_speedup"] >= 5.0, topk
    finally:
        tman.close()

    # -- regression guard -------------------------------------------------
    baseline = {}
    if BASELINE_FILE.exists():
        baseline = json.loads(BASELINE_FILE.read_text()).get(PROFILE, {})
    guard = {"baseline_file": str(BASELINE_FILE.name), "profile": PROFILE}
    if baseline:
        guard["baseline_topk_p50_ms"] = baseline["topk_p50_ms"]
        guard["current_topk_p50_ms"] = topk["after"]["p50_ms"]
        assert topk["after"]["p50_ms"] <= 2.0 * baseline["topk_p50_ms"], (
            "top-k similarity p50 regressed beyond 2x the recorded baseline",
            guard,
        )
    else:
        guard["baseline_topk_p50_ms"] = None
    report["regression_guard"] = guard

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_columnar.json"
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print("\n" + json.dumps(report, indent=2, sort_keys=True))
