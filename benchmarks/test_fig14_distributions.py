"""E1/E2 — Figure 14: dataset distributions.

(a)(b) time-range CDFs of the TDrive-like and Lorry-like datasets;
(c)(d) TShape resolution histograms at α = β = 5.

Paper facts being matched: TDrive ~66% < 2 h, >99% < 18 h, resolutions
concentrated in 7-10; Lorry ~88% < 2 h, 99% < 14 h, resolutions 9-14.
"""

import numpy as np

from benchmarks.harness import ResultTable
from repro.core.quadtree import QuadTreeGrid
from repro.core.tshape import TShapeIndex
from repro.datasets import LORRY_SPEC, TDRIVE_SPEC

from benchmarks.conftest import save_table

HOUR = 3600.0


def _duration_cdf(trajs, marks):
    durations = np.array([t.time_range.duration for t in trajs])
    return {m: float((durations < m * HOUR).mean()) for m in marks}


def _resolution_hist(trajs, spec, g):
    index = TShapeIndex(QuadTreeGrid(spec.boundary, g), alpha=5, beta=5)
    resolutions = [index.index_trajectory(t).resolution for t in trajs]
    hist = {}
    for r in resolutions:
        hist[r] = hist.get(r, 0) + 1
    return {r: c / len(resolutions) for r, c in sorted(hist.items())}


def test_fig14_time_range_distributions(benchmark, tdrive_data, lorry_data):
    table = ResultTable(
        "Fig 14(a)(b) - time-range CDF (fraction of trajectories under X hours)",
        ["dataset", "<1h", "<2h", "<6h", "<14h", "<18h"],
    )
    for name, data in (("tdrive", tdrive_data), ("lorry", lorry_data)):
        cdf = _duration_cdf(data, [1, 2, 6, 14, 18])
        table.add_row(name, cdf[1], cdf[2], cdf[6], cdf[14], cdf[18])
    save_table("fig14_time_ranges", table)

    # Paper's headline distribution facts must hold on the synthetic data.
    tdrive_cdf = _duration_cdf(tdrive_data, [2, 18])
    lorry_cdf = _duration_cdf(lorry_data, [2, 14])
    assert 0.5 <= tdrive_cdf[2] <= 0.8
    assert tdrive_cdf[18] >= 0.99
    assert 0.78 <= lorry_cdf[2] <= 0.95
    assert lorry_cdf[14] >= 0.99

    benchmark.pedantic(
        _duration_cdf, args=(tdrive_data, [1, 2, 6, 18]), rounds=3, iterations=1
    )


def test_fig14_resolution_distributions(benchmark, tdrive_data, lorry_data):
    table = ResultTable(
        "Fig 14(c)(d) - TShape resolution distribution (alpha=beta=5)",
        ["dataset", "resolution", "fraction"],
    )
    tdrive_hist = _resolution_hist(tdrive_data, TDRIVE_SPEC, 16)
    lorry_hist = _resolution_hist(lorry_data, LORRY_SPEC, 18)
    for r, frac in tdrive_hist.items():
        table.add_row("tdrive", r, frac)
    for r, frac in lorry_hist.items():
        table.add_row("lorry", r, frac)
    save_table("fig14_resolutions", table)

    # Concentration claims from the paper.
    assert sum(f for r, f in tdrive_hist.items() if 6 <= r <= 11) >= 0.7
    assert sum(f for r, f in lorry_hist.items() if 8 <= r <= 15) >= 0.7

    benchmark.pedantic(
        _resolution_hist, args=(tdrive_data[:300], TDRIVE_SPEC, 16), rounds=3, iterations=1
    )
