"""Extension benchmarks — the query types beyond the paper's six.

- index-only counts vs full materialization (decompression avoided);
- kNN-point queries vs a linear scan oracle;
- threshold similarity self-join vs brute-force pair enumeration.
"""

import time

from benchmarks.harness import ResultTable, percentile, run_queries
from repro.geometry.distance import point_to_polyline
from repro.query.types import TemporalRangeQuery
from repro.similarity.join import threshold_self_join
from repro.similarity.measures import distance_by_name

from benchmarks.conftest import save_table

HOUR = 3600.0
QUERIES = 8


def test_ext_count_vs_materialize(benchmark, tman_tdrive_tr_primary, tdrive_workload):
    windows = tdrive_workload.temporal_windows(6 * HOUR, QUERIES)
    count_stats = run_queries(
        lambda tr: tman_tdrive_tr_primary.count(TemporalRangeQuery(tr)), windows
    )
    full_stats = run_queries(tman_tdrive_tr_primary.temporal_range_query, windows)

    table = ResultTable(
        "Extension - index-only count vs full TRQ",
        ["mode", "median_ms", "candidates"],
    )
    table.add_row("count", count_stats.median_ms, count_stats.median_candidates)
    table.add_row("materialize", full_stats.median_ms, full_stats.median_candidates)
    save_table("ext_count_queries", table)

    # Same rows touched, but counting skips point decompression entirely.
    assert count_stats.median_candidates == full_stats.median_candidates
    assert count_stats.median_ms <= full_stats.median_ms * 1.2

    benchmark.pedantic(
        lambda: [tman_tdrive_tr_primary.count(TemporalRangeQuery(w)) for w in windows[:4]],
        rounds=3, iterations=1,
    )


def test_ext_knn_point(benchmark, tman_tdrive, tdrive_data, tdrive_workload):
    points = [(w.center[0], w.center[1]) for w in tdrive_workload.spatial_windows(1.0, QUERIES)]

    knn_ms = []
    for x, y in points:
        res = tman_tdrive.knn_point_query(x, y, 10)
        knn_ms.append(res.elapsed_ms)
        # Exactness against the linear oracle.
        oracle = sorted(
            (point_to_polyline(x, y, [p.xy for p in t.points]), t.tid)
            for t in tdrive_data
        )[:10]
        assert [t.tid for t in res.trajectories] == [tid for _, tid in oracle]

    scan_ms = []
    for x, y in points:
        t0 = time.perf_counter()
        sorted(
            (point_to_polyline(x, y, [p.xy for p in t.points]), t.tid)
            for t in tdrive_data
        )
        scan_ms.append((time.perf_counter() - t0) * 1000)

    table = ResultTable(
        "Extension - kNN point query (k=10) vs linear scan",
        ["mode", "median_ms"],
    )
    table.add_row("tshape expanding ring", percentile(knn_ms))
    table.add_row("linear scan", percentile(scan_ms))
    save_table("ext_knn_point", table)

    benchmark.pedantic(
        lambda: tman_tdrive.knn_point_query(points[0][0], points[0][1], 10),
        rounds=3, iterations=1,
    )


def test_ext_similarity_join(benchmark, tdrive_data):
    subset = tdrive_data[:250]
    theta = 0.03
    t0 = time.perf_counter()
    pruned = threshold_self_join(subset, theta, "hausdorff")
    pruned_ms = (time.perf_counter() - t0) * 1000

    distance = distance_by_name("hausdorff")
    t0 = time.perf_counter()
    brute = []
    items = sorted(subset, key=lambda t: t.tid)
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            if distance(a.points, b.points) <= theta:
                brute.append((a.tid, b.tid))
    brute_ms = (time.perf_counter() - t0) * 1000

    table = ResultTable(
        "Extension - threshold self-join (theta=0.03, Hausdorff, n=250)",
        ["mode", "ms", "pairs"],
    )
    table.add_row("grid + DP-feature pruning", pruned_ms, len(pruned))
    table.add_row("brute force", brute_ms, len(brute))
    save_table("ext_similarity_join", table)

    assert sorted((a, b) for a, b, _ in pruned) == sorted(brute)
    assert pruned_ms < brute_ms  # pruning must beat O(n^2) exact distances

    small = subset[:120]
    benchmark.pedantic(
        lambda: threshold_self_join(small, theta, "hausdorff"), rounds=3, iterations=1
    )
