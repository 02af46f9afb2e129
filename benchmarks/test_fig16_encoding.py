"""E5/E6 — Figure 16: used shapes and the shape-code encoding ablation.

(a) distribution of *used* shapes per enlarged element (5×5): real data uses
    a tiny fraction of the 2^25 possibilities, justifying the index cache;
(b) SRQ latency by encoding: genetic / greedy / bitmap / no-index-cache /
    XZ* / inverted-list — the cache-less planner wastes time enumerating
    shapes, and optimized encodings beat the raw bitmap order;
(c) storage (encode) time by encoding: genetic pays the most at load time.
"""

import time

import pytest

from repro import TMan, TManConfig
from benchmarks.comparators import make_trass
from benchmarks.harness import ResultTable, percentile, run_queries
from repro.core.quadtree import QuadTreeGrid
from repro.core.tshape import TShapeIndex
from repro.datasets import TDRIVE_SPEC

from benchmarks.conftest import save_table

QUERIES = 10
WINDOW_KM = 1.5


def test_fig16a_used_shapes(benchmark, tdrive_data):
    """Used shapes per enlarged element at 5x5 (paper: mostly < 10)."""

    def compute():
        index = TShapeIndex(QuadTreeGrid(TDRIVE_SPEC.boundary, 14), alpha=5, beta=5)
        by_element: dict[int, set[int]] = {}
        for traj in tdrive_data:
            key = index.index_trajectory(traj)
            by_element.setdefault(key.element_code, set()).add(key.raw_shape)
        return sorted(len(s) for s in by_element.values())

    counts = compute()
    table = ResultTable(
        "Fig 16(a) - used shapes per enlarged element (5x5)",
        ["statistic", "value"],
    )
    table.add_row("elements", len(counts))
    table.add_row("median shapes", percentile(counts, 50))
    table.add_row("p90 shapes", percentile(counts, 90))
    table.add_row("max shapes", counts[-1])
    table.add_row("theoretical space", 2 ** 25)
    save_table("fig16a_used_shapes", table)

    # Paper: almost all elements use a tiny fraction of the shape space.
    assert percentile(counts, 90) < 100
    assert counts[-1] < 2 ** 25 / 1000

    benchmark.pedantic(compute, rounds=3, iterations=1)


@pytest.fixture(scope="module")
def encoded_systems(tdrive_data):
    """One TMan per encoding method, plus the no-cache and XZ* ablations."""
    built = {}
    encode_times = {}

    for method in ("genetic", "greedy", "bitmap"):
        cfg = TManConfig(
            boundary=TDRIVE_SPEC.boundary, alpha=3, beta=3, max_resolution=14,
            num_shards=2, kv_workers=1, shape_encoding=method,
        )
        tman = TMan(cfg)
        t0 = time.perf_counter()
        report = tman.bulk_load(tdrive_data)
        encode_times[method] = (report.encode_seconds, time.perf_counter() - t0)
        built[method] = tman

    # No index cache: same bitmap layout, planner enumerates 2^9 shapes.
    no_cache = TMan(
        TManConfig(
            boundary=TDRIVE_SPEC.boundary, alpha=3, beta=3, max_resolution=14,
            num_shards=2, kv_workers=1, shape_encoding="bitmap",
            use_index_cache=False,
        )
    )
    t0 = time.perf_counter()
    report = no_cache.bulk_load(tdrive_data)
    encode_times["no-cache"] = (report.encode_seconds, time.perf_counter() - t0)
    built["no-cache"] = no_cache

    trass = make_trass(TDRIVE_SPEC.boundary, max_resolution=14, num_shards=2, kv_workers=1)
    t0 = time.perf_counter()
    report = trass.bulk_load(tdrive_data)
    encode_times["xz*"] = (report.encode_seconds, time.perf_counter() - t0)
    built["xz*"] = trass

    yield built, encode_times
    for tman in built.values():
        tman.close()


class InvertedListIndex:
    """The paper's strawman: an inverted list of intersecting cells.

    Each trajectory is posted under every grid cell it touches; queries
    union the posting lists of cells overlapping the window and deduplicate.
    More storage, duplicate elimination at query time.
    """

    def __init__(self, boundary, grid_bits, trajs):
        self.boundary = boundary
        self.grid_bits = grid_bits
        self.posting: dict[int, list] = {}
        self._by_tid = {t.tid: t for t in trajs}
        n = 1 << grid_bits
        for t in trajs:
            cells = set()
            for p in t.points:
                cx = min(n - 1, int((p.lng - boundary.x1) / boundary.width * n))
                cy = min(n - 1, int((p.lat - boundary.y1) / boundary.height * n))
                cells.add(cy * n + cx)
            for c in cells:
                self.posting.setdefault(c, []).append(t.tid)
        self.entry_count = sum(len(v) for v in self.posting.values())

    def query(self, window):
        from repro.geometry.relations import polyline_intersects_rect

        n = 1 << self.grid_bits
        x1 = max(0, int((window.x1 - self.boundary.x1) / self.boundary.width * n))
        x2 = min(n - 1, int((window.x2 - self.boundary.x1) / self.boundary.width * n))
        y1 = max(0, int((window.y1 - self.boundary.y1) / self.boundary.height * n))
        y2 = min(n - 1, int((window.y2 - self.boundary.y1) / self.boundary.height * n))
        candidates: set[str] = set()
        touched = 0
        for cy in range(y1, y2 + 1):
            for cx in range(x1, x2 + 1):
                tids = self.posting.get(cy * n + cx, ())
                touched += len(tids)
                candidates.update(tids)
        out = []
        for tid in sorted(candidates):
            traj = self._by_tid[tid]
            if polyline_intersects_rect([p.xy for p in traj.points], window):
                out.append(traj)
        return out, touched


def test_fig16b_query_time_by_encoding(benchmark, encoded_systems, tdrive_workload, tdrive_data):
    built, _ = encoded_systems
    windows = tdrive_workload.spatial_windows(WINDOW_KM, QUERIES)
    table = ResultTable(
        "Fig 16(b) - SRQ latency by shape-code encoding",
        ["encoding", "median_ms", "median_candidates", "median_results"],
    )
    stats = {}
    for name, tman in built.items():
        s = run_queries(tman.spatial_range_query, windows)
        stats[name] = s
        table.add_row(name, s.median_ms, s.median_candidates, s.median_results)

    inverted = InvertedListIndex(TDRIVE_SPEC.boundary, 8, tdrive_data)
    inv_ms, inv_touched = [], []
    for w in windows:
        t0 = time.perf_counter()
        _, touched = inverted.query(w)
        inv_ms.append((time.perf_counter() - t0) * 1000)
        inv_touched.append(touched)
    table.add_row("inverted-list", percentile(inv_ms), percentile(inv_touched), 0)
    save_table("fig16b_encoding_query", table)

    # Paper shapes: the no-cache planner is slower than any cached encoding,
    # and every encoding returns identical results.
    assert stats["no-cache"].median_ms >= stats["greedy"].median_ms
    counts = {s.median_results for k, s in stats.items() if k != "xz*"}
    assert len(counts) == 1

    tman = built["greedy"]
    benchmark.pedantic(
        lambda: [tman.spatial_range_query(w) for w in windows[:4]],
        rounds=3, iterations=1,
    )


def test_fig16c_storage_time_by_encoding(benchmark, encoded_systems):
    _, encode_times = encoded_systems
    table = ResultTable(
        "Fig 16(c) - load-time cost by encoding",
        ["encoding", "encode_s", "total_load_s"],
    )
    for name, (encode_s, total_s) in encode_times.items():
        table.add_row(name, encode_s, total_s)
    save_table("fig16c_encoding_storage", table)

    # Paper shape: genetic encoding costs the most to store.
    assert encode_times["genetic"][0] >= encode_times["greedy"][0]
    assert encode_times["genetic"][0] >= encode_times["bitmap"][0]

    from repro.core.shape_encoding import ShapeEncoder

    shapes = list(range(1, 40))
    benchmark.pedantic(
        lambda: ShapeEncoder("greedy").encode(shapes), rounds=3, iterations=1
    )
