"""E12 — Figure 21: top-k similarity queries (Lorry-like).

k sweeps {1, 5, 10, 20, 50} over TMan / DFT / DITA / REPOSE (Fréchet).
Paper shape: TMan best; DFT suffers when partition sampling yields large
thresholds; all systems return identical top-k sets (exact semantics).
"""

import pytest

from benchmarks.comparators import DFT, DITA, REPOSE, make_trass
from benchmarks.harness import ResultTable, run_queries
from repro.datasets import LORRY_SPEC

from benchmarks.conftest import save_table

KS = [1, 5, 10, 20, 50]
QUERIES = 4
MEASURE = "frechet"


@pytest.fixture(scope="module")
def topk_systems(lorry_data, tman_lorry):
    trass = make_trass(LORRY_SPEC.boundary, max_resolution=16, num_shards=2, kv_workers=1)
    trass.bulk_load(lorry_data)
    dft = DFT(LORRY_SPEC.boundary)
    dft.bulk_load(lorry_data)
    dita = DITA(LORRY_SPEC.boundary)
    dita.bulk_load(lorry_data)
    repose = REPOSE(LORRY_SPEC.boundary)
    repose.bulk_load(lorry_data)
    yield {
        "TMan": tman_lorry, "TraSS": trass,
        "DFT": dft, "DITA": dita, "REPOSE": repose,
    }
    trass.close()


def test_fig21_topk(benchmark, topk_systems, lorry_workload):
    queries = lorry_workload.query_trajectories(QUERIES)
    table = ResultTable(
        "Fig 21 - top-k similarity latency (ms, Frechet)",
        ["system"] + [f"k={k}" for k in KS],
    )
    cand_table = ResultTable(
        "Fig 21(b) - top-k verified/scanned candidates",
        ["system"] + [f"k={k}" for k in KS],
    )
    collected = {}
    result_sets: dict[tuple[str, int], list[list[str]]] = {}
    for name, system in topk_systems.items():
        times, cands = [], []
        for k in KS:
            tids_per_query = []

            def run(q, s=system, kk=k):
                res = s.top_k_similarity_query(q, kk, MEASURE)
                tids_per_query.append([t.tid for t in res.trajectories])
                return res

            stats = run_queries(run, queries)
            result_sets[(name, k)] = tids_per_query
            times.append(stats.median_ms)
            cands.append(stats.median_candidates)
        collected[name] = (times, cands)
        table.add_row(name, *times)
        cand_table.add_row(name, *cands)
    save_table("fig21_topk_times", table)
    save_table("fig21_topk_candidates", cand_table)

    # Exactness: every system returns the same top-k ids.
    names = list(topk_systems)
    for k in KS:
        reference = result_sets[(names[0], k)]
        for name in names[1:]:
            assert result_sets[(name, k)] == reference, (name, k)

    # Latency grows (weakly) with k for each system.
    for name, (times, _) in collected.items():
        assert times[-1] >= times[0] * 0.3  # no pathological inversions

    tman = topk_systems["TMan"]
    benchmark.pedantic(
        lambda: [tman.top_k_similarity_query(q, 10, MEASURE) for q in queries[:2]],
        rounds=3,
        iterations=1,
    )
