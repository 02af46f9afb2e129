"""E11 — Figure 20: threshold similarity queries (Lorry-like, θ = 0.015).

TMan vs TraSS vs TrajMesa vs DFT vs DITA vs REPOSE over Fréchet, DTW, and
Hausdorff.  Paper shape: TMan fastest (finer TShape index + DP-feature local
filter); TraSS close behind; TrajMesa (MBR-only pruning) and the in-memory
systems verify many more candidates.
"""

import pytest

from benchmarks.comparators import DFT, DITA, REPOSE, TrajMesa, make_trass
from benchmarks.harness import ResultTable, run_queries
from repro.datasets import LORRY_SPEC

from benchmarks.conftest import save_table

# The paper uses theta=0.015 on the full 2.6M-trajectory Lorry dataset; the
# scaled-down dataset is sparser, so an equally selective threshold is a bit
# larger (otherwise the median result set is empty and exactness checks are
# vacuous).  DTW sums distances, so its equivalent threshold is larger still.
THETA = 0.05
DTW_THETA = 1.0
MEASURES = ["frechet", "dtw", "hausdorff"]
QUERIES = 6


@pytest.fixture(scope="module")
def similarity_systems(lorry_data, tman_lorry):
    trass = make_trass(LORRY_SPEC.boundary, max_resolution=16, num_shards=2, kv_workers=1)
    trass.bulk_load(lorry_data)
    trajmesa = TrajMesa(LORRY_SPEC.boundary, max_resolution=16, num_shards=2, kv_workers=1)
    trajmesa.bulk_load(lorry_data)
    dft = DFT(LORRY_SPEC.boundary)
    dft.bulk_load(lorry_data)
    dita = DITA(LORRY_SPEC.boundary)
    dita.bulk_load(lorry_data)
    repose = REPOSE(LORRY_SPEC.boundary)
    repose.bulk_load(lorry_data)
    systems = {
        "TMan": tman_lorry,
        "TraSS": trass,
        "TrajMesa": trajmesa,
        "DFT": dft,
        "DITA": dita,
        "REPOSE": repose,
    }
    yield systems
    trass.close()
    trajmesa.close()


def test_fig20_threshold_similarity(benchmark, similarity_systems, lorry_workload):
    queries = lorry_workload.query_trajectories(QUERIES)
    table = ResultTable(
        f"Fig 20 - threshold similarity (theta={THETA}, dtw theta={DTW_THETA})",
        ["system", "measure", "median_ms", "median_candidates", "median_results"],
    )
    collected = {}
    for measure in MEASURES:
        theta = DTW_THETA if measure == "dtw" else THETA
        reference = None
        for name, system in similarity_systems.items():
            stats = run_queries(
                lambda q, s=system, m=measure, t=theta: s.threshold_similarity_query(q, t, m),
                queries,
            )
            collected[(name, measure)] = stats
            table.add_row(name, measure, stats.median_ms, stats.median_candidates,
                          stats.median_results)
            # All systems agree on results (they are exact).
            if reference is None:
                reference = stats.median_results
            assert stats.median_results == reference, (name, measure)
    save_table("fig20_threshold_similarity", table)

    # Paper shape: TMan's DP-feature local filter needs no more candidate
    # verifications than TrajMesa's MBR-only pruning, and the thresholds are
    # selective but non-trivial.
    for measure in MEASURES:
        assert collected[("TMan", measure)].median_candidates <= (
            collected[("TrajMesa", measure)].median_candidates * 1.5
        )
    assert any(
        collected[("TMan", m)].median_results >= 1 for m in MEASURES
    )

    tman = similarity_systems["TMan"]
    benchmark.pedantic(
        lambda: [tman.threshold_similarity_query(q, THETA, "hausdorff") for q in queries[:2]],
        rounds=3,
        iterations=1,
    )
