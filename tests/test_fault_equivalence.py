"""Query results under injected faults must be bit-identical to fault-free.

This is the harness's end-to-end guarantee: with transient scan/get/IO
faults injected at any seed and a rate within the retry budget, every
query type returns exactly the trajectories (same order, same distances)
it returns with injection off.  Resumable region scans and retried
batched gets may change *how* the rows are fetched — never *which* rows.
Two deployments of the same data run every case: one region per table,
with nothing read ahead, and a multi-region one (``split_rows=16``), whose
scans read runs ahead on the pool and whose batched gets fan out to it, so
the faults land there too.
"""

from __future__ import annotations

import itertools
import threading
from collections import Counter

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.kvstore.errors import TransientRPCError
from repro.kvstore.simfault import FaultConfig, fault_injection, set_fault_injector
from repro.model import MBR, TimeRange

N_TRAJS = 60
SEED = 777

QUERY_NAMES = ["temporal", "spatial", "st", "idt", "threshold", "topk", "knn"]
FAULT_CASES = [(0.05, 1), (0.05, 42), (0.1, 1), (0.1, 42)]
# The multi-region deployment adds a heavier case so that faults also land
# on the few region batches of its pooled multi_get.
MULTI_REGION_FAULT_CASES = FAULT_CASES + [(0.3, 3)]
DEPLOYMENT_CASES = [
    pytest.param("tman", rate, fseed, id=f"{rate}-{fseed}")
    for rate, fseed in FAULT_CASES
] + [
    pytest.param("tman_multi", rate, fseed, id=f"multi-{rate}-{fseed}")
    for rate, fseed in MULTI_REGION_FAULT_CASES
]


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    set_fault_injector(None)
    yield
    set_fault_injector(None)


@pytest.fixture(scope="module")
def dataset():
    return tdrive_like(N_TRAJS, seed=SEED)


def _deploy(dataset, split_rows):
    config = TManConfig(
        boundary=TDRIVE_SPEC.boundary,
        max_resolution=12,
        num_shards=2,
        kv_workers=2,
        split_rows=split_rows,
        # Zero-delay backoff keeps the suite fast; the attempt budget must
        # exceed the injector's max_consecutive (4) to guarantee recovery.
        retry_max_attempts=8,
        retry_base_ms=0.0,
        retry_max_ms=0.0,
    )
    t = TMan(config)
    t.bulk_load(dataset)
    return t


@pytest.fixture(scope="module")
def tman(dataset):
    t = _deploy(dataset, split_rows=500)
    yield t
    t.close()


@pytest.fixture(scope="module")
def tman_multi(dataset):
    t = _deploy(dataset, split_rows=16)
    yield t
    t.close()


def _queries(dataset):
    span = TDRIVE_SPEC.boundary
    mid_x = (span.x1 + span.x2) / 2
    mid_y = (span.y1 + span.y2) / 2
    window = MBR(span.x1, span.y1, mid_x, mid_y)
    probe = dataset[7]
    t0 = probe.time_range.start
    return {
        # Two days: enough primary keys (11) over enough regions that the
        # multi-region deployment resolves them with a pooled multi_get.
        "temporal": lambda t: t.temporal_range_query(
            TimeRange(t0, t0 + 2 * 86400)
        ),
        "spatial": lambda t: t.spatial_range_query(window),
        "st": lambda t: t.st_range_query(window, TimeRange(t0, t0 + 7200)),
        "idt": lambda t: t.id_temporal_query(
            probe.oid, TimeRange(t0, t0 + 3600)
        ),
        "threshold": lambda t: t.threshold_similarity_query(
            probe, 0.2, measure="frechet"
        ),
        "topk": lambda t: t.top_k_similarity_query(probe, 5, measure="frechet"),
        "knn": lambda t: t.knn_point_query(mid_x, mid_y, 5),
    }


def _results(tman, dataset):
    out = {}
    for name, run in _queries(dataset).items():
        res = run(tman)
        assert len(res.trajectories) > 0  # guard against vacuous equality
        out[name] = ([t.tid for t in res.trajectories], res.distances)
    return out


@pytest.fixture(scope="module")
def baseline(tman, dataset):
    """Fault-free reference results per query type."""
    return _results(tman, dataset)


@pytest.mark.parametrize("deployment,rate,fseed", DEPLOYMENT_CASES)
@pytest.mark.parametrize("qname", QUERY_NAMES)
def test_results_identical_under_faults(
    request, dataset, baseline, qname, deployment, rate, fseed
):
    tman = request.getfixturevalue(deployment)
    run = _queries(dataset)[qname]
    with fault_injection(FaultConfig.uniform(rate, seed=fseed)):
        res = run(tman)
    tids, distances = baseline[qname]
    assert [t.tid for t in res.trajectories] == tids
    if distances is not None:
        assert res.distances == distances


def test_multi_region_matches_single_region(tman_multi, dataset, baseline):
    tables = tman_multi.health()["tables"]
    assert all(t["regions"] > 1 for t in tables.values()), tables
    assert _results(tman_multi, dataset) == baseline


def test_multi_region_faults_hit_the_pool(tman_multi, dataset):
    # Guard: the "multi-" cases above must put faults on the pooled
    # scheduler's region scans and on pooled multi_get batches, which run
    # on the table's scan pool threads ("kv-scan").
    on_pool = Counter()

    def on_pool_threads(site, raise_fault):
        def wrapped():
            try:
                raise_fault()
            except TransientRPCError:
                if threading.current_thread().name.startswith("kv-scan"):
                    on_pool[site] += 1
                raise

        return wrapped

    for rate, fseed in MULTI_REGION_FAULT_CASES:
        with fault_injection(FaultConfig.uniform(rate, seed=fseed)) as injector:
            injector.scan_fault = on_pool_threads("scan", injector.scan_fault)
            injector.get_fault = on_pool_threads("get", injector.get_fault)
            for run in _queries(dataset).values():
                run(tman_multi)
    assert on_pool["scan"] > 0 and on_pool["get"] > 0, on_pool


def test_faults_were_actually_injected(tman, dataset, baseline):
    # Guard: the equivalence above is meaningless if the injector never
    # fired.  At 10% every query type together must hit several faults.
    injected = 0
    with fault_injection(FaultConfig.uniform(0.1, seed=42)) as injector:
        for run in _queries(dataset).values():
            run(tman)
        injected = injector.injected
    assert injected > 0


def test_trace_annotations_record_retries(tman, dataset, baseline):
    with fault_injection(FaultConfig.uniform(0.3, seed=3)) as injector:
        res = tman.spatial_range_query(
            MBR(
                TDRIVE_SPEC.boundary.x1,
                TDRIVE_SPEC.boundary.y1,
                (TDRIVE_SPEC.boundary.x1 + TDRIVE_SPEC.boundary.x2) / 2,
                (TDRIVE_SPEC.boundary.y1 + TDRIVE_SPEC.boundary.y2) / 2,
            )
        )
    assert injector.injected > 0
    assert res.profile.retries > 0
    assert res.profile.rpc_failures >= res.profile.retries
    # The counts survive into the JSON rendering and the stage table's
    # summary line.
    assert res.profile.as_dict()["retries"] == res.profile.retries
    assert f"retries={res.profile.retries}(" in res.profile.render()


def test_mid_stream_failures_resume_to_identical_results(
    tman_multi, dataset, baseline, monkeypatch
):
    """A region scan that fails after it delivered rows resumes after the
    last delivered key: the results equal the fault-free ones.

    The injector fails scans only at open, so this fake wraps every region
    engine's ``scan_windows``: each fresh cursor with more than one row
    raises once after its first row, and the retry's cursor (the next open
    on that engine) runs clean.  A retry that reopens over fewer windows
    than the failed cursor read resumed past delivered rows, and no
    delivered row is shipped twice.
    """
    failed_mid_stream = Counter()

    def failing_once_per_open(engine):
        scan_windows = engine.scan_windows
        opens = itertools.count()
        failed_windows = []

        def wrapped(windows, deadline=None):
            fail = next(opens) % 2 == 0
            if failed_windows and not fail:
                failed_mid_stream["resumed"] += windows != failed_windows.pop()
            delivered = 0
            for row in scan_windows(windows, deadline):
                if fail and delivered == 1:
                    failed_mid_stream["scan"] += 1
                    failed_windows.append(list(windows))
                    raise TransientRPCError("injected mid-stream scan failure")
                delivered += 1
                yield row

        return wrapped

    queries = _queries(dataset)

    def transferred_rows():
        return {name: run(tman_multi).transferred_rows for name, run in queries.items()}

    fault_free = transferred_rows()
    cluster = tman_multi.cluster
    for name in cluster.table_names():
        for region in cluster.table(name).regions:
            monkeypatch.setattr(
                region._store, "scan_windows", failing_once_per_open(region._store)
            )
    results = _results(tman_multi, dataset)
    assert results == baseline
    # No delivered row was shipped twice.
    assert transferred_rows() == fault_free
    assert failed_mid_stream["scan"] > 0 and failed_mid_stream["resumed"] > 0
