"""Quorum fault equivalence: kill a replica mid-query, results unchanged.

The process-mode guarantee mirrors thread-mode fault equivalence: with a
region-server worker killed *during* a query (armed ``rpc.scan`` /
``rpc.get`` crash points make the worker ``os._exit(1)`` mid-request),
every query type returns bit-identical results to the healthy thread-mode
run.  Writes replicated at ``write_quorum=2`` before the kill guarantee
the surviving replica holds the full acknowledged state; the paged-scan
protocol makes the failover invisible mid-stream.
"""

from __future__ import annotations

import time

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.model import MBR, TimeRange

N_TRAJS = 40
SEED = 99

QUERY_NAMES = ["temporal", "spatial", "st", "idt", "threshold", "topk", "knn"]


@pytest.fixture(scope="module")
def dataset():
    return tdrive_like(N_TRAJS, seed=SEED)


def _config(mode: str) -> TManConfig:
    return TManConfig(
        boundary=TDRIVE_SPEC.boundary,
        max_resolution=12,
        num_shards=2,
        kv_workers=2,
        cluster_mode=mode,
        cluster_nodes=2,
        replication_factor=2,
        read_quorum=1,
        write_quorum=2,
        # Zero-delay backoff: the replica-death retry path must not
        # stretch the suite's wall clock.
        retry_max_attempts=8,
        retry_base_ms=0.0,
        retry_max_ms=0.0,
    )


def _queries(dataset):
    span = TDRIVE_SPEC.boundary
    mid_x = (span.x1 + span.x2) / 2
    mid_y = (span.y1 + span.y2) / 2
    window = MBR(span.x1, span.y1, mid_x, mid_y)
    probe = dataset[7]
    t0 = probe.time_range.start
    return {
        "temporal": lambda t: t.temporal_range_query(TimeRange(t0, t0 + 5400)),
        "spatial": lambda t: t.spatial_range_query(window),
        "st": lambda t: t.st_range_query(window, TimeRange(t0, t0 + 7200)),
        "idt": lambda t: t.id_temporal_query(probe.oid, TimeRange(t0, t0 + 3600)),
        "threshold": lambda t: t.threshold_similarity_query(
            probe, 0.2, measure="frechet"
        ),
        "topk": lambda t: t.top_k_similarity_query(probe, 5, measure="frechet"),
        "knn": lambda t: t.knn_point_query(mid_x, mid_y, 5),
    }


@pytest.fixture(scope="module")
def baseline(dataset):
    """Healthy thread-mode reference results per query type."""
    t = TMan(_config("threads"))
    t.bulk_load(dataset)
    out = {}
    for name, run in _queries(dataset).items():
        res = run(t)
        assert len(res.trajectories) > 0  # guard against vacuous equality
        out[name] = ([x.tid for x in res.trajectories], res.distances)
    t.close()
    return out


def _victim(cluster) -> str:
    """The node every query must talk to: the primary table's first replica.

    All seven query types resolve trajectory rows from the primary table
    (directly via ``rpc.scan`` on the primary route, or via ``rpc.get``
    batches on the secondary routes), so arming both crash points on the
    primary store's first-preference replica guarantees the kill fires
    *during* the query regardless of the plan chosen.
    """
    primary_stores = sorted(
        sid for sid in cluster._stores if sid.startswith("tman_primary/")
    )
    assert primary_stores, "primary table has no replicated stores"
    return cluster.replicas(primary_stores[0])[0]


def _worker_exited(cluster, node: str) -> bool:
    """True once the killed worker process is gone.

    The router sees the dead socket (and the query fails over and may
    finish) a moment before ``os._exit`` completes in the worker, so give
    the exit a bounded moment before calling the kill a no-show.
    """
    give_up_at = time.monotonic() + 5.0
    while cluster._handles[node].alive and time.monotonic() < give_up_at:
        time.sleep(0.005)
    return not cluster._handles[node].alive


@pytest.mark.parametrize("qname", QUERY_NAMES)
def test_replica_killed_mid_query_results_identical(dataset, baseline, qname):
    t = TMan(_config("processes"))
    try:
        t.bulk_load(dataset)
        cluster = t.cluster
        victim = _victim(cluster)
        cluster.arm_crash(victim, "rpc.scan")
        cluster.arm_crash(victim, "rpc.get")

        res = _queries(dataset)[qname](t)

        tids, distances = baseline[qname]
        assert [x.tid for x in res.trajectories] == tids
        assert res.distances == distances
        # The kill really happened mid-query: the armed worker is gone
        # and the router noticed.
        assert _worker_exited(cluster, victim)
        assert cluster.cluster_health()["nodes"][victim]["state"] == "down"
    finally:
        t.close()


def test_killed_replica_rejoins_and_receives_hints(dataset, baseline):
    """After the mid-query kill, the node restarts, drains hints, serves reads."""
    t = TMan(_config("processes"))
    try:
        t.bulk_load(dataset)
        cluster = t.cluster
        victim = _victim(cluster)
        cluster.arm_crash(victim, "rpc.scan")
        cluster.arm_crash(victim, "rpc.get")
        run = _queries(dataset)["spatial"]
        run(t)
        assert _worker_exited(cluster, victim)

        cluster.restart_node(victim)
        health = cluster.cluster_health()
        assert health["nodes"][victim]["state"] == "up"
        assert health["nodes"][victim]["pending_hints"] == 0

        # Fully healed: the same query keeps returning the baseline and
        # can be served with the revived node back in rotation.
        res = run(t)
        tids, distances = baseline["spatial"]
        assert [x.tid for x in res.trajectories] == tids
        assert res.distances == distances
    finally:
        t.close()


def test_process_mode_matches_baseline_when_healthy(dataset, baseline):
    """Control: without any kill, process mode equals thread mode too."""
    t = TMan(_config("processes"))
    try:
        t.bulk_load(dataset)
        for name, run in _queries(dataset).items():
            res = run(t)
            tids, distances = baseline[name]
            assert [x.tid for x in res.trajectories] == tids
            assert res.distances == distances
    finally:
        t.close()
