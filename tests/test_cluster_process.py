"""Process-mode cluster: KV round trips, splits, handoff, TMan equivalence.

Thread mode stays the default and is the reference: everything the
process cluster does — replication, paged scans, failover, splits — must
be invisible at the query layer.  The equivalence tests here run the
same workload through both modes and require bit-identical results.
"""

from __future__ import annotations

import time
from dataclasses import replace

import pytest

from repro import TMan, TManConfig
from repro.cluster import rpc
from repro.cluster.process_cluster import ProcessCluster
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.kvstore.errors import NoQuorumError
from repro.kvstore.scan import Scan
from repro.model import TimeRange
from repro.query.types import TemporalRangeQuery
from repro.runtime.deadline import Deadline, QueryTimeoutError

from .conftest import seven_queries

N_TRAJS = 40
SEED = 99

QUERY_NAMES = ["temporal", "spatial", "st", "idt", "threshold", "topk", "knn"]


def _rows(n: int) -> list[tuple[bytes, bytes]]:
    return [(f"k{i:05d}".encode(), f"v{i}".encode() * 3) for i in range(n)]


# -- KV-level ---------------------------------------------------------------


@pytest.fixture(scope="module")
def kv():
    pc = ProcessCluster(
        nodes=2, replication_factor=2, read_quorum=2, write_quorum=2, workers=2
    )
    yield pc
    pc.close()


def test_put_get_delete_scan(kv):
    t = kv.create_table("basic")
    for key, value in _rows(30):
        t.put(key, value)
    t.delete(b"k00010")
    assert t.get(b"k00003") == b"v3v3v3"
    assert t.get(b"k00010") is None
    assert t.get(b"missing") is None
    got = list(t.scan(Scan(None, None)))
    assert len(got) == 29
    assert got == sorted(got)


def test_flush_persists_through_worker_engines(kv):
    t = kv.create_table("flushy")
    for key, value in _rows(20):
        t.put(key, value)
    t.flush()
    assert t.count_rows() == 20
    assert list(t.scan(Scan(b"k00005", b"k00008"))) == [
        (b"k00005", b"v5v5v5"),
        (b"k00006", b"v6v6v6"),
        (b"k00007", b"v7v7v7"),
    ]


def test_scan_pages_resume_across_page_boundaries():
    pc = ProcessCluster(
        nodes=2, replication_factor=2, read_quorum=1, write_quorum=2,
        page_rows=7, workers=2,
    )
    try:
        t = pc.create_table("paged")
        rows = _rows(100)
        for key, value in rows:
            t.put(key, value)
        assert list(t.scan(Scan(None, None))) == rows
    finally:
        pc.close()


# Sorted, disjoint windows over _rows(100): 8 + 1 + 37 + 10 rows.
WINDOWS = [
    (b"k00003", b"k00011"),
    (b"k00020", b"k00021"),
    (b"k00040", b"k00077"),
    (b"k00090", None),
]


def _windowed(rows, windows):
    return [
        (k, v)
        for start, stop in windows
        for k, v in rows
        if (start is None or k >= start) and (stop is None or k < stop)
    ]


@pytest.fixture()
def rpc_ops(monkeypatch):
    """Op codes of every RPC the coordinator issues, in order."""
    from repro.cluster.client import NodeClient

    ops: list[int] = []
    real = NodeClient.call

    def spy(self, op, args, deadline=None):
        ops.append(op)
        return real(self, op, args, deadline)

    monkeypatch.setattr(NodeClient, "call", spy)
    return ops


def test_scan_pages_resume_across_page_boundaries_for_a_window_list(rpc_ops):
    pc = ProcessCluster(
        nodes=2, replication_factor=2, read_quorum=1, write_quorum=2,
        page_rows=7, workers=2,
    )
    try:
        t = pc.create_table("paged_windows")
        rows = _rows(100)
        t.put_batch(rows)
        rpc_ops.clear()
        expected = _windowed(rows, WINDOWS)
        assert list(t.multi_range_scan(WINDOWS)) == expected
        # One region cursor paged through the whole list: no RPC per window.
        assert rpc_ops == [rpc.OP_SCAN_PAGE] * (len(expected) // 7 + 1)
    finally:
        pc.close()


def test_replica_killed_between_window_pages_gives_identical_stream():
    pc = ProcessCluster(
        nodes=2, replication_factor=2, read_quorum=1, write_quorum=2,
        page_rows=5, workers=2,
    )
    try:
        t = pc.create_table("failover_windows")
        rows = _rows(100)
        t.put_batch(rows)
        store = pc._stores["failover_windows/region-0000"]
        stream = store.scan_windows(WINDOWS)
        head = [next(stream) for _ in range(8)]  # two pages from one replica
        # Kill the serving worker without telling the coordinator: the
        # next page fails on the wire and fails over to the other replica.
        pc._handles[store._fresh_replicas()[0]].kill()
        assert head + list(stream) == _windowed(rows, WINDOWS)
    finally:
        pc.close()


def test_digest_check_covers_window_pages(rpc_ops):
    from repro import obs

    mismatches = obs.registry().get("cluster_digest_mismatch_total")
    pc = ProcessCluster(
        nodes=2, replication_factor=2, read_quorum=2, write_quorum=2,
        page_rows=16, workers=2,
    )
    try:
        t = pc.create_table("digested")
        rows = _rows(100)
        t.put_batch(rows)
        before = mismatches.value
        rpc_ops.clear()
        assert list(t.multi_range_scan(WINDOWS)) == _windowed(rows, WINDOWS)
        # Every page is digest-checked against the other replica.
        assert rpc_ops.count(rpc.OP_DIGEST) == rpc_ops.count(rpc.OP_SCAN_PAGE) == 4
        assert mismatches.value == before
        # A replica that diverged inside a window is caught.
        store_id = "digested/region-0000"
        replica = pc.replicas(store_id)[1]
        pc.client(replica).call(rpc.OP_PUT, (store_id, b"k00041", b"diverged"))
        list(t.multi_range_scan(WINDOWS))
        assert mismatches.value == before + 1
    finally:
        pc.close()


def test_region_split_spans_processes():
    pc = ProcessCluster(
        nodes=2, replication_factor=2, read_quorum=1, write_quorum=2,
        workers=2, split_rows=40,
    )
    try:
        t = pc.create_table("splitty")
        rows = _rows(200)
        for key, value in rows:
            t.put(key, value)
        assert len(t.regions) > 1
        # Every region got its own replicated store on the ring.
        assert len(pc._stores) == len(t.regions)
        assert list(t.scan(Scan(None, None))) == rows
        assert t.get(b"k00150") == rows[150][1]
    finally:
        pc.close()


def test_expired_deadline_surfaces_as_timeout_not_hang(kv):
    t = kv.create_table("deadliner")
    for key, value in _rows(50):
        t.put(key, value)
    store = kv._stores["deadliner/region-0000"]
    deadline = Deadline(30_000.0)
    deadline.cancel()  # force-expired before the RPC leaves
    started = time.monotonic()
    with pytest.raises(QueryTimeoutError) as err:
        list(store.scan(None, None, deadline=deadline))
    assert time.monotonic() - started < 5.0
    assert "rpc.scan" in str(err.value)


def test_write_quorum_denied_when_replica_down():
    pc = ProcessCluster(
        nodes=2, replication_factor=2, read_quorum=1, write_quorum=2, workers=2
    )
    try:
        t = pc.create_table("wq")
        t.put(b"a", b"1")
        pc.kill_node(pc.nodes[0])
        with pytest.raises(NoQuorumError):
            t.put(b"b", b"2")
        # Reads survive on the remaining replica (read_quorum=1).
        assert t.get(b"a") == b"1"
    finally:
        pc.close()


def test_hinted_handoff_delivers_after_restart():
    pc = ProcessCluster(
        nodes=2, replication_factor=2, read_quorum=1, write_quorum=1, workers=2
    )
    try:
        t = pc.create_table("handoff")
        t.put(b"before", b"1")
        victim = pc.nodes[0]
        pc.kill_node(victim)
        # write_quorum=1: the surviving replica acks, the dead one is hinted.
        t.put(b"during", b"2")
        t.delete(b"before")
        health = pc.cluster_health()
        assert health["nodes"][victim]["state"] == "down"
        assert health["nodes"][victim]["pending_hints"] == 2
        assert t.get(b"during") == b"2"

        pc.restart_node(victim)
        health = pc.cluster_health()
        assert health["nodes"][victim]["state"] == "up"
        assert health["nodes"][victim]["pending_hints"] == 0
        # The hinted write and tombstone really reached the victim's own
        # engine — read it directly, bypassing the replication layer.
        client = pc.client(victim)
        assert client.call(
            rpc.OP_GET_BATCH, ("handoff/region-0000", [b"during", b"before"])
        ) == [b"2", None]
    finally:
        pc.close()


def _replica_rows(pc: ProcessCluster, node: str, store_id: str):
    rows, done, _ = pc.client(node).call(rpc.OP_SCAN_PAGE, (store_id, [(None, None)], 10_000))
    assert done
    return rows


def test_put_batch_hints_every_row_and_rejoin_converges():
    pc = ProcessCluster(
        nodes=2, replication_factor=2, read_quorum=1, write_quorum=1, workers=2
    )
    try:
        t = pc.create_table("batchy")
        rows = _rows(60)
        t.put_batch(rows[:20])
        victim = pc.nodes[0]
        pc.kill_node(victim)
        # write_quorum=1: one PUT_BATCH is acknowledged by the survivor and
        # every row of it is hinted to the dead replica.
        t.put_batch(rows[20:])
        assert pc.cluster_health()["nodes"][victim]["pending_hints"] == 40
        assert list(t.scan(Scan(None, None))) == rows
        pc.restart_node(victim)
        assert pc.cluster_health()["nodes"][victim]["pending_hints"] == 0
        replicas = [_replica_rows(pc, node, "batchy/region-0000") for node in pc.nodes]
        assert replicas == [rows, rows]
    finally:
        pc.close()


def test_put_batch_denied_without_write_quorum():
    pc = ProcessCluster(
        nodes=2, replication_factor=2, read_quorum=1, write_quorum=2, workers=2
    )
    try:
        t = pc.create_table("batchwq")
        t.put_batch(_rows(5))
        pc.kill_node(pc.nodes[0])
        with pytest.raises(NoQuorumError):
            t.put_batch(_rows(10)[5:])
        assert pc.cluster_health()["nodes"][pc.nodes[0]]["pending_hints"] == 0
    finally:
        pc.close()


def test_add_node_rebalances_and_preserves_data():
    pc = ProcessCluster(
        nodes=2, replication_factor=2, read_quorum=1, write_quorum=2,
        workers=2, split_rows=30,
    )
    try:
        t = pc.create_table("grow")
        rows = _rows(150)
        for key, value in rows:
            t.put(key, value)
        stores_before = len(pc._stores)
        assert stores_before > 1
        node_id, moves = pc.add_node()
        assert node_id == "node-2"
        assert moves > 0
        assert len(pc.nodes) == 3
        assert list(t.scan(Scan(None, None))) == rows
        assert t.get(b"k00042") == rows[42][1]
    finally:
        pc.close()


# -- TMan-level equivalence -------------------------------------------------


@pytest.fixture(scope="module")
def dataset():
    return tdrive_like(N_TRAJS, seed=SEED)


def _config(mode: str, **overrides) -> TManConfig:
    settings = dict(
        boundary=TDRIVE_SPEC.boundary,
        max_resolution=12,
        num_shards=2,
        kv_workers=2,
        cluster_mode=mode,
        cluster_nodes=3,
        replication_factor=2,
        read_quorum=2,
        write_quorum=2,
    )
    return TManConfig(**{**settings, **overrides})


@pytest.fixture(scope="module")
def thread_tman(dataset):
    t = TMan(_config("threads"))
    t.bulk_load(dataset)
    yield t
    t.close()


@pytest.fixture(scope="module")
def process_tman(dataset):
    t = TMan(_config("processes"))
    t.bulk_load(dataset)
    yield t
    t.close()


@pytest.mark.parametrize("qname", QUERY_NAMES)
def test_query_types_bit_identical_across_modes(
    thread_tman, process_tman, dataset, qname
):
    query = seven_queries(dataset)[qname]
    expected = thread_tman.query(query)
    got = process_tman.query(query)
    assert len(expected.trajectories) > 0  # guard against vacuous equality
    assert [t.tid for t in got.trajectories] == [
        t.tid for t in expected.trajectories
    ]
    assert got.distances == expected.distances


@pytest.fixture(scope="module")
def process_tman_r1(dataset):
    t = TMan(_config("processes", read_quorum=1))
    t.bulk_load(dataset)
    yield t
    t.close()


def _io_delta(tman, query):
    before = tman.cluster.stats.snapshot()
    tman.query(query)
    return tman.cluster.stats.snapshot() - before


@pytest.mark.parametrize("qname", QUERY_NAMES)
def test_io_stats_identical_across_modes(
    thread_tman, process_tman, process_tman_r1, dataset, qname
):
    """Every IOStats counter but the two a worker counts for itself
    (``block_reads``, ``bloom_rejects``) agrees — point gets included."""
    query = seven_queries(dataset)[qname]
    coordinator_side = lambda d: replace(d, block_reads=0, bloom_rejects=0)  # noqa: E731
    expected = coordinator_side(_io_delta(thread_tman, query))
    assert expected.range_scans > 0
    for tman in (process_tman, process_tman_r1):
        assert coordinator_side(_io_delta(tman, query)) == expected
    if qname == "idt":
        assert expected.point_gets > 0


def test_row_counts_match_across_modes(thread_tman, process_tman):
    assert process_tman.row_count == thread_tman.row_count


def test_bulk_loaded_tables_identical_across_modes(thread_tman, process_tman):
    def contents(tman):
        tables = [tman.primary_table, *tman.secondary_tables.values()]
        return [list(table.scan(Scan())) for table in tables]

    assert contents(process_tman) == contents(thread_tman)


@pytest.fixture(scope="module")
def plan_matrices(thread_tman, process_tman, dataset):
    """``candidate_plans``: threads, processes, then both after a flush."""

    def matrix(tman):
        return {
            name: [
                (c.plan.index, c.plan.route, c.cost, c.est_rows)
                for c in tman.planner.candidate_plans(q)
            ]
            for name, q in seven_queries(dataset).items()
        }

    before = [matrix(thread_tman), matrix(process_tman)]
    thread_tman.flush()
    process_tman.flush()
    return before + [matrix(thread_tman), matrix(process_tman)]


@pytest.mark.parametrize("qname", QUERY_NAMES)
def test_candidate_plans_identical_across_modes(plan_matrices, qname):
    """Both modes price every route from the same numbers, flushed or not:
    statistics come from the coordinator-side writer."""
    threads_before = plan_matrices[0][qname]
    assert all(cost is not None for _, _, cost, _ in threads_before)
    assert [m[qname] for m in plan_matrices[1:]] == [threads_before] * 3


def test_health_reports_cluster_panel(thread_tman, process_tman):
    assert thread_tman.health()["cluster"] is None
    panel = process_tman.health()["cluster"]
    assert panel["mode"] == "processes"
    assert panel["replication_factor"] == 2
    assert panel["read_quorum"] == 2
    assert panel["write_quorum"] == 2
    assert len(panel["nodes"]) == 3
    for node in panel["nodes"].values():
        assert node["state"] == "up"
        assert node["alive"] is True
        assert node["pending_hints"] == 0


def test_deadline_mid_query_returns_partial_without_hanging(dataset):
    # One-row pages over every row force many scan RPCs (a region's whole
    # window list is one cursor, so only its rows make pages); a short
    # budget expires mid-stream.  The worker answers STATUS_EXPIRED, the
    # sink guard truncates, and the query returns partial=True — it must
    # never hang on the socket.
    t = TMan(_config("processes", cluster_page_rows=1, split_rows=2000))
    try:
        t.bulk_load(dataset)
        start = min(traj.time_range.start for traj in dataset)
        end = max(traj.time_range.end for traj in dataset)
        started = time.monotonic()
        res = t.query(
            TemporalRangeQuery(TimeRange(start, end)),
            deadline_ms=5.0,
            allow_partial=True,
        )
        assert time.monotonic() - started < 10.0
        assert res.partial is True
    finally:
        t.close()
