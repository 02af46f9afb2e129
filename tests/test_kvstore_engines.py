"""The storage-engine contract and the one place a cluster chooses it.

Every engine a region can run on — the in-memory ``LSMStore``, the
on-disk ``DurableLSMStore`` and the process-mode ``ReplicatedStore`` —
implements the whole ``KVStoreEngine`` protocol, and each comes from its
cluster's store builder.  A cluster holds only the engine state its
engine uses: a block cache where SSTables live on disk, a flush pool
where memory stores have watermarks, neither in process mode.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import TMan, TManConfig
from repro.cluster import rpc
from repro.cluster.client import NodeClient
from repro.cluster.process_cluster import ProcessCluster
from repro.datasets import TDRIVE_SPEC
from repro.kvstore.block_cache import BlockCache
from repro.kvstore.cluster import Cluster
from repro.runtime.backpressure import WriteLimits
from repro.runtime.deadline import Deadline

ENGINES = {"memory": "LSMStore", "durable": "DurableLSMStore", "replicated": "ReplicatedStore"}


@pytest.fixture(params=sorted(ENGINES))
def engine(request, tmp_path):
    """``(kind, cluster, store)``: region 7 of table ``engines``, made by the
    cluster's store builder."""
    if request.param == "replicated":
        cluster = ProcessCluster(
            nodes=1, replication_factor=1, workers=1, cluster_data_dir=str(tmp_path)
        )
    else:
        data_dir = tmp_path / "db" if request.param == "durable" else None
        cluster = Cluster(workers=1, data_dir=data_dir)
    try:
        yield request.param, cluster, cluster._builder.store("engines", 7)
    finally:
        cluster.close()


def _remains(kind, cluster, store) -> bool:
    """True while any trace of ``store`` is left where its engine keeps data."""
    if kind == "durable":
        return store.data_dir.exists()
    if kind == "replicated":
        stats = cluster.client("node-0").call(rpc.OP_STATS, ())
        return store.store_id in stats["stores"] or (
            cluster.cluster_dir / "node-0" / store.store_id
        ).exists()
    return False


def test_every_engine_implements_the_whole_contract(engine):
    kind, cluster, store = engine
    assert type(store).__name__ == ENGINES[kind]
    rows = [(b"k%03d" % i, b"v%d" % i) for i in range(40)]
    store.put(b"k000", b"old")
    store.put_batch(rows)
    store.delete(b"k005")
    assert store.get_batch([b"k000", b"k005", b"zz"]) == [b"v0", None, None]
    assert store.memtable_bytes >= 0
    store.flush()
    assert store.memtable_bytes == 0

    live = [row for row in rows if row[0] != b"k005"]
    assert list(store.scan()) == live
    assert list(store.scan(b"k010", b"k013")) == live[9:12]
    windows = [(b"k001", b"k003"), (b"k004", b"k007"), (b"k038", None)]
    wanted = (b"k001", b"k002", b"k004", b"k006", b"k038", b"k039")
    want = [row for row in live if row[0] in wanted]
    assert list(store.scan_windows(windows)) == want
    assert list(store.scan_windows(windows, Deadline(60_000))) == want

    assert _remains(kind, cluster, store) == (kind != "memory")
    store.close()
    store.destroy()
    assert not _remains(kind, cluster, store)


def _engine_state(cluster) -> list:
    """The block caches, write limits and flush pools a cluster holds (its
    scan pool aside)."""
    held = [*vars(cluster).values(), *vars(cluster._builder).values()]
    return [
        value
        for value in held
        if isinstance(value, (BlockCache, WriteLimits))
        or (isinstance(value, ThreadPoolExecutor) and value is not cluster._executor)
    ]


def test_process_mode_coordinator_holds_no_engine_state(tmp_path):
    config = TManConfig(
        boundary=TDRIVE_SPEC.boundary, cluster_mode="processes", cluster_nodes=1,
        replication_factor=1, cluster_data_dir=str(tmp_path),
        memtable_soft_bytes=1 << 16, memtable_hard_bytes=1 << 20,
    )
    with TMan(config) as tman:
        assert tman.cluster.block_cache is None
        assert _engine_state(tman.cluster) == []
    # The same watermarks on a memory cluster do reach its engine.
    limits = WriteLimits(soft_bytes=1 << 16, hard_bytes=1 << 20)
    with Cluster(workers=1, write_limits=limits) as cluster:
        state = _engine_state(cluster)
        assert len(state) == 2 and limits in state
        assert any(getattr(v, "_thread_name_prefix", "") == "kv-flush" for v in state)


def test_memory_cluster_has_no_block_cache():
    with Cluster() as cluster:
        assert cluster.block_cache is None
        assert _engine_state(cluster) == []


def test_durable_cluster_shares_one_block_cache(tmp_path):
    with Cluster(workers=1, split_rows=20, data_dir=tmp_path / "db") as cluster:
        for name in ("a", "b"):
            table = cluster.create_table(name)
            table.put_batch([(b"k%03d" % i, b"v") for i in range(60)])
        regions = [r for name in ("a", "b") for r in cluster.table(name).regions]
        assert len(regions) > 2
        assert isinstance(cluster.block_cache, BlockCache)
        assert all(r._store._block_cache is cluster.block_cache for r in regions)


def test_new_regions_read_nothing(tmp_path, monkeypatch):
    """A new table and both halves of every split start empty: building them
    costs no scan, so a process-mode load pays ``SCAN_PAGE`` only for each
    split's median key and drain (one page each at this size)."""
    ops = []
    call = NodeClient.call

    def counting(self, op, args, deadline=None):
        ops.append(op)
        return call(self, op, args, deadline)

    monkeypatch.setattr(NodeClient, "call", counting)
    with ProcessCluster(
        nodes=1, replication_factor=1, workers=1, split_rows=50,
        cluster_data_dir=str(tmp_path),
    ) as cluster:
        table = cluster.create_table("t")
        assert ops.count(rpc.OP_SCAN_PAGE) == 0
        for i in range(200):
            table.put(i.to_bytes(4, "big"), b"v%d" % i)
        splits = len(table.regions) - 1
        assert splits >= 3
        assert ops.count(rpc.OP_SCAN_PAGE) == 2 * splits
        assert [r.approx_rows for r in table.regions] == [
            sum(1 for _ in r.drain()) for r in table.regions
        ]


def test_reopened_regions_count_their_rows(tmp_path):
    """Regions rebuilt from ``regions.json`` recover their row estimates."""
    with Cluster(workers=1, split_rows=40, data_dir=tmp_path / "db") as cluster:
        table = cluster.create_table("t")
        table.put_batch([(b"k%04d" % i, b"v") for i in range(200)])
        for i in range(0, 200, 7):
            table.delete(b"k%04d" % i)
        before = [r.approx_rows for r in table.regions]
    with Cluster(workers=1, split_rows=40, data_dir=tmp_path / "db") as cluster:
        regions = cluster.table("t").regions
        assert len(regions) > 2
        live = [sum(1 for _ in r.drain()) for r in regions]
        assert [r.approx_rows for r in regions] == live == before
        assert sum(live) == 200 - len(range(0, 200, 7))
