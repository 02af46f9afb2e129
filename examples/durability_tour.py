"""Durability tour: persistence, crash recovery, and reopening deployments.

Walks the three durability layers this reproduction adds around the paper's
in-memory design:

1. whole-deployment snapshots (``save_tman`` / ``open_tman``);
2. a durable cluster (``Cluster(data_dir=...)``) whose tables live on disk
   behind a write-ahead log;
3. WAL crash recovery demonstrated directly on a ``DurableLSMStore``.

Run with:  python examples/durability_tour.py
"""

import tempfile
from pathlib import Path

from repro import TMan, TManConfig, open_tman, save_tman
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.kvstore import Cluster, DurableLSMStore


def snapshot_roundtrip(workdir: Path) -> None:
    print("== 1. Deployment snapshots ==")
    data = tdrive_like(300, seed=42)
    config = TManConfig(boundary=TDRIVE_SPEC.boundary, max_resolution=14)
    with TMan(config) as tman:
        tman.bulk_load(data)
        save_tman(tman, workdir / "deployment")
        print(f"saved {tman.row_count} rows -> {workdir / 'deployment'}")

    with open_tman(workdir / "deployment") as reopened:
        target = data[5]
        res = reopened.spatial_range_query(target.mbr)
        found = target.tid in {t.tid for t in res.trajectories}
        print(f"reopened: {reopened.row_count} rows, probe query found target: {found}")


def durable_cluster(workdir: Path) -> None:
    print("\n== 2. Durable cluster (WAL + disk SSTables per region) ==")
    data = tdrive_like(200, seed=43)
    config = TManConfig(
        boundary=TDRIVE_SPEC.boundary, max_resolution=14, num_shards=1, kv_workers=1
    )
    cluster = Cluster(workers=1, data_dir=workdir / "cluster")
    tman = TMan(config, cluster=cluster)
    tman.bulk_load(data)
    target = data[7]
    cluster.close()
    print(f"wrote {len(data)} trajectories to {workdir / 'cluster'} and closed")

    # Reopen from the directory alone: the rows, the index parameters and the
    # shape-code mappings are all tables on disk, and a TMan constructed on a
    # store that holds rows rebuilds the planner's statistics itself.
    cluster2 = Cluster(workers=1, data_dir=workdir / "cluster")
    tman2 = TMan(config, cluster=cluster2)
    try:
        srq = {t.tid for t in tman2.spatial_range_query(target.mbr).trajectories}
        trq = {t.tid for t in tman2.temporal_range_query(target.time_range).trajectories}
        print(f"reopened from disk: {tman2.row_count} rows, "
              f"SRQ found target: {target.tid in srq}, TRQ found target: {target.tid in trq}")
        assert tman2.row_count == len(data)
        assert target.tid in srq and target.tid in trq
    finally:
        cluster2.close()


def wal_crash_recovery(workdir: Path) -> None:
    print("\n== 3. WAL crash recovery ==")
    db = workdir / "crashy"
    store = DurableLSMStore(db)
    store.put(b"committed-1", b"before the crash")
    store.put(b"committed-2", b"also before")
    # Simulate a crash: the process dies without flush() or close().
    del store
    print("wrote 2 keys, then 'crashed' without flushing")

    recovered = DurableLSMStore(db)
    print(f"recovered from WAL: committed-1 = {recovered.get(b'committed-1')!r}, "
          f"committed-2 = {recovered.get(b'committed-2')!r}")
    recovered.close()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="tman-durability-") as tmp:
        workdir = Path(tmp)
        snapshot_roundtrip(workdir)
        durable_cluster(workdir)
        wal_crash_recovery(workdir)
    print("\nAll durability paths verified.")


if __name__ == "__main__":
    main()
