"""Tests for durable tables and cluster reopen (data_dir mode)."""


from repro.kvstore import Cluster, Scan


def k(i):
    return i.to_bytes(4, "big")


class TestDurableTable:
    def test_put_get_scan(self, tmp_path):
        with Cluster(workers=1, data_dir=tmp_path / "db") as c:
            t = c.create_table("t")
            for i in range(50):
                t.put(k(i), b"v%d" % i)
            assert t.get(k(7)) == b"v7"
            assert len(list(t.scan(Scan(k(10), k(20))))) == 10

    def test_reopen_recovers_rows(self, tmp_path):
        with Cluster(workers=1, data_dir=tmp_path / "db") as c:
            t = c.create_table("t")
            for i in range(100):
                t.put(k(i), b"v%d" % i)
        reopened = Cluster(workers=1, data_dir=tmp_path / "db")
        try:
            assert reopened.table_names() == ["t"]
            t = reopened.table("t")
            assert t.get(k(42)) == b"v42"
            assert t.count_rows() == 100
        finally:
            reopened.close()

    def test_reopen_preserves_region_layout(self, tmp_path):
        with Cluster(workers=1, split_rows=20, data_dir=tmp_path / "db") as c:
            t = c.create_table("t")
            for i in range(200):
                t.put(k(i), b"v")
            n_regions = len(t.regions)
            assert n_regions > 1
        reopened = Cluster(workers=1, split_rows=20, data_dir=tmp_path / "db")
        try:
            t = reopened.table("t")
            assert len(t.regions) == n_regions
            got = [key for key, _ in t.scan(Scan())]
            assert got == [k(i) for i in range(200)]
        finally:
            reopened.close()

    def test_deletes_survive_reopen(self, tmp_path):
        with Cluster(workers=1, data_dir=tmp_path / "db") as c:
            t = c.create_table("t")
            t.put(k(1), b"keep")
            t.put(k(2), b"drop")
            t.delete(k(2))
        reopened = Cluster(workers=1, data_dir=tmp_path / "db")
        try:
            t = reopened.table("t")
            assert t.get(k(1)) == b"keep"
            assert t.get(k(2)) is None
        finally:
            reopened.close()

    def test_split_removes_retired_region_dirs(self, tmp_path):
        with Cluster(workers=1, split_rows=20, data_dir=tmp_path / "db") as c:
            t = c.create_table("t")
            for i in range(100):
                t.put(k(i), b"v")
            live_ids = {getattr(r, "region_id", None) for r in t.regions}
        dirs = {p.name for p in (tmp_path / "db" / "t").glob("region-*")}
        expected = {f"region-{rid:04d}" for rid in live_ids}
        assert dirs == expected

    def test_multiple_tables(self, tmp_path):
        with Cluster(workers=1, data_dir=tmp_path / "db") as c:
            c.create_table("a").put(k(1), b"1")
            c.create_table("b").put(k(2), b"2")
        reopened = Cluster(workers=1, data_dir=tmp_path / "db")
        try:
            assert reopened.table_names() == ["a", "b"]
            assert reopened.table("a").get(k(1)) == b"1"
            assert reopened.table("b").get(k(2)) == b"2"
        finally:
            reopened.close()

    def test_drop_table_closes_durable_regions(self, tmp_path):
        """drop_table must close the table before forgetting it; otherwise
        every region's WAL file handle (and buffered writes) leak."""
        c = Cluster(workers=1, data_dir=tmp_path / "db")
        t = c.create_table("t")
        for i in range(30):
            t.put(k(i), b"v%d" % i)
        stores = [r._store for r in t.regions]
        c.drop_table("t")
        assert not c.has_table("t")
        for store in stores:
            assert store._wal._fh.closed
        c.close()

    def test_drop_table_flushes_rows_to_disk(self, tmp_path):
        """Closing on drop persists the memtable, so the on-disk directory
        (which drop_table leaves in place) stays recoverable."""
        with Cluster(workers=1, data_dir=tmp_path / "db") as c:
            t = c.create_table("t")
            for i in range(30):
                t.put(k(i), b"v%d" % i)
            c.drop_table("t")
        reopened = Cluster(workers=1, data_dir=tmp_path / "db")
        try:
            t = reopened.table("t")
            assert t.count_rows() == 30
            assert t.get(k(17)) == b"v17"
        finally:
            reopened.close()

    def test_memory_cluster_unaffected(self):
        """Default clusters keep the pure in-memory behavior."""
        c = Cluster(workers=1)
        t = c.create_table("t")
        t.put(k(1), b"v")
        assert t.get(k(1)) == b"v"
        c.close()


class TestDurableTMan:
    def test_tman_over_durable_cluster(self, tmp_path):
        from repro import TMan, TManConfig
        from repro.datasets import TDRIVE_SPEC, tdrive_like

        data = tdrive_like(40, seed=777)
        config = TManConfig(
            boundary=TDRIVE_SPEC.boundary, max_resolution=12,
            num_shards=1, kv_workers=1,
        )
        cluster = Cluster(workers=1, data_dir=tmp_path / "tman")
        tman = TMan(config, cluster=cluster)
        tman.bulk_load(data)
        target = data[3]
        cluster.close()

        # Reopen the same directory: rows and mappings are all on disk.
        cluster2 = Cluster(workers=1, data_dir=tmp_path / "tman")
        tman2 = TMan(config, cluster=cluster2)
        try:
            assert tman2.row_count == len(data)
            res = tman2.spatial_range_query(target.mbr)
            assert target.tid in {t.tid for t in res.trajectories}
            res = tman2.temporal_range_query(target.time_range)
            assert target.tid in {t.tid for t in res.trajectories}
        finally:
            cluster2.close()
