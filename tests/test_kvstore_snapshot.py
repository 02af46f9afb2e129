"""Tests for cluster snapshots."""

import pytest

from repro.kvstore import Cluster, Scan
from repro.kvstore.errors import CorruptionError
from repro.kvstore.snapshot import load_cluster, save_cluster


class TestClusterSnapshot:
    def _populated(self):
        c = Cluster(workers=1, split_rows=50)
        t1 = c.create_table("alpha")
        t2 = c.create_table("beta")
        for i in range(200):
            t1.put(i.to_bytes(4, "big"), b"v%d" % i)
        t2.put(b"solo", b"row")
        return c

    def test_roundtrip(self, tmp_path):
        original = self._populated()
        path = tmp_path / "snap.bin"
        written = save_cluster(original, path)
        assert written == 201

        restored = load_cluster(path, Cluster(workers=1))
        assert restored.table_names() == ["alpha", "beta"]
        assert restored.table("beta").get(b"solo") == b"row"
        rows = list(restored.table("alpha").scan(Scan()))
        assert len(rows) == 200
        assert rows == list(original.table("alpha").scan(Scan()))

    def test_empty_cluster(self, tmp_path):
        path = tmp_path / "empty.bin"
        save_cluster(Cluster(workers=1), path)
        restored = load_cluster(path)
        assert restored.table_names() == []

    def test_deleted_rows_not_persisted(self, tmp_path):
        c = Cluster(workers=1)
        t = c.create_table("t")
        t.put(b"keep", b"1")
        t.put(b"drop", b"2")
        t.delete(b"drop")
        path = tmp_path / "s.bin"
        save_cluster(c, path)
        restored = load_cluster(path)
        assert restored.table("t").get(b"drop") is None
        assert restored.table("t").get(b"keep") == b"1"

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not a snapshot")
        with pytest.raises(CorruptionError):
            load_cluster(path)

    def test_rejects_truncated(self, tmp_path):
        original = self._populated()
        path = tmp_path / "s.bin"
        save_cluster(original, path)
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CorruptionError):
            load_cluster(path)
