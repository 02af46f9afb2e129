"""Tests for the WAL, disk SSTables, and the durable LSM store."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.durable import DurableLSMStore
from repro.kvstore.errors import CorruptionError
from repro.kvstore.memtable import TOMBSTONE
from repro.kvstore.sstable import SSTable, write_sstable
from repro.kvstore.stats import IOStats
from repro.kvstore.wal import OP_DELETE, OP_PUT, WriteAheadLog


class TestWAL:
    def test_replay_roundtrip(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal.log") as wal:
            wal.append_put(b"a", b"1")
            wal.append_delete(b"b")
            wal.append_put(b"c", b"\x00binary\xff")
            records = list(wal.replay())
        assert records == [
            (OP_PUT, b"a", b"1"),
            (OP_DELETE, b"b", b""),
            (OP_PUT, b"c", b"\x00binary\xff"),
        ]

    def test_replay_survives_reopen(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_put(b"k", b"v")
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == [(OP_PUT, b"k", b"v")]

    def test_torn_tail_ignored(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_put(b"good", b"1")
            wal.append_put(b"alsogood", b"2")
        # Simulate a crash mid-write: truncate the last few bytes.
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with WriteAheadLog(path) as wal:
            records = list(wal.replay())
        assert records == [(OP_PUT, b"good", b"1")]

    @pytest.mark.parametrize("op", ["put", "delete"])
    def test_torn_tail_under_group_commit(self, tmp_path, op):
        # sync=False is the mode durable regions run in: records reach the
        # OS per append but are only fsynced at flush/close, so a crash can
        # tear the last record.  Replay must stop at the intact prefix for
        # puts and deletes alike.
        path = tmp_path / "wal.log"
        with WriteAheadLog(path, sync=False) as wal:
            wal.append_put(b"base", b"0")
            if op == "put":
                wal.append_put(b"tail", b"1")
            else:
                wal.append_delete(b"tail")
        data = path.read_bytes()
        path.write_bytes(data[:-2])
        with WriteAheadLog(path, sync=False) as wal:
            assert list(wal.replay()) == [(OP_PUT, b"base", b"0")]

    def test_fsync_after_close_is_noop(self, tmp_path):
        # The idempotent close chain may call fsync() on an already-closed
        # group-commit log (with-block plus explicit close).
        wal = WriteAheadLog(tmp_path / "wal.log", sync=False)
        wal.append_put(b"k", b"v")
        wal.close()
        wal.fsync()  # must not raise on the closed handle
        wal.close()

    def test_corrupt_record_stops_replay(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append_put(b"one", b"1")
            wal.append_put(b"two", b"2")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a bit in the second record's value
        path.write_bytes(bytes(data))
        with WriteAheadLog(path) as wal:
            assert list(wal.replay()) == [(OP_PUT, b"one", b"1")]

    def test_truncate_clears(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal.log") as wal:
            wal.append_put(b"k", b"v")
            wal.truncate()
            assert list(wal.replay()) == []

    def test_rejects_unknown_op(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal.log") as wal:
            with pytest.raises(ValueError):
                wal.append(9, b"k", b"v")


class TestDiskSSTable:
    def _entries(self, n):
        return [(i.to_bytes(4, "big"), b"value-%d" % i) for i in range(n)]

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, self._entries(200))
        table = SSTable(path)
        assert len(table) == 200
        assert list(table.scan()) == self._entries(200)

    def test_point_gets(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, self._entries(100))
        table = SSTable(path)
        assert table.get((42).to_bytes(4, "big")) == b"value-42"
        assert table.get((1000).to_bytes(4, "big")) is None

    def test_range_scan(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, self._entries(300))
        table = SSTable(path)
        got = [k for k, _ in table.scan((50).to_bytes(4, "big"), (90).to_bytes(4, "big"))]
        assert got == [i.to_bytes(4, "big") for i in range(50, 90)]

    def test_empty_table(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, [])
        table = SSTable(path)
        assert len(table) == 0 and list(table.scan()) == []

    def test_rejects_unsorted(self, tmp_path):
        with pytest.raises(ValueError):
            write_sstable(tmp_path / "t.sst", [(b"b", b"1"), (b"a", b"2")])

    def test_detects_index_corruption(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, self._entries(64))
        data = bytearray(path.read_bytes())
        data[-25] ^= 0xFF  # damage the index section (just before the footer)
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            SSTable(path)

    def test_detects_footer_corruption(self, tmp_path):
        path = tmp_path / "t.sst"
        write_sstable(path, self._entries(64))
        data = bytearray(path.read_bytes())
        data[-20] ^= 0xFF  # damage the footer's index offset
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptionError):
            SSTable(path)

    def test_rejects_non_sstable(self, tmp_path):
        path = tmp_path / "junk.sst"
        path.write_bytes(b"hello world, definitely not an sstable")
        with pytest.raises(CorruptionError):
            SSTable(path)

    def test_block_reads_counted(self, tmp_path):
        stats = IOStats()
        path = tmp_path / "t.sst"
        write_sstable(path, self._entries(100))
        table = SSTable(path, stats)
        list(table.scan())
        assert stats.snapshot().block_reads == 100


class TestDurableLSM:
    def test_basic_roundtrip(self, tmp_path):
        with DurableLSMStore(tmp_path / "db") as store:
            store.put(b"k1", b"v1")
            store.put(b"k2", b"v2")
            store.delete(b"k1")
            assert store.get(b"k1") is None
            assert store.get(b"k2") == b"v2"

    def test_crash_recovery_from_wal(self, tmp_path):
        store = DurableLSMStore(tmp_path / "db")
        store.put(b"persisted", b"yes")
        # No flush, no close: simulate a crash by abandoning the object.
        recovered = DurableLSMStore(tmp_path / "db")
        assert recovered.get(b"persisted") == b"yes"
        recovered.close()
        store.close()

    def test_writes_after_torn_wal_tail_survive_reopen(self, tmp_path):
        # Recovery must cut the torn record off the log: appends land at
        # the end of the file, and replay stops at the torn record, so a
        # write acknowledged after recovery would otherwise be lost.
        store = DurableLSMStore(tmp_path / "db")
        store.put(b"a", b"1")
        store.put(b"b", b"2")
        store.close()
        wal = tmp_path / "db" / "wal.log"
        wal.write_bytes(wal.read_bytes()[:-3])
        store = DurableLSMStore(tmp_path / "db")
        assert list(store.scan()) == [(b"a", b"1")]
        store.put(b"c", b"3")
        store.close()
        reopened = DurableLSMStore(tmp_path / "db")
        assert list(reopened.scan()) == [(b"a", b"1"), (b"c", b"3")]
        reopened.close()

    def test_recovery_after_flush(self, tmp_path):
        store = DurableLSMStore(tmp_path / "db", flush_bytes=1)
        for i in range(20):
            store.put(b"k%02d" % i, b"v%d" % i)
        store.close()
        recovered = DurableLSMStore(tmp_path / "db")
        assert [k for k, _ in recovered.scan()] == [b"k%02d" % i for i in range(20)]
        recovered.close()

    def test_deletes_survive_recovery(self, tmp_path):
        store = DurableLSMStore(tmp_path / "db", flush_bytes=1)
        store.put(b"gone", b"1")
        store.delete(b"gone")
        store.close()
        recovered = DurableLSMStore(tmp_path / "db")
        assert recovered.get(b"gone") is None
        recovered.close()

    def test_compaction_removes_old_files(self, tmp_path):
        store = DurableLSMStore(tmp_path / "db", flush_bytes=1, max_tables=3)
        for i in range(30):
            store.put(b"k%02d" % i, b"v")
        files = list((tmp_path / "db").glob("sst-*.sst"))
        assert len(files) <= 4
        store.close()

    def test_overwrites_across_flushes(self, tmp_path):
        store = DurableLSMStore(tmp_path / "db", flush_bytes=1)
        store.put(b"k", b"old")
        store.put(b"k", b"new")
        store.flush()
        assert store.get(b"k") == b"new"
        assert list(store.scan()) == [(b"k", b"new")]
        store.close()

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "delete"]),
                st.binary(min_size=1, max_size=4),
                st.binary(min_size=1, max_size=6).filter(lambda v: v != TOMBSTONE),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_matches_dict_model_with_recovery(self, tmp_path_factory, ops):
        base = tmp_path_factory.mktemp("durable")
        store = DurableLSMStore(base / "db", flush_bytes=128)
        model: dict[bytes, bytes] = {}
        for op, k, v in ops:
            if op == "put":
                store.put(k, v)
                model[k] = v
            else:
                store.delete(k)
                model.pop(k, None)
        store.close()
        recovered = DurableLSMStore(base / "db")
        assert list(recovered.scan()) == sorted(model.items())
        recovered.close()
