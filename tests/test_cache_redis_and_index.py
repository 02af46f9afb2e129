"""Unit tests for the shape index cache over the metadata table and the
buffer shape cache."""

import numpy as np
import pytest

from repro.cache import BufferShapeCache, ShapeIndexCache
from repro.cache.index_cache import MAPPING_PREFIX, mapping_key, pack_mapping, unpack_mapping
from repro.kvstore import Cluster, Scan
from repro.kvstore.errors import CorruptionError


def _meta():
    """An empty ``tman_meta`` table of a fresh in-memory cluster."""
    return Cluster(workers=1).create_table("tman_meta")


def _cache(**kwargs):
    return ShapeIndexCache(_meta(), **kwargs)


class TestShapeIndexCache:
    def test_put_get_mapping(self):
        cache = _cache()
        cache.put_mapping(42, {0b101: 0, 0b110: 1})
        assert cache.get_mapping(42) == {0b101: 0, 0b110: 1}

    def test_missing_element_is_none(self):
        assert _cache().get_mapping(99) is None

    def test_lookup_final_code(self):
        cache = _cache()
        cache.put_mapping(7, {3: 0, 5: 1})
        assert cache.lookup_final_code(7, 5) == 1
        assert cache.lookup_final_code(7, 9) is None

    def test_remote_fallback_after_local_eviction(self):
        cache = _cache(local_capacity=1)
        cache.put_mapping(1, {1: 0})
        cache.put_mapping(2, {2: 0})  # evicts element 1 locally
        assert cache.get_mapping(1) == {1: 0}
        assert cache.remote_fetches >= 1

    def test_add_shape_appends(self):
        cache = _cache()
        cache.put_mapping(5, {1: 0})
        cache.add_shape(5, 2, 1)
        assert cache.get_mapping(5) == {1: 0, 2: 1}

    def test_directory_follows_the_two_writers(self):
        cache = _cache()
        assert cache.directory().tolist() == []
        cache.put_mapping(10, {1: 0})
        cache.put_mapping(3, {1: 0})
        assert cache.directory().tolist() == [3, 10]
        cache.add_shape(3, 2, 1)  # known element: the directory is unchanged
        cache.add_shape(7, 1, 1)  # new element (an insert's raw shape)
        directory = cache.directory()
        assert directory.dtype == np.int64 and directory.tolist() == [3, 7, 10]
        # The directory is local: reading it reads no table.
        before = cache.remote_fetches
        assert cache.directory() is directory
        assert cache.remote_fetches == before

    def test_rows_are_keyed_by_big_endian_code_under_one_prefix(self):
        table = _meta()
        cache = ShapeIndexCache(table)
        cache.add_shapes({258: {5: 1, 2: 0}, 1: {9: 3}})
        cache.put_mapping(1 << 40, {0: 0})
        rows = list(table.scan(Scan()))
        assert [key for key, _ in rows] == [mapping_key(c) for c in (1, 258, 1 << 40)]
        # Per pair in shape order: the gap from the previous shape, the code.
        assert rows[1] == (MAPPING_PREFIX + (258).to_bytes(8, "big"), b"\x02\x00\x03\x01")
        wide = {1 << 60: 1 << 59, 3: 1, 300: 0}
        assert unpack_mapping(pack_mapping(wide)) == wide
        with pytest.raises(CorruptionError):
            unpack_mapping(b"\x02\x00\x03")  # a shape without its code
        with pytest.raises(CorruptionError):
            unpack_mapping(b"\x02\x80")  # a cut varint

    def test_new_cache_lists_the_stored_elements_once(self):
        """A cache built on a table that holds mappings lists their elements
        with one prefix scan, reads a mapping on its first lookup only, and
        answers an unlisted element with no read at all."""
        table = _meta()
        table.put(b"config", b"{}")  # the parameters row sorts before every mapping row
        writer = ShapeIndexCache(table)
        writer.put_mapping(4, {1: 0, 6: 1})
        writer.add_shapes({2: {3: 3}, 4: {8: 2}})
        reader = ShapeIndexCache(table)
        assert reader.remote_fetches == 1  # the construction scan
        assert reader.directory().tolist() == [2, 4]
        assert reader.get_mapping(4) == {1: 0, 6: 1, 8: 2}
        assert reader.get_mapping(4) == {1: 0, 6: 1, 8: 2}
        assert reader.get_mapping(5) is None
        assert reader.remote_fetches == 2
        # Elements stored after it was built are not its concern: one writer.
        writer.put_mapping(9, {1: 1})
        assert reader.get_mapping(9) is None

    def test_fresh_bulk_load_reads_no_mapping_row(self, monkeypatch):
        """A bulk load asks for every element's mapping; on a fresh store the
        directory lists none, so no lookup reads the metadata table, and the
        load stores every mapping with one put_batch before any data row."""
        from repro import TMan, TManConfig
        from repro.datasets import TDRIVE_SPEC, tdrive_like
        from repro.kvstore.table import Table

        with TMan(TManConfig(boundary=TDRIVE_SPEC.boundary, max_resolution=12,
                             num_shards=2, kv_workers=1)) as tman:
            cache = tman.index_cache
            assert cache.stats().remote_fetches == 1  # the construction scan
            batches = []
            put_batch = Table.put_batch

            def recorded(table, rows):
                batches.append((table.name, len(rows)))
                return put_batch(table, rows)

            monkeypatch.setattr(Table, "put_batch", recorded)
            tman.bulk_load(tdrive_like(150, seed=8, max_points=20))
            assert cache.stats().remote_fetches == 1
            assert batches[0] == ("tman_meta", len(cache.directory()))
            assert [name for name, _ in batches].count("tman_meta") == 1

    def test_round_trip_counters_agree(self):
        """``remote_fetches`` and ``cache_redis_roundtrips_total`` count the
        same event: every read of the metadata table, the construction scan
        included; a lookup of an unlisted element reads nothing."""
        from repro.obs import registry

        total = registry().get("cache_redis_roundtrips_total")
        before = total.value
        cache = _cache(local_capacity=1)  # the prefix scan
        cache.put_mapping(1, {1: 0})
        cache.put_mapping(2, {2: 0})  # evicts element 1 locally
        assert cache.get_mapping(1) == {1: 0}  # a row get
        assert cache.get_mapping(99) is None  # not listed: no read
        cache.directory()  # local
        assert cache.remote_fetches == 2 == total.value - before
        assert cache.stats().remote_fetches == 2

    def test_concurrent_readers_do_not_corrupt_the_lfu(self):
        # Queries on many threads share one cache; an unlocked LFU touch
        # (several dict updates) loses an update and raises KeyError.
        import sys
        import threading

        cache = _cache(local_capacity=4)
        for element in range(8):  # twice the capacity: hits, misses, evictions
            cache.put_mapping(element, {1: element})
        errors = []

        def read():
            # Every directory a reader sees is sorted, holds the elements
            # published before the read and never loses one it held.
            try:
                seen = 8
                for i in range(3000):
                    assert cache.get_mapping(i % 8) == {1: i % 8}
                    if i % 10 == 0:
                        directory = cache.directory().tolist()
                        assert directory == sorted(set(directory))
                        assert directory[:8] == list(range(8))
                        assert len(directory) >= seen
                        seen = len(directory)
            except BaseException as exc:
                errors.append(exc)

        def write():
            try:
                for element in range(100, 400):
                    cache.add_shape(element, 1, 1)
            except BaseException as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            threads.append(threading.Thread(target=write))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert cache.directory().tolist() == list(range(8)) + list(range(100, 400))

    def test_shared_redis_between_instances(self):
        """Two caches on one metadata table: each sees what was stored before
        it was built, and the writer's later elements reach a cache built
        after them."""
        table = _meta()
        a = ShapeIndexCache(table)
        a.put_mapping(1, {7: 0})
        b = ShapeIndexCache(table)
        assert b.get_mapping(1) == {7: 0}
        assert b.directory().tolist() == [1]
        a.add_shape(5, 3, 3)
        a.put_mapping(9, {1: 0})
        assert a.directory().tolist() == [1, 5, 9]
        assert b.directory().tolist() == [1]
        assert ShapeIndexCache(table).directory().tolist() == [1, 5, 9]

    def test_second_deployment_on_shared_redis_answers_a_full_srq(self):
        """Two facades over one cluster: a reader built after the writer's
        bulk load and inserts finds every trajectory, by its own MBR too."""
        from repro import TMan, TManConfig
        from repro.datasets import TDRIVE_SPEC, tdrive_like

        data = tdrive_like(80, seed=31, max_points=20)
        config = TManConfig(
            boundary=TDRIVE_SPEC.boundary, max_resolution=12, num_shards=2,
            kv_workers=1, buffer_shape_threshold=100_000,
        )
        with Cluster(workers=1) as cluster:
            writer = TMan(config, cluster=cluster)
            writer.bulk_load(data[:60])
            writer.insert(data[60:])  # raw shapes on elements new to the load
            reader = TMan(config, cluster=cluster)
            window = TDRIVE_SPEC.boundary
            got = {t.tid for t in reader.spatial_range_query(window).trajectories}
            assert got == {t.tid for t in data}
            assert reader.row_count == len(data)
            for target in data:
                res = reader.spatial_range_query(target.mbr)
                assert target.tid in {t.tid for t in res.trajectories}


class TestBufferShapeCache:
    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            BufferShapeCache(0)

    def test_add_returns_false_below_threshold(self):
        buf = BufferShapeCache(threshold=3)
        assert not buf.add(1, 0b01)
        assert not buf.add(1, 0b10)

    def test_add_returns_true_at_threshold(self):
        buf = BufferShapeCache(threshold=2)
        buf.add(1, 1)
        assert buf.add(2, 1)

    def test_duplicates_not_counted(self):
        buf = BufferShapeCache(threshold=2)
        buf.add(1, 5)
        assert not buf.add(1, 5)
        assert len(buf) == 1

    def test_contains(self):
        buf = BufferShapeCache(threshold=10)
        buf.add(3, 7)
        assert buf.contains(3, 7)
        assert not buf.contains(3, 8)

    def test_drain_clears(self):
        buf = BufferShapeCache(threshold=10)
        buf.add(1, 1)
        buf.add(2, 2)
        drained = buf.drain()
        assert drained == {1: {1}, 2: {2}}
        assert len(buf) == 0
        assert buf.pending_elements() == []
