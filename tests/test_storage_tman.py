"""Tests for the TMan facade: loading, schema wiring, statistics."""

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.kvstore.errors import CorruptionError
from repro.kvstore.scan import Scan
from repro.query.planner import QueryPlan
from repro.query.types import IDTemporalQuery
from repro.storage.schema import RowKeyCodec


@pytest.fixture(scope="module")
def dataset():
    return tdrive_like(120, seed=31)


def make_tman(**overrides):
    defaults = dict(
        boundary=TDRIVE_SPEC.boundary,
        max_resolution=14,
        num_shards=2,
        kv_workers=1,
        split_rows=10_000,
    )
    defaults.update(overrides)
    return TMan(TManConfig(**defaults))


class TestBulkLoad:
    def test_reports_rows_and_elements(self, dataset):
        with make_tman() as tman:
            report = tman.bulk_load(dataset)
            assert report.rows_written == len(dataset)
            assert report.elements_encoded > 0
            assert tman.row_count == len(dataset)

    def test_creates_expected_tables(self, dataset):
        with make_tman() as tman:
            tman.bulk_load(dataset[:10])
            names = tman.cluster.table_names()
            assert "tman_primary" in names
            assert "tman_sec_tr" in names and "tman_sec_idt" in names

    def test_metadata_records_parameters(self, dataset):
        with make_tman() as tman:
            doc = tman.meta.load_config()
            assert doc["alpha"] == 3 and doc["primary_index"] == "tshape"

    def test_primary_row_count_matches(self, dataset):
        with make_tman() as tman:
            tman.bulk_load(dataset[:50])
            assert tman.primary_table.count_rows() == 50

    def test_secondary_rows_point_to_primary(self, dataset):
        """After a re-encode moved rows, every mapping row of every kind
        resolves to a stored primary row of the tid its own key ends in."""
        layouts = [("tshape", ("tr", "idt", "st", "interval")), ("tr", ("tshape", "idt", "st"))]
        for primary, secondaries in layouts:
            with make_tman(primary_index=primary, secondary_indexes=secondaries,
                           buffer_shape_threshold=3) as tman:
                tman.bulk_load(dataset[:80])
                report = tman.insert(dataset[80:])
                assert report.reencodes_triggered > 0 and report.rows_rewritten > 0
                stored = tman.primary_table.count_rows()
                for name, table in tman.secondary_tables.items():
                    rows = list(table.scan(Scan()))
                    assert len(rows) == stored, (primary, name)
                    for key, value in rows:
                        tid = key[RowKeyCodec.tid_at(name, key):].decode("utf-8")
                        pkey = tman.keys.primary_from_mapping(name, key, value)
                        row = tman.primary_table.get(pkey)
                        assert row is not None, (primary, name, key)
                        assert tman.serializer.decode(row).trajectory.tid == tid

    def test_incremental_bulk_load_stays_queryable(self, dataset):
        with make_tman() as tman:
            tman.bulk_load(dataset[:60])
            tman.bulk_load(dataset[60:])
            tr = dataset[70].time_range
            res = tman.temporal_range_query(tr)
            assert dataset[70].tid in {t.tid for t in res.trajectories}


class TestOldMappingLayout:
    """A mapping row whose value is a whole primary key (the layout before
    values were cut to ``shard :: primary index value``) is corrupt, not a
    miss: resolving it as is would silently drop the trajectory."""

    @pytest.fixture
    def tman(self, dataset):
        with make_tman() as tman:
            tman.bulk_load(dataset[:20])
            table = tman.secondary_tables["idt"]
            victim = dataset[7]
            for key, value in list(table.scan(Scan())):
                if key.endswith(b"\x00" + victim.tid.encode()):
                    table.put(key, tman.keys.primary_from_mapping("idt", key, value))
            yield tman

    def test_idt_query_raises(self, tman, dataset):
        victim = dataset[7]
        query = IDTemporalQuery(victim.oid, victim.time_range)
        with pytest.raises(CorruptionError, match="mapping value is 29 bytes"):
            tman.query(query, plan=QueryPlan("idt", "secondary", "forced"))

    def test_delete_by_id_raises(self, tman, dataset):
        victim = dataset[7]
        with pytest.raises(CorruptionError, match="mapping value is 29 bytes"):
            tman.delete_by_id(victim.oid, victim.tid, victim.time_range)


class TestPrimaryIndexVariants:
    @pytest.mark.parametrize(
        "primary,secondaries",
        [("tshape", ("tr", "idt")), ("tr", ("idt",)), ("st", ("idt",))],
    )
    def test_all_primaries_answer_trq(self, dataset, primary, secondaries):
        with make_tman(primary_index=primary, secondary_indexes=secondaries) as tman:
            tman.bulk_load(dataset)
            target = dataset[5]
            res = tman.temporal_range_query(target.time_range)
            assert target.tid in {t.tid for t in res.trajectories}

    def test_st_primary_answers_strq(self, dataset):
        with make_tman(primary_index="st", secondary_indexes=("idt",)) as tman:
            tman.bulk_load(dataset)
            target = dataset[3]
            res = tman.st_range_query(target.mbr, target.time_range)
            assert target.tid in {t.tid for t in res.trajectories}
            assert res.plan == "st/primary"


class TestStatistics:
    def test_statistics_updated_after_load(self, dataset):
        with make_tman() as tman:
            tman.bulk_load(dataset)
            stats = tman.planner.table_statistics()
            assert stats is not None
            assert stats.row_count == len(dataset)
            assert stats.time_span.duration > 0

    def test_query_result_accounting(self, dataset):
        with make_tman() as tman:
            tman.bulk_load(dataset)
            res = tman.temporal_range_query(dataset[0].time_range)
            assert res.windows > 0
            assert res.candidates >= len(res)
            assert res.elapsed_ms > 0
            assert res.simulated_ms > 0


class TestHealth:
    def test_thread_mode_snapshot(self, dataset):
        with make_tman(split_rows=40) as tman:
            tman.bulk_load(dataset)
            doc = tman.health()
            assert set(doc) == {
                "admission", "cluster", "write", "tables", "default_deadline_ms"
            }
            assert doc["cluster"] is None
            assert set(doc["tables"]) == {"tman_primary", "tman_sec_tr", "tman_sec_idt"}
            for name, entry in doc["tables"].items():
                table = tman.cluster.table(name)
                assert entry == {
                    "regions": len(table.regions),
                    "memtable_bytes": table.memtable_bytes(),
                }
                assert entry["regions"] > 1  # 120 rows split at 40
                assert entry["memtable_bytes"] > 0


class TestValidation:
    def test_topk_rejects_bad_k(self, dataset):
        with make_tman() as tman:
            tman.bulk_load(dataset[:5])
            with pytest.raises(ValueError):
                tman.top_k_similarity_query(dataset[0], 0)

    def test_unknown_query_type_rejected(self, dataset):
        with make_tman() as tman:
            with pytest.raises(TypeError):
                tman.query("not a query")
