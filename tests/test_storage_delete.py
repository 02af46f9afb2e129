"""Tests for trajectory deletion."""

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.model import TimeRange


@pytest.fixture()
def loaded():
    data = tdrive_like(60, seed=404)
    tman = TMan(
        TManConfig(boundary=TDRIVE_SPEC.boundary, max_resolution=12,
                   num_shards=2, kv_workers=1)
    )
    tman.bulk_load(data)
    yield tman, data
    tman.close()


class TestDelete:
    def test_deleted_trajectory_disappears_from_queries(self, loaded):
        tman, data = loaded
        victim = data[0]
        assert tman.delete(victim)
        res = tman.spatial_range_query(victim.mbr)
        assert victim.tid not in {t.tid for t in res.trajectories}
        res = tman.temporal_range_query(victim.time_range)
        assert victim.tid not in {t.tid for t in res.trajectories}
        res = tman.id_temporal_query(victim.oid, victim.time_range)
        assert victim.tid not in {t.tid for t in res.trajectories}

    def test_other_trajectories_unaffected(self, loaded):
        tman, data = loaded
        tman.delete(data[0])
        survivor = data[1]
        res = tman.spatial_range_query(survivor.mbr)
        assert survivor.tid in {t.tid for t in res.trajectories}

    def test_delete_missing_returns_false(self, loaded):
        tman, data = loaded
        assert tman.delete(data[0])
        assert not tman.delete(data[0])  # already gone

    def test_row_count_decrements(self, loaded):
        tman, data = loaded
        before = tman.row_count
        tman.delete(data[3])
        assert tman.row_count == before - 1

    def test_reinsert_after_delete(self, loaded):
        tman, data = loaded
        tman.delete(data[0])
        tman.insert([data[0]])
        res = tman.spatial_range_query(data[0].mbr)
        assert data[0].tid in {t.tid for t in res.trajectories}


class TestDeleteById:
    def test_lookup_via_idt(self, loaded):
        tman, data = loaded
        victim = data[5]
        assert tman.delete_by_id(victim.oid, victim.tid, victim.time_range)
        res = tman.temporal_range_query(victim.time_range)
        assert victim.tid not in {t.tid for t in res.trajectories}

    def test_unknown_tid_returns_false(self, loaded):
        tman, data = loaded
        assert not tman.delete_by_id(data[0].oid, "no-such-trip", data[0].time_range)

    def test_other_trajectories_of_the_object_cost_no_get(self, loaded, monkeypatch):
        """The IDT key ends in the tid: it is compared before any primary get."""
        tman, data = loaded
        victim = data[5]
        siblings = [t for t in data if t.oid == victim.oid]
        span = TimeRange(min(t.time_range.start for t in siblings),
                         max(t.time_range.end for t in siblings))
        assert len(siblings) > 1
        gets = []
        get = tman.primary_table.get
        monkeypatch.setattr(tman.primary_table, "get", lambda key: gets.append(key) or get(key))
        assert not tman.delete_by_id(victim.oid, "no-such-trip", span)
        assert gets == []
        assert tman.delete_by_id(victim.oid, victim.tid, span)
        assert {tman.keys.parse_primary(key).tid for key in gets} == {victim.tid}

    def test_requires_idt_index(self):
        data = tdrive_like(10, seed=405)
        tman = TMan(
            TManConfig(boundary=TDRIVE_SPEC.boundary, max_resolution=12,
                       num_shards=1, kv_workers=1,
                       primary_index="tshape", secondary_indexes=("tr",))
        )
        try:
            tman.bulk_load(data)
            with pytest.raises(ValueError):
                tman.delete_by_id(data[0].oid, data[0].tid, data[0].time_range)
        finally:
            tman.close()
