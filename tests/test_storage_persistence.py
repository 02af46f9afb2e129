"""Tests for saving and reopening TMan deployments."""

import dataclasses
import json

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.kvstore import simfault
from repro.model import MBR
from repro.storage.persistence import open_tman, save_tman
from tests.conftest import DATA_DIR


@pytest.fixture(scope="module")
def dataset():
    return tdrive_like(100, seed=121)


@pytest.fixture()
def saved_dir(tmp_path, dataset):
    config = TManConfig(
        boundary=TDRIVE_SPEC.boundary, max_resolution=14, num_shards=2, kv_workers=1
    )
    with TMan(config) as tman:
        tman.bulk_load(dataset)
        save_tman(tman, tmp_path / "deploy")
    return tmp_path / "deploy"


class TestSaveOpen:
    def test_directory_layout(self, saved_dir):
        assert (saved_dir / "config.json").exists()
        assert (saved_dir / "tables.snap").exists()
        assert (saved_dir / "cache.rdb").exists()

    def test_config_restored(self, saved_dir):
        with open_tman(saved_dir) as tman:
            assert tman.config.alpha == 3
            assert tman.config.primary_index == "tshape"
            assert tman.config.boundary == TDRIVE_SPEC.boundary

    def test_row_count_and_statistics_rebuilt(self, saved_dir, dataset):
        with open_tman(saved_dir) as tman:
            assert tman.row_count == len(dataset)
            assert tman.planner.table_statistics().row_count == len(dataset)

    def test_queries_work_after_reopen(self, saved_dir, dataset):
        with open_tman(saved_dir) as tman:
            target = dataset[3]
            res = tman.spatial_range_query(target.mbr)
            assert target.tid in {t.tid for t in res.trajectories}
            res = tman.temporal_range_query(target.time_range)
            assert target.tid in {t.tid for t in res.trajectories}
            res = tman.id_temporal_query(target.oid, target.time_range)
            assert target.tid in {t.tid for t in res.trajectories}

    def test_shape_mappings_and_directory_survive(self, saved_dir, dataset):
        with open_tman(saved_dir) as tman:
            elements = tman.index_cache.directory().tolist()
            assert elements == sorted(
                {tman.tshape_index.index_trajectory(t).element_code for t in dataset}
            )
            mapping = tman.index_cache.get_mapping(elements[0])
            assert mapping

    def test_inserts_after_reopen(self, saved_dir):
        extra = tdrive_like(20, seed=500)
        with open_tman(saved_dir) as tman:
            before = tman.row_count
            tman.insert(extra)
            assert tman.row_count == before + 20
            res = tman.spatial_range_query(extra[0].mbr)
            assert extra[0].tid in {t.tid for t in res.trajectories}

    def test_save_reopen_save_roundtrip(self, saved_dir, tmp_path, dataset):
        with open_tman(saved_dir) as tman:
            save_tman(tman, tmp_path / "again")
        with open_tman(tmp_path / "again") as tman2:
            assert tman2.row_count == len(dataset)


# One non-default value per TManConfig field (cluster_mode excepted:
# snapshots deliberately pin it to "threads").
NON_DEFAULT = dict(
    boundary=MBR(100.0, 30.0, 130.0, 50.0),
    primary_index="tr",
    secondary_indexes=("idt", "tshape"),
    alpha=2,
    beta=4,
    max_resolution=11,
    shape_encoding="bitmap",
    use_index_cache=False,
    tr_period_seconds=900.0,
    tr_max_periods=24,
    time_origin=-3600.0,
    num_shards=3,
    codec="varint",
    dp_epsilon=0.01,
    buffer_shape_threshold=64,
    push_down=False,
    st_window_budget=1024,
    kv_workers=2,
    split_rows=1234,
    block_cache_bytes=1 << 20,
    retry_max_attempts=3,
    retry_base_ms=2.0,
    retry_max_ms=20.0,
    admission_max_inflight=4,
    admission_max_queue=7,
    admission_queue_timeout_ms=250.0,
    memtable_soft_bytes=1 << 16,
    memtable_hard_bytes=1 << 18,
    write_throttle_ms=0.5,
    default_deadline_ms=5000.0,
    cluster_mode="threads",
    cluster_nodes=5,
    replication_factor=3,
    read_quorum=2,
    write_quorum=3,
    cluster_page_rows=128,
    cluster_data_dir="/nonexistent/unused-in-thread-mode",
)


class TestConfigRoundTrip:
    def test_every_field_round_trips(self, tmp_path):
        fields = dataclasses.fields(TManConfig)
        assert set(NON_DEFAULT) == {f.name for f in fields}
        for f in fields:
            if f.name not in ("boundary", "cluster_mode"):
                assert NON_DEFAULT[f.name] != f.default, f.name
        config = TManConfig(**NON_DEFAULT)
        with TMan(config) as tman:
            save_tman(tman, tmp_path / "deploy")
        with open_tman(tmp_path / "deploy") as reopened:
            assert reopened.config == config

    def test_retired_knobs_open_unchanged(self, tmp_path):
        """A config.json saved while the fault-injection and re-planning
        knobs were fields still opens, to the same config."""
        config = TManConfig(**NON_DEFAULT)
        injector = simfault.fault_injector()
        with TMan(config) as tman:
            save_tman(tman, tmp_path / "deploy")
        path = tmp_path / "deploy" / "config.json"
        doc = json.loads(path.read_text())
        doc.update(
            fault_rate=0.25, fault_seed=9, adaptive_replan=True,
            replan_divergence_ratio=2.5, replan_min_candidates=32,
        )
        path.write_text(json.dumps(doc))
        with open_tman(tmp_path / "deploy") as reopened:
            assert reopened.config == config
        # Opening installed no process-wide fault injector.
        assert simfault.fault_injector() is injector

    def test_snapshot_pins_thread_mode_and_overrides_apply(self, tmp_path):
        config = TManConfig(
            boundary=TDRIVE_SPEC.boundary, max_resolution=10, kv_workers=1
        )
        with TMan(config) as tman:
            # What a process-mode deployment would hold; save_tman never
            # reads the cluster mode off the live cluster.
            tman.config = dataclasses.replace(config, cluster_mode="processes")
            save_tman(tman, tmp_path / "deploy")
        doc = json.loads((tmp_path / "deploy" / "config.json").read_text())
        assert doc["cluster_mode"] == "threads"
        with open_tman(
            tmp_path / "deploy", config_overrides={"push_down": False}
        ) as reopened:
            assert reopened.config.cluster_mode == "threads"
            assert reopened.config.push_down is False


class TestParentFormatDeployment:
    """``tests/data/deployment_parent`` was written by ``save_tman`` at
    the last commit whose ``TManConfig`` still had ``window_parallel``,
    ``row_format_version`` and the other retired knobs."""

    def test_reopens_ignoring_retired_keys(self):
        doc = json.loads((DATA_DIR / "deployment_parent" / "config.json").read_text())
        known = {f.name for f in dataclasses.fields(TManConfig)}
        retired = set(doc) - known - {"row_count"}
        assert {"window_parallel", "coalesce_windows", "columnar_decode",
                "row_format_version"} <= retired
        dataset = tdrive_like(12, seed=77)
        with open_tman(DATA_DIR / "deployment_parent") as tman:
            # Its cache.rdb predates the occupied-element directory: no
            # generation key, so the directory is listed from the hashes.
            cache = tman.index_cache
            assert cache.redis.keys("*directory_gen") == []
            assert cache.directory().tolist() == sorted(
                {tman.tshape_index.index_trajectory(t).element_code for t in dataset}
            )
            assert tman.config.max_resolution == 12
            assert tman.config.num_shards == 2
            assert tman.row_count == len(dataset)
            for target in dataset:
                res = tman.id_temporal_query(target.oid, target.time_range)
                assert target.tid in {t.tid for t in res.trajectories}
                res = tman.spatial_range_query(target.mbr)
                got = {t.tid: t for t in res.trajectories}
                assert len(got[target.tid]) == len(target)
