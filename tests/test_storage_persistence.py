"""Tests for saving and reopening TMan deployments."""

import dataclasses
import json

import pytest

from repro import TMan, TManConfig
from repro.cluster.client import WorkerHandle
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.cluster.process_cluster import ProcessCluster
from repro.kvstore import Cluster
from repro.kvstore.durable import FORMAT, FORMAT_FILE
from repro.kvstore.errors import CorruptionError, FormatMismatchError
from repro.kvstore.scan import Scan
from repro.model import MBR
from repro.storage.persistence import open_tman, save_tman
from tests.conftest import DATA_DIR, reaped


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
    dp_epsilon=0.01,
    buffer_shape_threshold=64,
    push_down=False,
    st_window_budget=1024,
    kv_workers=2,
    split_rows=1234,
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
        """A format-6 config.json saved while the scan, cache and write
        knobs were fields still opens, to the same config."""
        config = TManConfig(**NON_DEFAULT)
        with TMan(config) as tman:
            save_tman(tman, tmp_path / "deploy")
        path = tmp_path / "deploy" / "config.json"
        doc = json.loads(path.read_text())
        doc.update(
            scan_batch_rows=512, window_parallel=False, multi_get_batch=32,
            block_cache_bytes=1024, write_stall_timeout_ms=50.0,
        )
        path.write_text(json.dumps(doc))
        with open_tman(tmp_path / "deploy") as reopened:
            assert reopened.config == config

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


@pytest.fixture()
def workers(monkeypatch) -> list:
    """Every worker process a ``WorkerHandle`` launches during the test."""
    launched: list = []
    launch = WorkerHandle.launch

    def recorded(self):
        launch(self)
        launched.append(self._process)

    monkeypatch.setattr(WorkerHandle, "launch", recorded)
    return launched


class TestProcessModeReopen:
    """``config_overrides`` can reopen a (thread-mode) snapshot on worker
    processes: the tables are restored into the cluster the config asks
    for."""

    PROCESSES = {"cluster_mode": "processes", "cluster_nodes": 2}

    @pytest.fixture()
    def small_dir(self, tmp_path):
        data = tdrive_like(50, seed=1, max_points=20)
        config = TManConfig(
            boundary=TDRIVE_SPEC.boundary, max_resolution=10, num_shards=2, kv_workers=1
        )
        with TMan(config) as tman:
            tman.bulk_load(data)
            save_tman(tman, tmp_path / "deploy")
        return tmp_path / "deploy", data

    def test_reopens_on_worker_processes(self, small_dir, workers):
        directory, data = small_dir
        time_range = data[0].time_range
        with open_tman(directory) as threads:
            result = threads.temporal_range_query(time_range)
            expected = sorted(t.tid for t in result.trajectories)
            assert threads.health()["cluster"] is None
        with open_tman(directory, config_overrides=self.PROCESSES) as processes:
            panel = processes.health()["cluster"]
            assert panel["mode"] == "processes"
            assert sorted(panel["nodes"]) == ["node-0", "node-1"]
            assert all(node["state"] == "up" for node in panel["nodes"].values())
            result = processes.temporal_range_query(time_range)
            assert sorted(t.tid for t in result.trajectories) == expected
            assert processes.row_count == len(data)
        assert len(workers) == 2 and all(reaped(p) for p in workers)

    def test_failed_restore_stops_the_workers(self, small_dir, workers):
        directory, _ = small_dir
        snap = directory / "tables.snap"
        snap.write_bytes(snap.read_bytes()[:-7])  # truncated
        with pytest.raises(CorruptionError):
            open_tman(directory, config_overrides=self.PROCESSES)
        assert len(workers) == 2 and all(reaped(p) for p in workers)


class TestParentFormatDeployment:
    """``tests/data/deployment_parent`` was written by ``save_tman`` at
    the last commit whose ``TManConfig`` still had ``window_parallel``,
    ``row_format_version`` and the other retired knobs; the ``rewrite.py``
    beside it later brought its rows to the current format (primary rows to
    row version 6, secondary values cut to ``shard :: primary index
    value``, ``config.json`` stamped with the stored format and its
    ``simple8b`` codec entry dropped; keys, every other config entry and
    cache untouched)."""

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

    def test_every_primary_row_decodes(self):
        """The one saved deployment holds only rows of the current format."""
        dataset = {t.tid: t for t in tdrive_like(12, seed=77)}
        with open_tman(DATA_DIR / "deployment_parent") as tman:
            rows = list(tman.primary_table.scan(Scan()))
            assert len(rows) == len(dataset)
            for _, value in rows:
                stored = tman.serializer.decode(value)
                assert len(stored.trajectory) == len(dataset[stored.trajectory.tid])

    def test_every_secondary_row_resolves(self):
        """Every mapping row is in the current layout and reaches the
        primary row of the tid its key ends in."""
        dataset = {t.tid for t in tdrive_like(12, seed=77)}
        with open_tman(DATA_DIR / "deployment_parent") as tman:
            assert set(tman.secondary_tables) == {"tr", "idt"}
            for name, table in tman.secondary_tables.items():
                tids = []
                for key, value in table.scan(Scan()):
                    pkey = tman.keys.primary_from_mapping(name, key, value)
                    row = tman.primary_table.get(pkey)
                    assert row is not None, (name, key)
                    tids.append(tman.serializer.decode(row).trajectory.tid)
                    assert key.endswith(tids[-1].encode("utf-8"))
                assert sorted(tids) == sorted(dataset), name


class TestFormatStamp:
    """Each saved deployment and durable data directory states its stored
    format, and opening checks it before any table is served."""

    def _config(self, directory):
        path = directory / "config.json"
        return path, json.loads(path.read_text())

    def test_saved_config_states_the_format_first(self, saved_dir):
        _, doc = self._config(saved_dir)
        assert next(iter(doc)) == "format" and doc["format"] == FORMAT

    # no stamp, the two formats before this one, and the next
    @pytest.mark.parametrize("found", [None, FORMAT - 2, FORMAT - 1, FORMAT + 1])
    def test_other_or_missing_format_raises_at_open(self, saved_dir, found):
        path, doc = self._config(saved_dir)
        if found is None:
            del doc["format"]
        else:
            doc["format"] = found
        path.write_text(json.dumps(doc))
        stated = "no format stamp" if found is None else f"stored format {found}"
        with pytest.raises(FormatMismatchError,
                           match=f"{stated}; this build reads format {FORMAT}$"):
            open_tman(saved_dir)

    def test_codec_entry_of_this_build_opens(self, saved_dir, dataset):
        """A config.json may state the codec (saves made while ``codec`` was
        a field did); naming the one this build packs rows with, it opens."""
        path, doc = self._config(saved_dir)
        assert "codec" not in doc
        doc["codec"] = "bitpack"
        path.write_text(json.dumps(doc))
        with open_tman(saved_dir) as tman:
            assert tman.row_count == len(dataset)

    @pytest.mark.parametrize("codec", ["pfor", "varint", "simple8b"])
    def test_other_codec_raises_before_any_table_is_read(self, saved_dir, codec):
        path, doc = self._config(saved_dir)
        doc["codec"] = codec
        path.write_text(json.dumps(doc))
        (saved_dir / "tables.snap").write_bytes(b"")  # never reached
        with pytest.raises(FormatMismatchError,
                           match=f"rows packed with codec '{codec}'; this build reads "
                                 "'bitpack'$"):
            open_tman(saved_dir)

    def test_unknown_config_key_raises(self, saved_dir):
        path, doc = self._config(saved_dir)
        doc["shard_count"] = 4  # neither a field nor a retired one
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unknown keys \\['shard_count'\\]"):
            open_tman(saved_dir)

    def test_fault_knob_retired_before_format_6_is_unknown(self, saved_dir):
        """The fault-injection knobs left the config before format 6, so no
        config.json of this format can hold one: it is refused."""
        path, doc = self._config(saved_dir)
        doc["fault_rate"] = 0.25
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="unknown keys \\['fault_rate'\\]"):
            open_tman(saved_dir)

    def test_durable_cluster_root_is_stamped_and_checked(self, tmp_path):
        root = tmp_path / "cluster"
        with Cluster(workers=1, data_dir=root) as cluster:
            cluster.create_table("t").put(b"k", b"v")
        assert (root / FORMAT_FILE).read_text() == f"{FORMAT}\n"
        with Cluster(workers=1, data_dir=root) as cluster:  # same format: opens
            assert cluster.table("t").get(b"k") == b"v"
        (root / FORMAT_FILE).write_text(f"{FORMAT - 1}\n")
        with pytest.raises(FormatMismatchError, match=f"stored format {FORMAT - 1};"):
            Cluster(workers=1, data_dir=root)
        (root / FORMAT_FILE).unlink()  # content written before stamps existed
        with pytest.raises(FormatMismatchError, match="no format stamp"):
            Cluster(workers=1, data_dir=root)

    def test_worker_node_directory_is_stamped_and_checked(self, tmp_path, workers):
        cluster_dir = tmp_path / "nodes"
        with ProcessCluster(nodes=1, replication_factor=1, cluster_data_dir=str(cluster_dir),
                            workers=1):
            pass
        stamp = cluster_dir / "node-0" / FORMAT_FILE
        assert stamp.read_text() == f"{FORMAT}\n"
        stamp.write_text(f"{FORMAT + 1}\n")
        with pytest.raises(FormatMismatchError, match=f"stored format {FORMAT + 1};"):
            ProcessCluster(nodes=1, replication_factor=1, cluster_data_dir=str(cluster_dir),
                           workers=1)
        assert len(workers) == 2 and all(reaped(p) for p in workers)
