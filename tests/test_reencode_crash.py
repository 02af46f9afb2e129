"""A crash anywhere inside a re-encode's row rewrites loses no trajectory.

``StorageWriter._reencode`` moves rows to new keys.  Each test below
crashes it at its k-th table mutation, for every k, on a memory and on a
durable deployment, and then asks every route of TRQ, SRQ and IDT for
every stored trajectory, and every tshape route for the trajectories
meeting each trajectory's own MBR (a window that only intersects its
element, so the route reads the element's shape codes): each must come back
exactly once (the read path de-duplicates the short-lived second copy by
tid).  The durable deployment is also closed and reopened from its
directory first.
"""

from __future__ import annotations

import pytest

from repro import TMan, TManConfig
from repro.cache.redis_sim import RedisServer
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.kvstore.cluster import Cluster
from repro.kvstore.simfault import SimulatedCrash
from repro.kvstore.table import Table
from repro.model import TimeRange
from repro.query.planner import QueryPlan
from repro.query.types import IDTemporalQuery, SpatialRangeQuery, TemporalRangeQuery
from repro.storage.writer import StorageWriter

from .conftest import brute_force_spatial

DATA = tdrive_like(28, seed=5, max_points=30)
LOADED = 25  # bulk-loaded first; inserting the rest triggers one re-encode
EVERYTHING = TimeRange(0.0, 10 * 24 * 3600.0)
# (primary index, secondary indexes): between them every query type runs
# on a primary and on a secondary route.
LAYOUTS = {
    "tshape": ("tshape", ("tr", "idt")),
    "st": ("st", ("tr", "idt", "tshape")),
    # The primary key holds no shape code: only the tshape rows move.
    "tr": ("tr", ("tshape", "idt")),
}
# Mutations one re-encode makes per layout (3 rows rewritten each time).
MUTATIONS = {"tshape": 12, "st": 18, "tr": 6}


def _config(layout: str) -> TManConfig:
    primary, secondary = LAYOUTS[layout]
    return TManConfig(
        boundary=TDRIVE_SPEC.boundary, max_resolution=12, num_shards=2, kv_workers=1,
        buffer_shape_threshold=3, primary_index=primary, secondary_indexes=secondary,
    )


class _CrashInReencode:
    """Raises SimulatedCrash from the k-th table mutation a re-encode makes
    (k=None counts the mutations and never crashes)."""

    def __init__(self, monkeypatch, k):
        self.k = k
        self.mutations = 0
        self._inside = False
        reencode = StorageWriter._reencode

        def tracked(writer):
            self._inside = True
            try:
                return reencode(writer)
            finally:
                self._inside = False

        monkeypatch.setattr(StorageWriter, "_reencode", tracked)
        for name in ("put", "delete"):
            monkeypatch.setattr(Table, name, self._counted(getattr(Table, name)))

    def _counted(self, mutate):
        def counted(table, *args, **kwargs):
            if self._inside:
                self.mutations += 1
                if self.mutations == self.k:
                    raise SimulatedCrash("reencode")
            return mutate(table, *args, **kwargs)

        return counted


def _load(tman: TMan) -> None:
    """Bulk load, then insert one by one; returns on the crash, if any."""
    tman.bulk_load(DATA[:LOADED])
    try:
        for traj in DATA[LOADED:]:
            tman.insert([traj])
    except SimulatedCrash:
        pass


def _expected(query) -> list[str]:
    # Every row, including the insert whose re-encode crashed, was stored
    # before the re-encode began.
    if isinstance(query, IDTemporalQuery):
        return sorted(t.tid for t in DATA if t.oid == query.oid)
    if isinstance(query, SpatialRangeQuery):
        return brute_force_spatial(DATA, query.window)
    return sorted(t.tid for t in DATA)


def _assert_each_once(tman: TMan) -> None:
    queries = [TemporalRangeQuery(EVERYTHING), SpatialRangeQuery(TDRIVE_SPEC.boundary)]
    queries += [IDTemporalQuery(oid, EVERYTHING) for oid in sorted({t.oid for t in DATA})]
    queries += [SpatialRangeQuery(t.mbr) for t in DATA]
    for query in queries:
        for candidate in tman.planner.candidate_plans(query):
            plan = QueryPlan(candidate.plan.index, candidate.plan.route, "forced")
            tids = [t.tid for t in tman.query(query, plan=plan).trajectories]
            assert sorted(tids) == _expected(query), (query, plan)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_one_reencode_makes_the_expected_mutations(monkeypatch, layout):
    probe = _CrashInReencode(monkeypatch, None)
    with TMan(_config(layout)) as tman:
        _load(tman)
        _assert_each_once(tman)
    assert probe.mutations == MUTATIONS[layout]


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_memory_crash_at_every_mutation(monkeypatch, layout):
    for k in range(1, MUTATIONS[layout] + 1):
        with monkeypatch.context() as patch:
            _CrashInReencode(patch, k)
            tman = TMan(_config(layout))
            _load(tman)
        try:
            _assert_each_once(tman)
        finally:
            tman.close()


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_durable_crash_at_every_mutation(monkeypatch, tmp_path, layout):
    config = _config(layout)
    for k in range(1, MUTATIONS[layout] + 1):
        data_dir = tmp_path / f"k{k}"
        redis = RedisServer()  # the shape-code cache outlives the store process
        with monkeypatch.context() as patch:
            _CrashInReencode(patch, k)
            cluster = Cluster(workers=1, data_dir=data_dir)
            tman = TMan(config, cluster=cluster, redis=redis)
            _load(tman)
        _assert_each_once(tman)
        cluster.close()
        cluster = Cluster(workers=1, data_dir=data_dir)
        try:
            _assert_each_once(TMan(config, cluster=cluster, redis=redis))
        finally:
            cluster.close()
