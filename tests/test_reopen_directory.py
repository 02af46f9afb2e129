"""A durable deployment is its directory.

Each test writes a deployment over ``Cluster(data_dir=...)``, closes it, and
reopens the directory under a fresh ``TMan`` that shares no object with the
writer.  The reopened facade must answer every query type as brute force
does over the live trajectories (through every candidate plan), count the
live rows, and hold the statistics a header rebuild gives: the shape-code
mappings and the index parameters are rows of ``tman_meta``, so nothing the
queries need lives outside the directory.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.kvstore import Cluster

from .conftest import brute_force_query, seven_queries

DATA = tdrive_like(90, seed=606, max_points=30)
LOADED = 60


def _config(threshold: int) -> TManConfig:
    return TManConfig(
        boundary=TDRIVE_SPEC.boundary, max_resolution=12, num_shards=2,
        kv_workers=1, buffer_shape_threshold=threshold,
    )


def _bulk_load(tman: TMan) -> list:
    tman.bulk_load(DATA)
    return DATA


def _raw_inserts(tman: TMan) -> list:
    """Inserts whose unknown shapes stay under their raw bitmap codes."""
    tman.bulk_load(DATA[:LOADED])
    report = tman.insert(DATA[LOADED:])
    assert report.reencodes_triggered == 0 and len(tman.buffer_cache) > 0
    return DATA


def _reencode(tman: TMan) -> list:
    """Inserts that re-encode, then deletes (the live set shrinks)."""
    tman.bulk_load(DATA[:LOADED])
    report = tman.insert(DATA[LOADED:])
    assert report.reencodes_triggered >= 1 and report.rows_rewritten > 0
    for traj in DATA[:4]:
        assert tman.delete(traj)
    return DATA[4:]


STAGES = {
    "bulk_load": (_bulk_load, 100_000),
    "raw_inserts": (_raw_inserts, 100_000),
    "reencode": (_reencode, 3),
}


def _histograms(stats):
    return stats.row_count, stats.period_hist, stats.cell_hist


@pytest.mark.parametrize("stage", sorted(STAGES))
def test_reopened_directory_answers_like_brute_force(tmp_path, stage):
    write, threshold = STAGES[stage]
    config = _config(threshold)
    with Cluster(workers=1, data_dir=tmp_path) as cluster:
        writer = TMan(config, cluster=cluster)
        live = write(writer)
        written = writer.table_statistics()

    with Cluster(workers=1, data_dir=tmp_path) as cluster:
        tman = TMan(config, cluster=cluster)
        assert tman.row_count == len(live)
        reopened = tman.table_statistics()
        assert _histograms(reopened) == _histograms(written)
        tman.rebuild_statistics()
        rebuilt = tman.table_statistics()
        assert dataclasses.replace(reopened, generation=0) == dataclasses.replace(
            rebuilt, generation=0
        )
        for name, q in seven_queries(live).items():
            tids, distances = brute_force_query(live, q)
            assert tids, name
            for candidate in tman.planner.candidate_plans(q):
                label = f"{name} via {candidate.plan.index}/{candidate.plan.route}"
                res = tman.query(q, plan=candidate.plan)
                if distances is None:
                    assert sorted(t.tid for t in res.trajectories) == tids, label
                else:
                    assert [t.tid for t in res.trajectories] == tids, label
                    assert res.distances == pytest.approx(distances), label


def test_mismatched_index_parameters_are_refused(tmp_path):
    """A store written with one set of index parameters refuses a facade
    configured with another, naming each parameter that differs, and keeps
    the parameters it was written with."""
    config = _config(100_000)
    with Cluster(workers=1, data_dir=tmp_path) as cluster:
        TMan(config, cluster=cluster).bulk_load(DATA[:10])
    other = dataclasses.replace(config, alpha=4, num_shards=3, secondary_indexes=("tr",))
    with Cluster(workers=1, data_dir=tmp_path) as cluster:
        with pytest.raises(ValueError) as err:
            TMan(other, cluster=cluster)
        message = str(err.value)
        for field in ("alpha", "num_shards", "secondary_indexes"):
            assert field in message
        for field in ("beta", "max_resolution", "boundary", "primary_index"):
            assert field not in message
        assert TMan(config, cluster=cluster).row_count == 10
