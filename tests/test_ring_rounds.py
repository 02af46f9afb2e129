"""The expanding-ring loop behind top-k similarity and kNN point queries:
each round scans only key ranges no earlier round scanned, and the answer
equals a brute-force pass over every stored row."""

from __future__ import annotations

import pytest

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.geometry.distance import point_to_polyline_arrays
from repro.similarity.measures import distance_by_name


@pytest.fixture(scope="module")
def ring_tman():
    tman = TMan(TManConfig(boundary=TDRIVE_SPEC.boundary, max_resolution=14,
                           num_shards=2, kv_workers=1, split_rows=100))
    tman.bulk_load(tdrive_like(300, seed=31, max_points=30))
    yield tman
    tman.close()


@pytest.fixture
def scanned_keys(ring_tman, monkeypatch):
    """Every primary key the query's region scans return, in order."""
    table = ring_tman.primary_table
    keys: list[bytes] = []
    scan = table.multi_range_scan

    def recording(*args, **kwargs):
        for key, value in scan(*args, **kwargs):
            keys.append(key)
            yield key, value

    monkeypatch.setattr(table, "multi_range_scan", recording)
    return keys


def stored(tman) -> dict:
    """tid -> decoded points of every stored row (the oracle's input)."""
    rows = tman.primary_table.multi_range_scan([(None, None)])
    out = {}
    for _, value in rows:
        traj = tman.serializer.decode_trajectory(value).trajectory
        out.setdefault(traj.tid, traj.block)
    return out


def best(scored: dict, k: int) -> list[tuple[float, str]]:
    return sorted((d, tid) for tid, d in scored.items())[:k]


@pytest.mark.parametrize("measure", ["frechet", "dtw", "hausdorff"])
@pytest.mark.parametrize("query_row", [3, 150])
def test_topk_scans_each_key_once_and_is_exact(ring_tman, scanned_keys, measure, query_row):
    blocks = stored(ring_tman)
    query = ring_tman.serializer.decode_trajectory(
        list(ring_tman.primary_table.multi_range_scan([(None, None)]))[query_row][1]
    ).trajectory
    del scanned_keys[:]  # the oracle's and the query pick's scans
    res = ring_tman.top_k_similarity_query(query, 6, measure)
    assert res.profile.rounds >= 2
    assert len(scanned_keys) == len(set(scanned_keys))
    distance = distance_by_name(measure)
    want = best({tid: distance(query.block, block) for tid, block in blocks.items()
                 if tid != query.tid}, 6)
    assert list(zip(res.distances, (t.tid for t in res.trajectories))) == want


@pytest.mark.parametrize("x,y", [(116.9, 40.5), (115.8, 39.3), (117.3, 40.6)])
def test_knn_scans_each_key_once_and_is_exact(ring_tman, scanned_keys, x, y):
    blocks = stored(ring_tman)
    del scanned_keys[:]
    res = ring_tman.knn_point_query(x, y, 5)
    assert res.profile.rounds >= 2
    assert len(scanned_keys) == len(set(scanned_keys))
    want = best({tid: point_to_polyline_arrays(x, y, block.xs, block.ys)
                 for tid, block in blocks.items()}, 5)
    assert list(zip(res.distances, (t.tid for t in res.trajectories))) == want
