"""Tests for the threshold similarity self-join."""

import pytest

from repro.datasets import tdrive_like
from repro.model import STPoint, Trajectory
from benchmarks.similarity_join import threshold_self_join
from repro.similarity.measures import distance_by_name


def brute_join(trajs, theta, measure):
    distance = distance_by_name(measure)
    items = sorted(trajs, key=lambda t: t.tid)
    out = []
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            d = distance(a.points, b.points)
            if d <= theta:
                out.append((a.tid, b.tid, d))
    return out


class TestCorrectness:
    @pytest.mark.parametrize("measure,theta", [
        ("frechet", 0.03),
        ("hausdorff", 0.03),
        ("dtw", 0.6),
    ])
    def test_matches_brute_force(self, measure, theta):
        trajs = tdrive_like(60, seed=400)
        got = sorted(threshold_self_join(trajs, theta, measure))
        expected = sorted(brute_join(trajs, theta, measure))
        assert [(a, b) for a, b, _ in got] == [(a, b) for a, b, _ in expected]
        for (_, _, d1), (_, _, d2) in zip(got, expected):
            assert d1 == pytest.approx(d2)

    def test_pairs_canonical_order(self):
        trajs = tdrive_like(40, seed=401)
        for a, b, _ in threshold_self_join(trajs, 0.05, "hausdorff"):
            assert a < b

    def test_zero_threshold_finds_duplicates(self):
        base = [STPoint(i * 10.0, 116.0 + i * 0.001, 39.0) for i in range(5)]
        a = Trajectory("o", "a", base)
        b = Trajectory("o", "b", list(base))
        c = Trajectory("o", "c", [p.shifted(dlng=0.5) for p in base])
        pairs = threshold_self_join([a, b, c], 0.0, "frechet")
        assert [(x, y) for x, y, _ in pairs] == [("a", "b")]

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            threshold_self_join([], -1.0)

    def test_empty_input(self):
        assert threshold_self_join([], 0.1) == []


class TestPruningEffectiveness:
    def test_far_apart_clusters_no_cross_pairs(self):
        near = [
            Trajectory("o", f"n{i}", [
                STPoint(0, 116.0 + i * 1e-4, 39.0), STPoint(10, 116.01 + i * 1e-4, 39.0)
            ])
            for i in range(5)
        ]
        far = [
            Trajectory("o", f"f{i}", [
                STPoint(0, 120.0 + i * 1e-4, 42.0), STPoint(10, 120.01 + i * 1e-4, 42.0)
            ])
            for i in range(5)
        ]
        pairs = threshold_self_join(near + far, 0.01, "hausdorff")
        for a, b, _ in pairs:
            assert a[0] == b[0]  # pairs never bridge the two clusters
