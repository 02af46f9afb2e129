"""The similarity kernels see the same geometry whichever way a
trajectory's points are held: as a columnar ``PointBlock`` or as a plain
``STPoint`` list.
"""

from __future__ import annotations

import pytest

from repro.datasets import tdrive_like
from repro.model.trajectory import Trajectory
from repro.similarity.join import threshold_self_join


@pytest.mark.parametrize("measure", ["frechet", "dtw", "hausdorff"])
def test_self_join_identical_for_block_and_list_inputs(measure):
    subset = tdrive_like(30, seed=4242)
    as_lists = [Trajectory(t.oid, t.tid, list(t.points)) for t in subset]
    # DTW sums per-point distances, so its qualifying threshold is far
    # larger than the max-style measures'.
    threshold = 30.0 if measure == "dtw" else 0.25
    joined_blocks = threshold_self_join(subset, threshold, measure=measure)
    joined_lists = threshold_self_join(as_lists, threshold, measure=measure)
    assert joined_blocks == joined_lists
    assert len(joined_blocks) > 0
