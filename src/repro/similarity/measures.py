"""Registry of similarity distance functions.

The default registry serves the vectorized antidiagonal kernels, which
consume columnar coordinate arrays (a :class:`~repro.model.pointblock.
PointBlock` or a Trajectory's cached block) directly and fall back to
object sequences transparently.  The seed row-by-row kernels live in
``tests/similarity_reference.py`` as the correctness oracle the tests
compare against.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.model.point import STPoint
from repro.similarity.dtw import dtw_distance
from repro.similarity.frechet import frechet_distance
from repro.similarity.hausdorff import hausdorff_distance

DistanceFn = Callable[[Sequence[STPoint], Sequence[STPoint]], float]

DISTANCES: dict[str, DistanceFn] = {
    "frechet": frechet_distance,
    "dtw": dtw_distance,
    "hausdorff": hausdorff_distance,
}


def distance_by_name(name: str) -> DistanceFn:
    """Look a distance function up by name; raises on unknown measures."""
    try:
        return DISTANCES[name]
    except KeyError:
        raise ValueError(
            f"unknown distance {name!r}; pick one of {sorted(DISTANCES)}"
        ) from None
