"""Trajectory similarity measures and the TraSS-style pruning pipeline.

TMan adopts TraSS's similarity machinery (§V-F of the paper): a *global
pruning* step that uses the spatial index to discard trajectories whose
index spaces cannot be within the distance threshold, a *local filter* that
bounds distances with DP-features, and exact distance computation for the
survivors.  Three distances are supported: discrete Fréchet, DTW, and
Hausdorff.
"""

from repro.similarity.dtw import dtw_distance
from repro.similarity.frechet import frechet_distance
from repro.similarity.hausdorff import hausdorff_distance
from repro.similarity.measures import DISTANCES, distance_by_name
from repro.similarity.pruning import (
    dp_lower_bound,
    dp_upper_bound,
    mbr_lower_bound,
)

__all__ = [
    "frechet_distance",
    "dtw_distance",
    "hausdorff_distance",
    "DISTANCES",
    "distance_by_name",
    "mbr_lower_bound",
    "dp_lower_bound",
    "dp_upper_bound",
]
