"""Baseline index structures re-implemented for head-to-head comparison.

- :class:`~.xzt.XZTIndex` — TrajMesa's temporal index;
- :class:`~.xz2.XZ2Index` — classic XZ-ordering (GeoMesa / TrajMesa / JUST
  spatial index);
- :class:`~.xzstar.XZStarIndex` — TraSS's XZ* index;
- :class:`~.fixed_bins.FixedBinIndex` — ST-Hadoop-style fixed time slicing
  with redundant storage;
- :class:`~.start_time.StartTimeSegmentIndex` — VRE-style segment
  start-time index.
"""

from benchmarks.comparators.indexes.fixed_bins import FixedBinIndex
from benchmarks.comparators.indexes.start_time import StartTimeSegmentIndex
from benchmarks.comparators.indexes.xz2 import XZ2Index
from benchmarks.comparators.indexes.xzstar import XZStarIndex
from benchmarks.comparators.indexes.xzt import XZTIndex, XZTOverflowError

__all__ = [
    "XZTIndex",
    "XZTOverflowError",
    "XZ2Index",
    "XZStarIndex",
    "FixedBinIndex",
    "StartTimeSegmentIndex",
]
