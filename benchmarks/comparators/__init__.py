"""Baseline trajectory systems re-implemented for the paper's comparisons
(their indexes are in ``indexes/``).

- :class:`TrajMesa` — multi-index-table NoSQL engine (XZT temporal + XZ2
  spatial + composite spatio-temporal + id tables), client-side filtering,
  redundant storage;
- :class:`STHadoop` — time-sliced point storage with per-slice spatial
  grids and a simulated scan-job executor;
- :func:`make_trass` — TraSS as the documented special case of TMan
  (XZ* = TShape with α=β=2, raw bitmap codes, no index cache);
- :class:`TManXZT` / :class:`TManXZ` — the paper's retrofit ablations:
  TMan's storage + push-down framework with the baseline XZT/XZ2 indexes;
- :class:`VRE` — segment storage under a start-time index, reassembled
  through a tid-keyed table;
- :class:`DFT`, :class:`DITA`, :class:`REPOSE` — distributed in-memory
  similarity systems reduced to their index + pruning logic.
"""

from benchmarks.comparators.dft import DFT
from benchmarks.comparators.dita import DITA
from benchmarks.comparators.repose import REPOSE
from benchmarks.comparators.sthadoop import STHadoop
from benchmarks.comparators.tman_variants import TManXZ, TManXZT
from benchmarks.comparators.trajmesa import TrajMesa
from benchmarks.comparators.trass import make_trass
from benchmarks.comparators.vre import VRE

__all__ = [
    "TrajMesa",
    "STHadoop",
    "make_trass",
    "TManXZT",
    "TManXZ",
    "VRE",
    "DFT",
    "DITA",
    "REPOSE",
]
