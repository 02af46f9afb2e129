"""TMan: a high-performance trajectory data management system on key-value stores.

Reproduction of He et al., ICDE 2024.  The top-level package re-exports the
user-facing API; subpackages hold the substrates:

- :mod:`repro.model` -- trajectories, points, MBRs, time ranges;
- :mod:`repro.core` -- the TR / TShape / IDT / ST indexes;
- :mod:`repro.kvstore` -- the embedded range-partitioned key-value store;
- :mod:`repro.cache` -- LFU + Redis-like index cache;
- :mod:`repro.compression` -- lossless trajectory codecs;
- :mod:`repro.similarity` -- Frechet / DTW / Hausdorff with pruning bounds;
- :mod:`repro.storage` -- schema, serialization, and the :class:`TMan` facade;
- :mod:`repro.query` -- planning, window generation, push-down execution;
- :mod:`repro.datasets` -- seeded TDrive-like / Lorry-like generators.

The systems TMan is compared against live with the figures that use them,
in ``benchmarks/comparators/``, outside the installed package.
"""

from repro._lazy import lazy_exports

# Re-exports resolve on first access (PEP 562): ``import repro`` alone loads
# none of the layers, so a spawned region-server worker that imports only
# the storage engine never pays for numpy or the query stack.
__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.model": ("MBR", "STPoint", "TimeRange", "Trajectory"),
        "repro.query.types": (
            "IDTemporalQuery", "QueryResult", "SpatialRangeQuery", "STRangeQuery",
            "TemporalRangeQuery", "ThresholdSimilarityQuery", "TopKSimilarityQuery",
        ),
        "repro.runtime": ("AdmissionRejectedError", "QueryTimeoutError"),
        "repro.storage.config": ("TManConfig",),
        "repro.storage.persistence": ("open_tman", "save_tman"),
        "repro.storage.tman": ("TMan",),
    },
)

__version__ = "1.0.0"

__all__ = [
    "TMan",
    "TManConfig",
    "save_tman",
    "open_tman",
    "STPoint",
    "Trajectory",
    "MBR",
    "TimeRange",
    "TemporalRangeQuery",
    "SpatialRangeQuery",
    "STRangeQuery",
    "IDTemporalQuery",
    "ThresholdSimilarityQuery",
    "TopKSimilarityQuery",
    "QueryResult",
    "QueryTimeoutError",
    "AdmissionRejectedError",
    "__version__",
]
