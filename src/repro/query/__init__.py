"""Query processing: descriptors, push-down filters, planning, execution.

A query flows through the three steps of §V: candidate index-value
calculation (done by the core index planners), query-window generation
(:mod:`repro.query.windows`), and push-down filtering inside regions
(:mod:`repro.query.filters`).  The rule/cost-based optimizer lives in
:mod:`repro.query.planner`; it maps each query to a streaming operator
pipeline (:mod:`repro.query.operators`, :mod:`repro.query.pipeline`) whose
per-stage accounting lands in the query's
:class:`~repro.obs.profile.QueryProfile`, returned on every result.
"""

from repro.query.filters import IdFilter, SimilarityFilter, SpatialFilter, TemporalFilter
from repro.query.operators import (
    Collect,
    Count,
    Decode,
    Limit,
    Operator,
    PushDownFilter,
    Refine,
    RegionScan,
    SecondaryResolve,
    Sink,
    TopK,
    WindowSource,
)
from repro.query.pipeline import Pipeline, build_pipeline
from repro.query.types import (
    IDTemporalQuery,
    KNNPointQuery,
    QueryResult,
    SpatialRangeQuery,
    STRangeQuery,
    TemporalRangeQuery,
    ThresholdSimilarityQuery,
    TopKSimilarityQuery,
)

__all__ = [
    "TemporalRangeQuery",
    "SpatialRangeQuery",
    "STRangeQuery",
    "IDTemporalQuery",
    "KNNPointQuery",
    "ThresholdSimilarityQuery",
    "TopKSimilarityQuery",
    "QueryResult",
    "TemporalFilter",
    "SpatialFilter",
    "IdFilter",
    "SimilarityFilter",
    "Operator",
    "WindowSource",
    "RegionScan",
    "PushDownFilter",
    "SecondaryResolve",
    "Decode",
    "Refine",
    "Sink",
    "Collect",
    "Count",
    "TopK",
    "Limit",
    "Pipeline",
    "build_pipeline",
]
