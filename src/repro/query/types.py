"""Query descriptors and results."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from repro.model.mbr import MBR
from repro.model.timerange import TimeRange
from repro.model.trajectory import Trajectory
from repro.obs.finished import publish
from repro.obs.profile import QueryProfile
from repro.query.cost import COST_MODEL

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.runtime.deadline import Deadline
    from repro.storage.config import TManConfig


@dataclass(frozen=True)
class TemporalRangeQuery:
    """All trajectories whose time range intersects ``time_range`` (TRQ)."""

    time_range: TimeRange


@dataclass(frozen=True)
class SpatialRangeQuery:
    """All trajectories intersecting the spatial ``window`` (SRQ)."""

    window: MBR


@dataclass(frozen=True)
class STRangeQuery:
    """Conjunction of a spatial window and a time range (STRQ)."""

    window: MBR
    time_range: TimeRange


@dataclass(frozen=True)
class IDTemporalQuery:
    """Trajectories of one object intersecting a time range."""

    oid: str
    time_range: TimeRange


@dataclass(frozen=True)
class KNNPointQuery:
    """The ``k`` trajectories passing closest to a point (extension query).

    Distance is the minimum planar distance from the point to the
    trajectory's polyline.  Not in the paper's six query types; listed there
    as future work ("handling more query types").
    """

    x: float
    y: float
    k: int

    def first_radius(self, boundary: MBR) -> float:
        """Radius of the first expanding ring: 1/64 of the boundary's short side."""
        return min(boundary.width, boundary.height) / 64.0

    def ring(self, radius: float) -> MBR:
        """The square of half-side ``radius`` around the query point."""
        return MBR(self.x - radius, self.y - radius, self.x + radius, self.y + radius)


@dataclass(frozen=True)
class ThresholdSimilarityQuery:
    """Trajectories within distance ``threshold`` of ``query`` (measure-named)."""

    query: Trajectory
    threshold: float
    measure: str = "frechet"


@dataclass(frozen=True)
class TopKSimilarityQuery:
    """The ``k`` trajectories most similar to ``query``."""

    query: Trajectory
    k: int
    measure: str = "frechet"

    def first_radius(self, boundary: MBR) -> float:
        """Radius of the first expanding ring: a quarter of the query
        MBR's diagonal (``boundary`` is unused; kNN's signature)."""
        qmbr = self.query.mbr
        return max(1e-4, (qmbr.width**2 + qmbr.height**2) ** 0.5) / 4.0

    def ring(self, radius: float) -> MBR:
        """The query MBR grown by ``radius`` on every side."""
        return self.query.mbr.expanded(radius)


Query = Union[
    TemporalRangeQuery,
    SpatialRangeQuery,
    STRangeQuery,
    IDTemporalQuery,
    KNNPointQuery,
    ThresholdSimilarityQuery,
    TopKSimilarityQuery,
]


def search_of(query: Query, boundary: MBR) -> dict:
    """What a query searches, as :func:`~repro.query.pipeline.key_windows`
    keywords: its ``time_range``, spatial ``window`` and object ``oid``.

    A threshold query searches its query MBR grown by the threshold (global
    pruning); a top-k or kNN query its first expanding ring.
    """
    if isinstance(query, TemporalRangeQuery):
        return {"time_range": query.time_range}
    if isinstance(query, SpatialRangeQuery):
        return {"window": query.window}
    if isinstance(query, STRangeQuery):
        return {"time_range": query.time_range, "window": query.window}
    if isinstance(query, IDTemporalQuery):
        return {"time_range": query.time_range, "oid": query.oid}
    if isinstance(query, ThresholdSimilarityQuery):
        return {"window": query.query.mbr.expanded(query.threshold)}
    if isinstance(query, (TopKSimilarityQuery, KNNPointQuery)):
        return {"window": query.ring(query.first_radius(boundary))}
    raise TypeError(f"unknown query type: {type(query).__name__}")


@dataclass
class QueryResult:
    """Query output plus execution accounting.

    ``candidates`` is the number of rows the storage layer touched (the
    paper's retrieval count); ``windows`` the number of range scans issued;
    ``elapsed_ms`` wall-clock time of the embedded store; ``simulated_ms``
    modeled disk-cluster latency; ``plan`` the index the optimizer chose;
    ``partial`` is True when a deadline with ``allow_partial`` truncated the
    query early — the rows present are correct but the set may be
    incomplete.  ``profile`` is the query's ledger: its resource
    attribution and the per-stage record of its pipeline runs
    (``profile.as_dict()`` for the full breakdown, ``profile.render()`` for
    the stage table), present on the result of every system that reads a
    key-value store (TMan and the KV-backed baselines); the counters above
    are read off it by :meth:`from_profile`, so they count this query's
    work only, even while other queries run concurrently.
    """

    trajectories: list[Trajectory] = field(default_factory=list)
    count: int = 0
    candidates: int = 0
    transferred_rows: int = 0
    windows: int = 0
    elapsed_ms: float = 0.0
    simulated_ms: float = 0.0
    plan: str = ""
    distances: Optional[list[float]] = None
    partial: bool = False
    profile: Optional[QueryProfile] = None

    def __len__(self) -> int:
        return len(self.trajectories)

    @property
    def trace(self) -> Optional[QueryProfile]:
        """The profile, read-only: kept for readers of ``result.trace.rounds``."""
        return self.profile

    @classmethod
    def from_profile(
        cls,
        profile: QueryProfile,
        trajectories: list[Trajectory],
        elapsed_ms: float,
        plan: str,
        distances: Optional[list[float]] = None,
    ) -> "QueryResult":
        """The result of a query whose work ``profile`` attributed.

        ``candidates`` is rows scanned plus point gets, ``transferred_rows``
        the rows returned, ``windows`` the range scans, ``simulated_ms``
        :data:`~repro.query.cost.COST_MODEL`'s model of that work and
        ``partial`` the profile's own flag.
        Records nothing: :func:`finish_query` stamps the profile, builds
        the result with this and publishes a TMan query's profile.
        """
        return cls(
            trajectories=trajectories,
            candidates=profile.candidates,
            transferred_rows=profile.rows_returned,
            windows=profile.range_scans,
            elapsed_ms=elapsed_ms,
            simulated_ms=COST_MODEL.simulate_ms(profile),
            plan=plan,
            distances=distances,
            partial=profile.partial,
            profile=profile,
        )


def finish_query(
    profile: QueryProfile,
    plan: str,
    trajectories: list[Trajectory],
    *,
    started: Optional[float] = None,
    elapsed_ms: Optional[float] = None,
    query: Optional[Query] = None,
    deadline: Optional[Deadline] = None,
    distances: Optional[list[float]] = None,
    estimate: Optional[float] = None,
    config: Optional[TManConfig] = None,
) -> QueryResult:
    """The one finish of every query: stamp its profile, build its result.

    The wall time runs from ``started`` (a ``perf_counter`` instant) to now,
    unless ``elapsed_ms`` states it.  The profile is stamped with that time,
    the start, ``plan``, the query's type, the ``deadline`` and the
    planner's ``estimate``; the result is :meth:`QueryResult.from_profile`.
    A TMan query passes its deployment's ``config``: the finished profile
    then goes to the record of finished queries
    (:func:`repro.obs.finished.publish`).
    """
    if elapsed_ms is None:
        elapsed_ms = (time.perf_counter() - started) * 1000
    query_type = type(query).__name__ if query is not None else ""
    profile.finish(
        elapsed_ms, query_type, plan, deadline,
        started=started, estimated_candidates=estimate,
    )
    result = QueryResult.from_profile(
        profile, trajectories, elapsed_ms, plan, distances=distances
    )
    if config is not None:
        publish(query, profile, config.tr_period_seconds, config.boundary)
    return result
