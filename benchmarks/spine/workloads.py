"""The four workloads: sizes, deployments and seeded operation streams.

Every workload draws its data from ``tdrive_like(N, seed=S, max_points=50)``,
its windows from ``QueryWorkload(TDRIVE_SPEC, data, seed=S+1)`` and its
stream order from ``random.Random(S+2)``; the program only ever sees these
generated inputs.  The sizes are what fits the benchmark contract on a
2-core box (92 runs in 57 minutes, so ~30 s a run including three set-ups);
``README.md`` lists them next to the cache sizes they should be read against.
Rounds and passes are fixed per workload, so the stream a run executes does
not depend on how fast the commit under test is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from repro import TMan, TManConfig
from repro.datasets import TDRIVE_SPEC, tdrive_like
from repro.datasets.workloads import QueryWorkload
from repro.kvstore.cluster import Cluster
from repro.model import TimeRange
from repro.storage.tman import retry_policy_from, write_limits_from

KIB = 1024

# Query parameters (fixed; the paper's §VI settings scaled to the synthetic city).
TRQ_SECONDS = 3600.0
SRQ_KM = 2.0
STRQ_SECONDS = 6 * 3600.0
THRESHOLD_DEG = 0.01
TOP_K = 10
INSERT_BATCH = 20

QUERY_KINDS = ("trq", "srq", "strq", "idt", "threshold", "topk", "knn")


@dataclass(frozen=True)
class Op:
    """One API call of the stream: a query, an insert batch or a delete."""

    kind: str
    args: tuple


@dataclass(frozen=True)
class Sizes:
    n: int  # trajectories bulk-loaded before the timed phase
    rounds: int  # rounds in one pass of the stream
    passes: int  # identical passes over the stream (a latency is its minimum over them)
    warmup_rounds: int  # untimed rounds on windows outside the timed stream
    setups: int  # build + bulk_load + flush repetitions behind setup_s


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str  # "range" | "similarity" | "ingest"
    deployment: str  # "threads" | "processes" | "durable"
    full: Sizes  # at --seconds NOMINAL_SECONDS
    smoke: Sizes
    config: dict = field(default_factory=dict)

    def sizes(self, profile: str, seconds: float) -> Sizes:
        """The work of one run: a function of the arguments, never of the clock.

        Two commits therefore execute the identical stream, and every count
        repeats.  ``--seconds`` scales the rounds of a pass, which on the box
        this was sized on makes the timed phase last about that long.
        """
        if profile != "full":
            return self.smoke
        rounds = max(4, round(self.full.rounds * seconds / NOMINAL_SECONDS))
        return replace(self.full, rounds=rounds)


NOMINAL_SECONDS = 20.0

_PROCESS_KNOBS = dict(
    cluster_mode="processes", cluster_nodes=2, replication_factor=2,
    read_quorum=1, write_quorum=2,
)
_INGEST_KNOBS = dict(
    memtable_soft_bytes=128 * KIB, memtable_hard_bytes=512 * KIB,
    write_throttle_ms=0.0, buffer_shape_threshold=64,
)
INGEST_BLOCK_CACHE_BYTES = 256 * KIB

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "range_threads",
            "N=1200, 60 rounds of TRQ/SRQ/STRQ/IDT x 2 passes in memory on threads: planner, "
            "window generation, index cache, scan scheduler, filters and decode do all the "
            "work; no disk, RPC or kernels",
            "range", "threads",
            full=Sizes(n=1200, rounds=60, passes=2, warmup_rounds=10, setups=3),
            smoke=Sizes(n=200, rounds=8, passes=1, warmup_rounds=2, setups=1),
        ),
        Workload(
            "range_processes",
            "the same data, stream and passes on 2 worker processes (rf=2, R=1, W=2): every "
            "page pays the RPC path, so wire and push-down work shows here and must not show "
            "on range_threads",
            "range", "processes",
            full=Sizes(n=1200, rounds=60, passes=2, warmup_rounds=10, setups=3),
            smoke=Sizes(n=200, rounds=8, passes=1, warmup_rounds=2, setups=1),
            config=_PROCESS_KNOBS,
        ),
        Workload(
            "similarity_threads",
            "N=1000, 10 rounds of threshold 0.01 deg / top-10 Frechet / 10-NN point x 2 passes: "
            "kernels, DP pruning, decode and TShape expansion dominate; temporal indexes, "
            "secondary resolve and RPC are bypassed",
            "similarity", "threads",
            full=Sizes(n=1000, rounds=10, passes=2, warmup_rounds=2, setups=3),
            smoke=Sizes(n=200, rounds=5, passes=1, warmup_rounds=1, setups=1),
        ),
        Workload(
            "ingest_mixed_durable",
            "N=1000 durable, one pass of 72 rounds of insert 20 + delete 1 + 2 TRQ + SRQ + IDT, "
            "128 KiB memtables, 256 KiB block cache: WAL, flush, compaction and re-encode run "
            "beside reads on a growing store",
            "ingest", "durable",
            full=Sizes(n=1000, rounds=72, passes=1, warmup_rounds=10, setups=3),
            smoke=Sizes(n=200, rounds=10, passes=1, warmup_rounds=2, setups=1),
            config=_INGEST_KNOBS,
        ),
    )
}


def config_for(workload: Workload, cluster_dir: Optional[Path]) -> TManConfig:
    """The common configuration plus the workload's own knobs."""
    knobs = dict(workload.config)
    if workload.deployment == "processes":
        knobs["cluster_data_dir"] = str(cluster_dir)
    return TManConfig(
        boundary=TDRIVE_SPEC.boundary, max_resolution=14, num_shards=2,
        kv_workers=2, split_rows=50_000, **knobs,
    )


def durable_cluster(config: TManConfig, data_dir: Path) -> Cluster:
    """The single-process durable cluster of ``ingest_mixed_durable``.

    Flush policy: inline flush at the soft watermark (the durable engine
    never flushes in the background).  WAL sync: the table layer's default,
    group commit — records reach the OS per write and are fsynced at flush
    and close.
    """
    return Cluster(
        workers=config.kv_workers, split_rows=config.split_rows,
        data_dir=str(data_dir), block_cache_bytes=INGEST_BLOCK_CACHE_BYTES,
        retry=retry_policy_from(config), write_limits=write_limits_from(config),
    )


def build(workload: Workload, work_dir: Path) -> tuple[TMan, Optional[Cluster]]:
    """A fresh, empty deployment under ``work_dir``.

    Returns the facade and, for the durable workload, the cluster the caller
    must close itself (``TMan.close`` only closes clusters it created).
    """
    config = config_for(workload, work_dir)
    if workload.deployment == "durable":
        cluster = durable_cluster(config, work_dir)
        return TMan(config, cluster=cluster), cluster
    return TMan(config), None


# -- streams --------------------------------------------------------------------


@dataclass
class Streams:
    base: list  # trajectories bulk-loaded in set-up
    universe: list  # base + everything the stream may insert
    rounds: list[list[Op]]  # the timed stream, one list of ops per round
    warmup: list[list[Op]]


def _range_round(trq, srq, strq, oid, span, rng) -> list[Op]:
    ops = [
        Op("trq", (trq,)), Op("srq", (srq,)), Op("strq", strq), Op("idt", (oid, span)),
    ]
    rng.shuffle(ops)
    return ops


def _similarity_round(traj, rng) -> list[Op]:
    start = traj.points[0]
    ops = [
        Op("threshold", (traj, THRESHOLD_DEG)),
        Op("topk", (traj, TOP_K)),
        Op("knn", (start.lng, start.lat, TOP_K)),
    ]
    rng.shuffle(ops)
    return ops


def _stratified_by_extent(trajs: list, count: int, rng: random.Random) -> list:
    """``count`` query trajectories, one from each extent quantile of ``trajs``.

    A similarity query's cost follows its trajectory's extent (threshold:
    58 ms at a 0.02 deg MBR diagonal, 340 ms at 0.3 deg) and a run affords
    about a dozen rounds, so uniform picks made the per-type medians swing by
    40 % between seeds.  The seed still chooses the trajectory inside each
    quantile.
    """
    ranked = sorted(trajs, key=lambda t: (t.mbr.width**2 + t.mbr.height**2, t.tid))
    picks = []
    for q in range(count):
        lo, hi = q * len(ranked) // count, (q + 1) * len(ranked) // count
        picks.append(ranked[rng.randrange(lo, max(hi, lo + 1))])
    rng.shuffle(picks)
    return picks


def make_streams(workload: Workload, sizes: Sizes, seed: int) -> Streams:
    """Generate data and operation streams for ``seed`` (nothing else varies)."""
    inserts = sizes.rounds * INSERT_BATCH if workload.family == "ingest" else 0
    universe = tdrive_like(sizes.n + inserts, seed=seed, max_points=50)
    base, extra = universe[: sizes.n], universe[sizes.n :]
    windows = QueryWorkload(TDRIVE_SPEC, base, seed=seed + 1)
    rng = random.Random(seed + 2)
    span = TimeRange(
        min(t.time_range.start for t in universe),
        max(t.time_range.end for t in universe),
    )
    total = sizes.rounds + sizes.warmup_rounds
    rounds: list[list[Op]] = []

    if workload.family == "range":
        trqs = windows.temporal_windows(TRQ_SECONDS, total)
        srqs = windows.spatial_windows(SRQ_KM, total)
        strqs = windows.st_windows(SRQ_KM, STRQ_SECONDS, total)
        oids = windows.object_ids(total)
        rounds = [
            _range_round(trqs[i], srqs[i], strqs[i], oids[i], span, rng)
            for i in range(total)
        ]
    elif workload.family == "similarity":
        timed = _stratified_by_extent(base, sizes.rounds, rng)
        chosen = {t.tid for t in timed}
        rest = [t for t in base if t.tid not in chosen]
        warm = _stratified_by_extent(rest, sizes.warmup_rounds, rng)
        rounds = [_similarity_round(t, rng) for t in timed + warm]
    else:
        trqs = windows.temporal_windows(TRQ_SECONDS, 2 * total)
        srqs = windows.spatial_windows(SRQ_KM, total)
        oids = windows.object_ids(total)
        inserted: list = []
        for i in range(total):
            reads = [
                Op("trq", (trqs[2 * i],)), Op("trq", (trqs[2 * i + 1],)),
                Op("srq", (srqs[i],)), Op("idt", (oids[i], span)),
            ]
            rng.shuffle(reads)
            if i >= sizes.rounds:  # warm-up rounds only read
                rounds.append(reads)
                continue
            batch = extra[i * INSERT_BATCH : (i + 1) * INSERT_BATCH]
            ops = [Op("insert", (batch,))]
            if inserted:
                ops.append(Op("delete", (inserted.pop(rng.randrange(len(inserted))),)))
            inserted.extend(batch)
            rounds.append(ops + reads)
    return Streams(base, universe, rounds[: sizes.rounds], rounds[sizes.rounds :])


def execute(tman: TMan, op: Op):
    """Issue one op through the public API; returns what the call returned."""
    kind, args = op.kind, op.args
    if kind == "trq":
        return tman.temporal_range_query(*args)
    if kind == "srq":
        return tman.spatial_range_query(*args)
    if kind == "strq":
        return tman.st_range_query(*args)
    if kind == "idt":
        return tman.id_temporal_query(*args)
    if kind == "threshold":
        return tman.threshold_similarity_query(*args)
    if kind == "topk":
        return tman.top_k_similarity_query(*args)
    if kind == "knn":
        return tman.knn_point_query(*args)
    if kind == "insert":
        return tman.insert(*args)
    if kind == "delete":
        return tman.delete(*args)
    raise ValueError(f"unknown op kind {kind!r}")
