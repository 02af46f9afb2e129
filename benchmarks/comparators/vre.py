"""VRE-style segment storage baseline.

VRE (VLDB'22) splits trajectories into duration-``d`` segments, indexes each
segment by its *start time* in the primary table, and keeps a tid-keyed
secondary table for reassembly.  §II-1 of the TMan paper names the two costs
this design pays, both measured here:

1. temporal queries must scan the widened window ``[floor(ts/d)*d, te]``
   (Figure 1a) and touch segment rows, not trajectory rows;
2. whole trajectories must be *reassembled*: every matching tid requires
   fetching all of its segments through the secondary table.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

import numpy as np

from benchmarks.comparators.indexes.start_time import StartTimeSegmentIndex
from repro.kvstore.cluster import Cluster
from repro.kvstore.scan import Scan
from repro.model.timerange import TimeRange
from repro.model.pointblock import PointBlock
from repro.model.trajectory import Trajectory
from repro.obs.profile import query_profile
from repro.query.types import QueryResult, finish_query
from repro.storage.schema import SEPARATOR, encode_u64
from repro.storage.serializer import RowSerializer

DEFAULT_SEGMENT_SECONDS = 1800.0
TIME_SCALE = 1000  # key granularity: milliseconds


def concat_trajectories(parts: Iterable[Trajectory]) -> Trajectory:
    """Reassemble a trajectory from time-ordered segments with the same tid.

    A fix earlier than one already taken is dropped, and so is a fix equal
    to the one taken just before it (segments sharing a boundary fix).

    This is the reassembly step segment-storing systems must pay; TMan
    stores intact rows and never calls it.
    """
    ordered = sorted(parts, key=lambda t: t.time_range.start)
    if not ordered:
        raise ValueError("cannot concatenate zero segments")
    first = ordered[0]
    for part in ordered:
        if part.tid != first.tid:
            raise ValueError(f"mixed tids: {part.tid} vs {first.tid}")
    ts, xs, ys = (np.concatenate(cols) for cols in zip(*(p.xy_arrays() for p in ordered)))
    # the last fix taken always holds the running maximum of t
    keep = np.ones(len(ts), dtype=bool)
    keep[1:] = ts[1:] >= np.maximum.accumulate(ts)[:-1]
    ts, xs, ys = ts[keep], xs[keep], ys[keep]
    repeat = (ts[1:] == ts[:-1]) & (xs[1:] == xs[:-1]) & (ys[1:] == ys[:-1])
    keep = np.concatenate(([True], ~repeat))
    return Trajectory(first.oid, first.tid, PointBlock(ts[keep], xs[keep], ys[keep]))


class VRE:
    """Segment-based trajectory store with a start-time primary index."""

    def __init__(
        self,
        segment_seconds: float = DEFAULT_SEGMENT_SECONDS,
        origin: float = 0.0,
        kv_workers: int = 2,
    ):
        self.index = StartTimeSegmentIndex(segment_seconds, origin)
        self.cluster = Cluster(workers=kv_workers)
        self.primary = self.cluster.create_table("vre_segments")
        self.by_tid = self.cluster.create_table("vre_tid")
        self.serializer = RowSerializer()
        self.segment_count = 0
        self.trajectory_count = 0

    def close(self) -> None:
        """Release the resources held by this object (idempotent)."""
        self.cluster.close()

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def _primary_key(start_time: float, tid: str, seq: int) -> bytes:
        return (
            encode_u64(int(start_time * TIME_SCALE))
            + SEPARATOR
            + tid.encode("utf-8")
            + SEPARATOR
            + seq.to_bytes(4, "big")
        )

    @staticmethod
    def _tid_key(tid: str, seq: int) -> bytes:
        return tid.encode("utf-8") + SEPARATOR + seq.to_bytes(4, "big")

    # -- writes ----------------------------------------------------------------

    def bulk_load(self, trajs: Sequence[Trajectory]) -> int:
        """Split each trajectory into segments and store them individually."""
        for traj in trajs:
            segments = self.index.split(traj)
            for seq, segment in enumerate(segments):
                row = self.serializer.encode(segment)
                pkey = self._primary_key(segment.time_range.start, traj.tid, seq)
                self.primary.put(pkey, row)
                self.by_tid.put(self._tid_key(traj.tid, seq), pkey)
                self.segment_count += 1
            self.trajectory_count += 1
        return self.segment_count

    # -- temporal range query -----------------------------------------------------

    def temporal_range_query(self, time_range: TimeRange) -> QueryResult:
        """TRQ over segments, with full-trajectory reassembly.

        Matching semantics are trajectory-level: a trajectory qualifies when
        its (whole) time range intersects the query, detected via any
        intersecting segment.  Each reassembly ``primary.get`` is one of
        the result profile's ``point_gets``.
        """
        with query_profile() as profile:
            t0 = time.perf_counter()

            window = self.index.query_window(time_range)
            start = encode_u64(int(window.start * TIME_SCALE))
            stop = encode_u64(int(window.end * TIME_SCALE) + 1)

            matching_tids: set[str] = set()
            for _, value in self.primary.scan(Scan(start, stop)):
                header = self.serializer.decode_header(value)
                if header.time_range.intersects(time_range):
                    matching_tids.add(header.tid)

            # Reassembly: pull every segment of each matching trajectory.
            out: list[Trajectory] = []
            for tid in sorted(matching_tids):
                parts: list[Trajectory] = []
                tid_prefix = tid.encode("utf-8") + SEPARATOR
                for _, pkey in self.by_tid.scan(
                    Scan(tid_prefix, tid_prefix + b"\xff")
                ):
                    row = self.primary.get(pkey)
                    if row is not None:
                        parts.append(self.serializer.decode(row).trajectory)
                if parts:
                    out.append(concat_trajectories(parts))

            return finish_query(profile, "vre/start-time", out, started=t0)
