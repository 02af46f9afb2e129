"""Row value serialization for the primary table.

Figure 11 of the paper stores per row: ``oid``, ``tid``, compressed
``points``, the ``tr`` index value, and DP ``features``.  The layout here
front-loads a fixed-size header (time range + MBR) so push-down filters can
evaluate coarse predicates without decompressing anything, then the
DP-features (for the spatial/similarity refinement ladder), then the
compressed point arrays.  One layout, version 6::

    magic(1) version(1)=6
    t_start f64  t_end f64  mbr x1 y1 x2 y2 (4 × f64)
    oid (varint len + utf8)   tid (varint len + utf8)
    feat_len varint           -- byte length of the feature section (O(1) skip)
    features: varint n_reps, then one packed section of three streams
              (``compression/bitpack.py``; n_reps implies every length):
              rep indexes (n_reps - 1, delta; the first index is always 0)
              rep x, rep y in turn (2 n_reps, quantized, delta+zigzag; the
              first two as heads)
              per span k: four offsets pushing its box outward from its two
              quantized reps: min(qx_k, qx_k+1) - floor(x1*S),
              min(qy_k, qy_k+1) - floor(y1*S), ceil(x2*S) - max(qx_k, qx_k+1),
              ceil(y2*S) - max(qy_k, qy_k+1)
    points: the point blob, to the end of the row (no length):
            varint n | one packed section of the t, x and y streams

The row holds no TR index value: it is a function of the header's time
range (Eq. 1), which is the exact f64 range the keys were built from, so a
rewrite recomputes it from :attr:`RowHeader.time_range` (never from the
decoded points, whose times sit on the millisecond grid).

The point blob's first t, x and y values and the feature section's first
rep x and y are stored relative to ``rint(t_start * 1000)``,
``rint(x1 * S)`` and ``rint(y1 * S)``, read from this row's own header
(:func:`_point_origin`; :meth:`TrajectoryCodec.encode_columns` for the
blob): for x and y these are the quantized minima, so the first deltas are
small and non-negative.

Feature values are quantized on the point codec's coordinate grid
(``S = COORD_SCALE``): a representative is ``rint(x*S)``, exactly what the
point blob decodes at its index, and a box is rounded outward (an edge
whose ``floor`` / ``ceil`` would decode an ulp past the raw edge steps one
more quantum out), so it stays a sound cover of both raw and decoded
points.  Every box holds its span's two representatives, so each offset is
non-negative; the encoder checks it.  Representatives carry
no timestamp: no bound reads one.

A row packs at most ``bitpack.MAX_COUNT`` (2^20) values per stream, so it
holds at most :data:`MAX_POINTS` points and :data:`MAX_REPS` DP
representatives (the box stream holds 4 (n_reps - 1) values);
:meth:`RowSerializer.check_fits` refuses a longer trajectory.

A row with any other version byte is rejected as corrupt — rows written by
version 5 (LEB128 feature values, a simple8b point blob behind a codec id
and two stream lengths) included; the deployment's
format stamp (``storage/persistence.py``) refuses such a deployment before
any row is read — as is any row whose bytes do not parse: every decode
entry point raises :class:`CorruptionError` and nothing else.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from repro.compression.bitpack import MAX_COUNT, pack, unpack_lists
from repro.compression.columnar import delta_encode_array, zigzag_encode_array
from repro.compression.traj_codec import COORD_SCALE, TIME_SCALE, TrajectoryCodec
from repro.compression.varint import decode_varint, encode_varint
from repro.geometry.dp import DPFeature, dp_feature_columns, dp_keep_mask
from repro.kvstore.errors import CorruptionError
from repro.model.mbr import MBR
from repro.model.pointblock import PointBlock
from repro.model.timerange import TimeRange
from repro.model.trajectory import Trajectory

MAGIC = 0x54  # 'T'
VERSION = 6
# Values of each feature stream (rep index deltas, rep x / y, box offsets)
# that go out as varints ahead of the section's bit body: the first rep's.
_FEATURE_HEADS = (0, 2, 0)
_HEADER = struct.Struct(">dddddd")  # t_start, t_end, x1, y1, x2, y2
MAX_POINTS = MAX_COUNT
MAX_REPS = MAX_COUNT // 4 + 1


@dataclass(frozen=True)
class RowHeader:
    """The cheap-to-decode prefix of a row value."""

    time_range: TimeRange
    mbr: MBR
    oid: str
    tid: str
    body_offset: int  # where the features section starts


@dataclass(frozen=True)
class StoredTrajectory:
    """A fully decoded row."""

    trajectory: Trajectory
    feature: Optional[DPFeature]


class RowSerializer:
    """Encode/decode primary-table row values.

    ``dp_epsilon`` controls DP-feature extraction granularity, in degrees.
    Point payloads decode into :class:`PointBlock` columns.
    """

    def __init__(
        self,
        codec: Optional[TrajectoryCodec] = None,
        dp_epsilon: float = 0.002,
    ):
        self.codec = codec if codec is not None else TrajectoryCodec()
        self.dp_epsilon = dp_epsilon

    # -- encoding ----------------------------------------------------------

    def check_fits(self, traj: Trajectory) -> None:
        """Raise ValueError when ``traj`` has more points or DP
        representatives than one row holds."""
        n = len(traj)
        if n > MAX_POINTS:
            raise ValueError(f"trajectory {traj.tid} has {n} points; a row holds {MAX_POINTS}")
        if n > MAX_REPS:  # only then can the representatives overflow
            _, xs, ys = traj.xy_arrays()
            reps = int(dp_keep_mask(xs, ys, (0, n), self.dp_epsilon).sum())
            if reps > MAX_REPS:
                raise ValueError(
                    f"trajectory {traj.tid} has {reps} DP representatives; a row holds {MAX_REPS}"
                )

    def encode(self, traj: Trajectory) -> bytes:
        """Serialize one trajectory row."""
        return self.encode_many([traj])[0]

    def encode_many(self, trajs: Sequence[Trajectory]) -> list[bytes]:
        """Serialize a batch of rows: DP-features and point blobs come from
        segment-wise kernels over the batch's concatenated columns; only the
        framing (header, ids, length prefixes) is assembled row by row."""
        if not trajs:
            return []
        blocks = [traj.block for traj in trajs]
        offsets = np.cumsum([0] + [len(block) for block in blocks])
        ts, xs, ys = (
            np.concatenate([getattr(block, col) for block in blocks])
            for col in ("ts", "xs", "ys")
        )
        heads = np.array(
            [(traj.time_range.start, traj.time_range.end, *traj.mbr.as_tuple())
             for traj in trajs],
            dtype=np.float64,
        )
        # Blob and features count their first values from the origin each
        # row's header states (_point_origin).
        origins = np.rint(
            heads[:, [0, 2, 3]] * (TIME_SCALE, COORD_SCALE, COORD_SCALE)
        ).astype(np.int64)
        features = _encode_features(xs, ys, offsets, self.dp_epsilon, origins[:, 1:])
        blobs = self.codec.encode_columns(ts, xs, ys, offsets, origins)
        rows = []
        for traj, head, feat, blob in zip(trajs, heads.tolist(), features, blobs):
            out = bytearray([MAGIC, VERSION])
            out += _HEADER.pack(*head)
            for text in (traj.oid, traj.tid):
                raw = text.encode("utf-8")
                encode_varint(len(raw), out)
                out += raw
            encode_varint(len(feat), out)
            out += feat
            out += blob
            rows.append(bytes(out))
        return rows

    # -- decoding ------------------------------------------------------------

    @staticmethod
    def decode_header(buf: bytes) -> RowHeader:
        """Decode only the fixed header + ids; O(1) in trajectory length."""
        if len(buf) < 2 + _HEADER.size or buf[0] != MAGIC:
            raise CorruptionError("not a TMan row")
        if buf[1] != VERSION:
            raise CorruptionError(f"unsupported row version {buf[1]}")
        t_start, t_end, x1, y1, x2, y2 = _HEADER.unpack_from(buf, 2)
        try:  # an inverted range / MBR or bad utf-8 is a corrupt row
            oid, pos = _read_text(buf, 2 + _HEADER.size)
            tid, pos = _read_text(buf, pos)
            return RowHeader(TimeRange(t_start, t_end), MBR(x1, y1, x2, y2), oid, tid, pos)
        except ValueError as exc:
            raise CorruptionError(f"corrupt row header: {exc}") from exc

    @staticmethod
    def decode_feature(buf: bytes, header: Optional[RowHeader] = None) -> DPFeature:
        """Decode the DP-features without touching the points blob."""
        if header is None:
            header = RowSerializer.decode_header(buf)
        return _decode_feature(buf, header)[0]

    def decode(self, buf: bytes) -> StoredTrajectory:
        """Fully decode a row back into a trajectory."""
        header = self.decode_header(buf)
        feature, end = _decode_feature(buf, header)
        return StoredTrajectory(self._decode_points_at(buf, end, header), feature)

    def decode_trajectory(
        self, buf: bytes, header: Optional[RowHeader] = None
    ) -> StoredTrajectory:
        """Decode identity + points, skipping the DP-feature section.

        The row-decode hot path for range queries, which never consult
        features after push-down.  ``feature`` is ``None`` in the result;
        pass ``header`` when the caller has already decoded it.
        """
        if header is None:
            header = self.decode_header(buf)
        _, end = _feature_span(buf, header)
        return StoredTrajectory(self._decode_points_at(buf, end, header), None)

    def _decode_points_at(self, buf: bytes, pos: int, header: RowHeader) -> Trajectory:
        try:
            ts, xs, ys = self.codec.decode_array_block(buf[pos:], _point_origin(header))
        except (ValueError, IndexError, OverflowError) as exc:
            raise CorruptionError(f"corrupt point blob: {exc}") from exc
        return Trajectory(header.oid, header.tid, PointBlock(ts, xs, ys), validate=False)

    def decode_points(self, buf: bytes) -> PointBlock:
        """Decode just the raw point sequence (exact-filter path) as a
        lazily-materializing :class:`PointBlock`."""
        return self.decode_trajectory(buf).trajectory.block


def _point_origin(header: RowHeader) -> tuple[int, int, int]:
    """The integers the row's point blob counts its first t, x and y from:
    ``t_start`` and the MBR's low corner on the codec's grids (``round`` is
    ``np.rint`` on a python float; a NaN or infinite corner raises)."""
    return (
        round(header.time_range.start * TIME_SCALE),
        round(header.mbr.x1 * COORD_SCALE),
        round(header.mbr.y1 * COORD_SCALE),
    )


# -- feature codec ------------------------------------------------------


def _encode_features(xs, ys, offsets, epsilon: float, origins) -> list[bytes]:
    """Every row's feature section from one DP pass over the batch and one
    packing of its three streams (rep indexes but the first; each rep's x
    and y in turn; the four box offsets of each span), behind the row's
    ``n_reps``.  ``origins`` holds each row's quantized ``(x1, y1)``, which
    its first rep x and y are counted from."""
    reps, rep_off, boxes = dp_feature_columns(xs, ys, offsets, epsilon)
    n = np.diff(rep_off)
    rep_row = np.repeat(np.arange(len(n)), n)
    firsts = rep_off[:-1]
    # reps quantized on the point grid: decoded reps == decoded points[idx]
    qx, qy = (np.rint(col[reps] * COORD_SCALE).astype(np.int64) for col in (xs, ys))
    # box k spans reps k and k+1 of its row; its edges go outward from them
    lo = np.delete(np.arange(len(reps)), rep_off[1:] - 1)
    lo_x, hi_x = np.minimum(qx[lo], qx[lo + 1]), np.maximum(qx[lo], qx[lo + 1])
    lo_y, hi_y = np.minimum(qy[lo], qy[lo + 1]), np.maximum(qy[lo], qy[lo + 1])
    bx1, by1, bx2, by2 = boxes
    x1, y1 = (np.floor(col * COORD_SCALE).astype(np.int64) for col in (bx1, by1))
    x2, y2 = (np.ceil(col * COORD_SCALE).astype(np.int64) for col in (bx2, by2))
    # col * S may round onto the grid line past the raw edge, which then
    # decodes an ulp inside it: such an edge steps one more quantum outward.
    x1 -= x1 / COORD_SCALE > bx1
    y1 -= y1 / COORD_SCALE > by1
    x2 += x2 / COORD_SCALE < bx2
    y2 += y2 / COORD_SCALE < by2
    offs = np.stack((lo_x - x1, lo_y - y1, x2 - hi_x, y2 - hi_y), axis=1)
    if (offs < 0).any():
        raise ValueError("a span box does not hold its representatives")
    index_deltas = delta_encode_array(reps - offsets[rep_row], rep_off)
    if index_deltas[firsts].any():
        raise ValueError("a row's first representative is not its first point")
    reps_xy = np.empty((len(reps), 2), dtype=np.uint64)  # each rep's x and y, in turn
    for k, (q, origin) in enumerate(((qx, origins[:, 0]), (qy, origins[:, 1]))):
        deltas = delta_encode_array(q, rep_off)
        deltas[firsts] -= origin
        reps_xy[:, k] = zigzag_encode_array(deltas)
    span_off = rep_off - np.arange(len(rep_off))  # n_reps - 1 spans per row
    return pack((np.delete(index_deltas, firsts), reps_xy.ravel(), offs.ravel()),
                (span_off, 2 * rep_off, 4 * span_off), _FEATURE_HEADS, n.tolist())


def _feature_span(buf: bytes, header: RowHeader) -> tuple[int, int]:
    """``(start, end)`` of the row's feature section."""
    feat_len, start = _read_varint(buf, header.body_offset)
    end = start + feat_len
    if end > len(buf):
        raise CorruptionError("feature section runs past the end of the row")
    return start, end


_SCALE = float(COORD_SCALE)


def _decode_feature(buf: bytes, header: RowHeader) -> tuple[DPFeature, int]:
    """The row's DP-feature and where its feature section ends: ``n_reps``,
    the three streams unpacked in pure Python, and the boxes rebuilt around
    their representatives."""
    start, end = _feature_span(buf, header)
    n, pos = _read_varint(buf, start)
    if n < 2 or pos > end:  # a 1-point trajectory repeats its rep: never fewer than 2
        raise CorruptionError(f"corrupt feature section: {n} reps")
    try:
        index_deltas, reps, off = unpack_lists(buf[pos:end], 0, (n - 1, 2 * n, 4 * n - 4),
                                               _FEATURE_HEADS)
        # each rep's x and y, in turn: the first counted from the header's x1, y1
        z = [(u >> 1) ^ -(u & 1) for u in reps]
        _, ox, oy = _point_origin(header)
        z[0] += ox
        z[1] += oy
    except (ValueError, OverflowError) as exc:  # a corrupt section, a NaN or infinite header
        raise CorruptionError(f"corrupt feature section: {exc}") from exc
    qx, qy = list(accumulate(z[0::2])), list(accumulate(z[1::2]))
    nx, ny = qx[1:], qy[1:]  # each span's second rep
    s = _SCALE
    return DPFeature(
        tuple(accumulate(index_deltas, initial=0)),
        (tuple([v / s for v in qx]), tuple([v / s for v in qy])),
        (
            tuple([((a if a < b else b) - o) / s for a, b, o in zip(qx, nx, off[0::4])]),
            tuple([((a if a < b else b) - o) / s for a, b, o in zip(qy, ny, off[1::4])]),
            tuple([((b if a < b else a) + o) / s for a, b, o in zip(qx, nx, off[2::4])]),
            tuple([((b if a < b else a) + o) / s for a, b, o in zip(qy, ny, off[3::4])]),
        ),
    ), end


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    """One LEB128 value at ``pos``; a truncated or overlong one is corruption."""
    if pos < len(buf) and buf[pos] < 0x80:  # the common one-byte value
        return buf[pos], pos + 1
    try:
        return decode_varint(buf, pos)
    except ValueError as exc:
        raise CorruptionError(f"{exc} in row") from exc


def _read_text(buf: bytes, pos: int) -> tuple[str, int]:
    """A varint-length-prefixed utf-8 string at ``pos``."""
    n, pos = _read_varint(buf, pos)
    if pos + n > len(buf):
        raise CorruptionError("row id runs past the end of the row")
    return buf[pos : pos + n].decode("utf-8"), pos + n
