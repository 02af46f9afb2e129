"""Row value serialization for the primary table.

Figure 11 of the paper stores per row: ``oid``, ``tid``, compressed
``points``, the ``tr`` index value, and DP ``features``.  The layout here
front-loads a fixed-size header (time range + MBR) so push-down filters can
evaluate coarse predicates without decompressing anything, then the
DP-features (for the spatial/similarity refinement ladder), then the
compressed point arrays.  One layout, version 4::

    magic(1) version(1)=4
    t_start f64  t_end f64  mbr x1 y1 x2 y2 (4 × f64)
    tr_value varint
    oid (varint len + utf8)   tid (varint len + utf8)
    feat_len varint           -- byte length of the feature section (O(1) skip)
    features: LEB128 values, no count prefixes (n_reps implies every length):
              n_reps
              rep indexes (n_reps, delta)
              rep x, rep y (n_reps each, quantized, delta+zigzag)
              per span k: four offsets pushing its box outward from its two
              quantized reps: min(qx_k, qx_k+1) - floor(x1*S),
              min(qy_k, qy_k+1) - floor(y1*S), ceil(x2*S) - max(qx_k, qx_k+1),
              ceil(y2*S) - max(qy_k, qy_k+1)
    points: the configured codec's blob, to the end of the row (no length):
            codec id(1) | varint n | varint len(t) | varint len(x) | t | x | y
            (every codec id decodes through one vectorized path)

The point blob's first t, x and y values are stored relative to
``rint(t_start * 1000)``, ``rint(x1 * S)`` and ``rint(y1 * S)``, read from
this row's own header (:meth:`TrajectoryCodec.encode_columns`): for x and y
these are the quantized minima, so the first deltas are small and
non-negative.

Feature values are quantized on the point codec's coordinate grid
(``S = COORD_SCALE``): a representative is ``rint(x*S)``, exactly what the
point blob decodes at its index, and a box is rounded outward (an edge
whose ``floor`` / ``ceil`` would decode an ulp past the raw edge steps one
more quantum out), so it stays a sound cover of both raw and decoded
points.  Every box holds its span's two representatives, so each offset is
non-negative; the encoder checks it.  Representatives carry
no timestamp: no bound reads one.

A row with any other version byte is rejected as corrupt — rows written by
version 3 (a length-prefixed blob with a fixed-width head, a count in
front of each stream and absolute first values) included; the deployment's
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

from repro.compression.columnar import delta_encode_array, leb128_encode, zigzag_encode_array
from repro.compression.traj_codec import COORD_SCALE, TIME_SCALE, TrajectoryCodec
from repro.compression.varint import encode_varint
from repro.geometry.dp import DPFeature, dp_feature_columns
from repro.kvstore.errors import CorruptionError
from repro.model.mbr import MBR
from repro.model.pointblock import PointBlock
from repro.model.timerange import TimeRange
from repro.model.trajectory import Trajectory

MAGIC = 0x54  # 'T'
VERSION = 4
_HEADER = struct.Struct(">dddddd")  # t_start, t_end, x1, y1, x2, y2


@dataclass(frozen=True)
class RowHeader:
    """The cheap-to-decode prefix of a row value."""

    time_range: TimeRange
    mbr: MBR
    tr_value: int
    oid: str
    tid: str
    body_offset: int  # where the features section starts


@dataclass(frozen=True)
class StoredTrajectory:
    """A fully decoded row."""

    trajectory: Trajectory
    tr_value: int
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

    def encode(self, traj: Trajectory, tr_value: int) -> bytes:
        """Serialize one trajectory row."""
        return self.encode_many([traj], [tr_value])[0]

    def encode_many(self, trajs: Sequence[Trajectory], tr_values: Sequence[int]) -> list[bytes]:
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
        features = _encode_features(xs, ys, offsets, self.dp_epsilon)
        heads = np.array(
            [(traj.time_range.start, traj.time_range.end, *traj.mbr.as_tuple())
             for traj in trajs],
            dtype=np.float64,
        )
        # The configured codec packs the point streams (its compression
        # ratio is orthogonal to the feature layout); decode_array_block
        # reads every codec id back as columns.  Each blob starts from the
        # origin its row's header states (_point_origin).
        origins = np.rint(heads[:, [0, 2, 3]] * (TIME_SCALE, COORD_SCALE, COORD_SCALE))
        blobs = self.codec.encode_columns(ts, xs, ys, offsets, origins.astype(np.int64))
        rows = []
        for traj, tr_value, head, feat, blob in zip(
            trajs, tr_values, heads.tolist(), features, blobs
        ):
            out = bytearray([MAGIC, VERSION])
            out += _HEADER.pack(*head)
            encode_varint(tr_value, out)
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
        tr_value, pos = _read_varint(buf, 2 + _HEADER.size)
        try:  # an inverted range / MBR or bad utf-8 is a corrupt row
            oid, pos = _read_text(buf, pos)
            tid, pos = _read_text(buf, pos)
            return RowHeader(
                TimeRange(t_start, t_end), MBR(x1, y1, x2, y2), tr_value, oid, tid, pos
            )
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
        return StoredTrajectory(self._decode_points_at(buf, end, header), header.tr_value, feature)

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
        return StoredTrajectory(self._decode_points_at(buf, end, header), header.tr_value, None)

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


def _encode_features(xs, ys, offsets, epsilon: float) -> list[bytes]:
    """Every row's feature section from one DP pass and one LEB128 pass over
    the batch: each value is scattered to its place in its row's section
    (``n_reps``, rep indexes, rep x, rep y, four box offsets per span), so a
    row's section is one slice of the encoded bytes."""
    reps, rep_off, boxes = dp_feature_columns(xs, ys, offsets, epsilon)
    n = np.diff(rep_off)
    row_at = np.concatenate(([0], np.cumsum(7 * n - 3)))  # 1 + 3n + 4(n-1) values
    rep_row = np.repeat(np.arange(len(n)), n)
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
    flat = np.empty(int(row_at[-1]), dtype=np.uint64)
    flat[row_at[:-1]] = n
    at = row_at[rep_row] + 1 + np.arange(len(reps)) - rep_off[rep_row]
    flat[at] = delta_encode_array(reps - offsets[rep_row], rep_off)
    for k, q in enumerate((qx, qy), 1):
        flat[at + k * n[rep_row]] = zigzag_encode_array(delta_encode_array(q, rep_off))
    box_row = rep_row[lo]
    box_at = row_at[box_row] + 1 + 3 * n[box_row] + 4 * (lo - rep_off[box_row])
    flat[box_at[:, None] + np.arange(4)] = offs
    data, ends = leb128_encode(flat)
    buf = data.tobytes()
    cut = np.concatenate(([0], ends))[row_at].tolist()
    return [buf[a:b] for a, b in zip(cut[:-1], cut[1:])]


def _feature_span(buf: bytes, header: RowHeader) -> tuple[int, int]:
    """``(start, end)`` of the row's feature section."""
    feat_len, start = _read_varint(buf, header.body_offset)
    end = start + feat_len
    if end > len(buf):
        raise CorruptionError("feature section runs past the end of the row")
    return start, end


_SCALE = float(COORD_SCALE)


def _decode_feature(buf: bytes, header: RowHeader) -> tuple[DPFeature, int]:
    """The row's DP-feature and where its feature section ends, in one LEB128
    pass: every value of the section, then the columns sliced out by
    ``n_reps`` and the boxes rebuilt around their representatives."""
    start, end = _feature_span(buf, header)
    vals = []
    value = shift = 0
    for byte in buf[start:end]:
        if byte < 0x80:
            vals.append(value | byte << shift)
            value = shift = 0
        else:
            value |= (byte & 0x7F) << shift
            shift += 7
            if shift > 63:
                raise CorruptionError("varint longer than 10 bytes in feature section")
    if shift or not vals:
        raise CorruptionError("truncated feature section")
    n = vals[0]  # a 1-point trajectory repeats its rep: never fewer than 2
    if n < 2 or len(vals) != 7 * n - 3:
        raise CorruptionError("corrupt feature section: length disagrees with n_reps")
    qx, qy = (
        list(accumulate([(u >> 1) ^ -(u & 1) for u in vals[at : at + n]]))
        for at in (n + 1, 2 * n + 1)
    )
    off = vals[3 * n + 1 :]
    s = _SCALE
    return DPFeature(
        tuple(accumulate(vals[1 : n + 1])),
        (tuple([v / s for v in qx]), tuple([v / s for v in qy])),
        (
            tuple([((a if a < b else b) - o) / s for a, b, o in zip(qx, qx[1:], off[0::4])]),
            tuple([((a if a < b else b) - o) / s for a, b, o in zip(qy, qy[1:], off[1::4])]),
            tuple([((b if a < b else a) + o) / s for a, b, o in zip(qx, qx[1:], off[2::4])]),
            tuple([((b if a < b else a) + o) / s for a, b, o in zip(qy, qy[1:], off[3::4])]),
        ),
    ), end


def _read_varint(buf: bytes, pos: int) -> tuple[int, int]:
    """One LEB128 value at ``pos``; a truncated or overlong one is corruption."""
    if pos < len(buf) and buf[pos] < 0x80:  # the common one-byte value
        return buf[pos], pos + 1
    value = shift = 0
    for at in range(pos, min(len(buf), pos + 10)):
        byte = buf[at]
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, at + 1
        shift += 7
    raise CorruptionError("truncated or overlong varint in row")


def _read_text(buf: bytes, pos: int) -> tuple[str, int]:
    """A varint-length-prefixed utf-8 string at ``pos``."""
    n, pos = _read_varint(buf, pos)
    if pos + n > len(buf):
        raise CorruptionError("row id runs past the end of the row")
    return buf[pos : pos + n].decode("utf-8"), pos + n
