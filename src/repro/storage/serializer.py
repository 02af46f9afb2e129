"""Row value serialization for the primary table.

Figure 11 of the paper stores per row: ``oid``, ``tid``, compressed
``points``, the ``tr`` index value, and DP ``features``.  The layout here
front-loads a fixed-size header (time range + MBR) so push-down filters can
evaluate coarse predicates without decompressing anything, then the
DP-features (for the spatial/similarity refinement ladder), then the
compressed point arrays.  One layout, version 2::

    magic(1) version(1)=2
    t_start f64  t_end f64  mbr x1 y1 x2 y2 (4 × f64)
    tr_value varint
    oid (varint len + utf8)   tid (varint len + utf8)
    feat_len varint           -- byte length of the feature section (O(1) skip)
    features: n_reps varint, then 8 count-prefixed varint streams:
              rep indexes (delta), rep t/x/y (quantized, delta+zigzag),
              span-box x1/y1/x2/y2 (quantized outward, delta+zigzag)
    points: varint len + configured codec blob (codec id on the wire;
            every codec id decodes through one vectorized path)

Feature values are quantized on the same fixed-point grids as the point
codec (rounded outward for the boxes, so they stay sound covers for both
raw and decoded points).  A row with any other version byte is rejected as
corrupt, as is any row whose bytes do not parse: every decode entry point
raises :class:`CorruptionError` and nothing else.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from repro.compression.columnar import (
    delta_encode_array,
    varint_encode_segments,
    zigzag_encode_array,
)
from repro.compression.traj_codec import (
    COORD_SCALE,
    TIME_SCALE,
    TrajectoryCodec,
)
from repro.compression.varint import encode_varint
from repro.geometry.dp import DPFeature, dp_feature_columns
from repro.kvstore.errors import CorruptionError
from repro.model.mbr import MBR
from repro.model.pointblock import PointBlock
from repro.model.timerange import TimeRange
from repro.model.trajectory import Trajectory

MAGIC = 0x54  # 'T'
VERSION = 2
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
        features = _encode_features(ts, xs, ys, offsets, self.dp_epsilon)
        # The configured codec packs the point streams (its compression
        # ratio is orthogonal to the feature layout); decode_array_block
        # reads every codec id back as columns.
        blobs = self.codec.encode_columns(ts, xs, ys, offsets)
        rows = []
        for traj, tr_value, feat, blob in zip(trajs, tr_values, features, blobs):
            out = bytearray([MAGIC, VERSION])
            tr = traj.time_range
            m = traj.mbr
            out += _HEADER.pack(tr.start, tr.end, m.x1, m.y1, m.x2, m.y2)
            encode_varint(tr_value, out)
            for text in (traj.oid, traj.tid):
                raw = text.encode("utf-8")
                encode_varint(len(raw), out)
                out += raw
            encode_varint(len(feat), out)
            out += feat
            encode_varint(len(blob), out)
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
        blob_len, pos = _read_varint(buf, pos)
        if pos + blob_len > len(buf):
            raise CorruptionError("point blob runs past the end of the row")
        try:
            ts, xs, ys = self.codec.decode_array_block(buf[pos : pos + blob_len])
        except (ValueError, IndexError, struct.error) as exc:
            raise CorruptionError(f"corrupt point blob: {exc}") from exc
        return Trajectory(header.oid, header.tid, PointBlock(ts, xs, ys), validate=False)

    def decode_points(self, buf: bytes) -> PointBlock:
        """Decode just the raw point sequence (exact-filter path) as a
        lazily-materializing :class:`PointBlock`."""
        return self.decode_trajectory(buf).trajectory.block


# -- feature codec ------------------------------------------------------


def _encode_features(ts, xs, ys, offsets, epsilon: float) -> list[bytes]:
    """Every row's feature section (``n_reps``, then eight count-prefixed
    streams) from one DP pass and one segmented varint call over the batch;
    segments are stream-major, so row ``i``'s stream ``s`` is ``s*rows + i``."""
    reps, rep_off, boxes = dp_feature_columns(xs, ys, offsets, epsilon)
    box_off = rep_off - np.arange(len(rep_off))  # one box per pair of reps
    local = reps - np.repeat(offsets[:-1], np.diff(rep_off))
    # reps quantized on the point grids: decoded reps == decoded points[idx]
    streams = [
        delta_encode_array(local, rep_off).astype(np.uint64),
        *(
            zigzag_encode_array(delta_encode_array(
                np.rint(col[reps] * scale).astype(np.int64), rep_off))
            for col, scale in ((ts, TIME_SCALE), (xs, COORD_SCALE), (ys, COORD_SCALE))
        ),
        # boxes rounded outward so they keep covering raw and decoded points
        *(
            zigzag_encode_array(delta_encode_array(
                outward(col * COORD_SCALE).astype(np.int64), box_off))
            for col, outward in zip(boxes, (np.floor, np.floor, np.ceil, np.ceil))
        ),
    ]
    starts = np.cumsum([0] + [len(stream) for stream in streams])
    seg_off = np.concatenate(
        [off[:-1] + start for off, start in zip([rep_off] * 4 + [box_off] * 4, starts)]
        + [starts[-1:]]
    )
    segs = varint_encode_segments(np.concatenate(streams), seg_off)
    k = len(offsets) - 1
    out = []
    for i, n_reps in enumerate(np.diff(rep_off).tolist()):
        head = bytearray()
        encode_varint(n_reps, head)
        out.append(b"".join((head, *segs[i::k])))
    return out


def _feature_span(buf: bytes, header: RowHeader) -> tuple[int, int]:
    """``(start, end)`` of the row's feature section."""
    feat_len, start = _read_varint(buf, header.body_offset)
    end = start + feat_len
    if end > len(buf):
        raise CorruptionError("feature section runs past the end of the row")
    return start, end


_SCALES = (float(TIME_SCALE),) + (float(COORD_SCALE),) * 6  # rep t/x/y, box x1/y1/x2/y2


def _decode_feature(buf: bytes, header: RowHeader) -> tuple[DPFeature, int]:
    """The row's DP-feature and where its feature section ends, in one LEB128
    pass: every value of the section, then ``n_reps`` and the eight
    count-prefixed streams sliced out."""
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
    n_reps = vals[0]
    streams, at = [], 1
    for count in (n_reps,) * 4 + (n_reps - 1,) * 4:
        if vals[at : at + 1] != [count]:
            raise CorruptionError("corrupt feature section: stream count mismatch")
        streams.append(vals[at + 1 : at + 1 + count])
        at += 1 + count
    if at != len(vals):
        raise CorruptionError("corrupt feature section: stream runs past feat_len")
    t, x, y, x1, y1, x2, y2 = (
        tuple([v / scale for v in accumulate([(u >> 1) ^ -(u & 1) for u in stream])])
        for stream, scale in zip(streams[1:], _SCALES)
    )
    return DPFeature(tuple(accumulate(streams[0])), (t, x, y), (x1, y1, x2, y2)), end


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
