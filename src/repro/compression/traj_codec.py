"""The trajectory codec: (t, lng, lat) arrays <-> compressed bytes.

Coordinates are quantized to fixed-point integers (1e-7 degrees, ~1 cm —
finer than any GPS fix, so round-tripping is exact for 7-decimal inputs),
timestamps to milliseconds.  Each array is delta(-of-delta) transformed,
zigzagged, and packed with a selectable integer codec.  The codec name is
recorded in the stream so rows written with different configurations remain
readable.

Encoding is batched: :meth:`TrajectoryCodec.encode_columns` takes a whole
batch's concatenated columns and builds every trajectory's delta /
delta-of-delta / zigzag streams in one set of array passes, then packs
them with the codec's segmented packer; the one-trajectory APIs are
one-element calls into it.  Decoding has one path for every codec:
:meth:`TrajectoryCodec.decode_array_block` unpacks a blob's three streams
with the codec's array unpacker in one call, then zigzag, delta-of-delta /
delta and dequantization run once, vectorized, into float64 columns.
"""

from __future__ import annotations

import struct
from typing import Callable, Sequence

import numpy as np

from repro.compression.columnar import (
    delta_decode_array,
    delta_encode_array,
    delta_of_delta_decode_array,
    delta_of_delta_encode_array,
    varint_encode_segments,
    varint_unpack,
    zigzag_decode_array,
    zigzag_encode_array,
)
from repro.compression.pfor import pfor_encode_segments, pfor_unpack
from repro.compression.simple8b import simple8b_encode_segments, simple8b_unpack
from repro.model.point import STPoint
from repro.model.pointblock import PointBlock

COORD_SCALE = 10_000_000  # 1e-7 degrees per unit
TIME_SCALE = 1000  # milliseconds

CodecName = str

# codec -> (segmented packer: (values, offsets) -> one stream per segment,
#           unpacker: (streams, n) -> (len(streams), n) uint64 values)
_PACKERS: dict[CodecName, tuple[Callable, Callable[[list[bytes], int], np.ndarray]]] = {
    "varint": (varint_encode_segments, varint_unpack),
    "simple8b": (simple8b_encode_segments, simple8b_unpack),
    "pfor": (pfor_encode_segments, pfor_unpack),
}
_BLOB_HEAD = struct.Struct(">BII")  # codec id, point count, first stream length
_U32 = struct.Struct(">I")
# Id 3 belonged to a retired twin of varint; it stays unassigned.
_CODEC_IDS: dict[CodecName, int] = {"varint": 0, "simple8b": 1, "pfor": 2}
_CODEC_NAMES = {v: k for k, v in _CODEC_IDS.items()}


def quantize_arrays(
    ts: np.ndarray, lngs: np.ndarray, lats: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fixed-point quantization, elementwise identical to ``round(v * scale)``.

    ``np.rint`` rounds half-to-even exactly like python's ``round`` on the
    same float64 product; stored rows and their golden bytes depend on these
    integers staying bit-identical.
    """
    t_ints = np.rint(np.asarray(ts, dtype=np.float64) * TIME_SCALE).astype(np.int64)
    x_ints = np.rint(np.asarray(lngs, dtype=np.float64) * COORD_SCALE).astype(np.int64)
    y_ints = np.rint(np.asarray(lats, dtype=np.float64) * COORD_SCALE).astype(np.int64)
    return t_ints, x_ints, y_ints


def dequantize_arrays(
    t_ints: np.ndarray, x_ints: np.ndarray, y_ints: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of :func:`quantize_arrays` (IEEE division, correctly rounded
    while the integers stay within 2^53)."""
    return (
        t_ints / float(TIME_SCALE),
        x_ints / float(COORD_SCALE),
        y_ints / float(COORD_SCALE),
    )


class TrajectoryCodec:
    """Compress and restore trajectory point arrays losslessly.

    >>> codec = TrajectoryCodec("simple8b")
    >>> blob = codec.encode_points([STPoint(0.0, 116.35, 39.98)])
    >>> codec.decode_points(blob)
    [STPoint(t=0.0, lng=116.35, lat=39.98)]
    """

    def __init__(self, codec: CodecName = "simple8b"):
        if codec not in _PACKERS:
            raise ValueError(f"unknown codec {codec!r}; pick one of {sorted(_PACKERS)}")
        self.codec = codec

    # -- array-level API ---------------------------------------------------

    def encode_columns(
        self, ts: np.ndarray, lngs: np.ndarray, lats: np.ndarray, offsets
    ) -> list[bytes]:
        """One blob per segment ``[offsets[i], offsets[i+1])`` of the columns.

        Every trajectory's quantized delta-of-delta (t) and delta (lng, lat)
        streams are built with segmented array passes, zigzagged, and packed
        by one segmented packer call over all three streams of the batch.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        t_ints, x_ints, y_ints = quantize_arrays(ts, lngs, lats)
        values = zigzag_encode_array(np.concatenate((
            delta_of_delta_encode_array(t_ints, offsets),
            delta_encode_array(x_ints, offsets),
            delta_encode_array(y_ints, offsets),
        )))
        n = len(t_ints)
        pack, _ = _PACKERS[self.codec]
        streams = pack(values, np.concatenate((offsets, offsets[1:] + n, offsets[1:] + 2 * n)))
        k = len(offsets) - 1
        cid = _CODEC_IDS[self.codec]
        return [
            b"".join((_BLOB_HEAD.pack(cid, m, len(st)), st, _U32.pack(len(sx)), sx,
                      _U32.pack(len(sy)), sy))
            for m, st, sx, sy in zip(
                np.diff(offsets).tolist(), streams[:k], streams[k : 2 * k], streams[2 * k :]
            )
        ]

    def encode_arrays(
        self, ts: Sequence[float], lngs: Sequence[float], lats: Sequence[float]
    ) -> bytes:
        """Compress parallel (t, lng, lat) arrays into one byte blob."""
        if not (len(ts) == len(lngs) == len(lats)):
            raise ValueError("parallel arrays must have equal length")
        return self.encode_columns(ts, lngs, lats, (0, len(ts)))[0]

    def decode_array_block(self, blob: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Restore (t, lng, lat) as float64 numpy columns, whatever codec id
        ``blob`` carries; ``ValueError`` on a truncated or corrupt blob."""
        if len(blob) < _BLOB_HEAD.size:
            raise ValueError("truncated trajectory blob")
        cid, n, size = _BLOB_HEAD.unpack_from(blob)
        codec_name = _CODEC_NAMES.get(cid)
        if codec_name is None:
            raise ValueError(f"unknown codec id {cid}")
        streams, pos = [], _BLOB_HEAD.size
        for k in range(3):
            if k:
                (size,) = _U32.unpack_from(blob, pos)
                pos += _U32.size
            if pos + size > len(blob):
                raise ValueError("truncated trajectory blob")
            streams.append(blob[pos : pos + size])
            pos += size
        ints = zigzag_decode_array(_PACKERS[codec_name][1](streams, n))
        return dequantize_arrays(
            delta_of_delta_decode_array(ints[0]), *delta_decode_array(ints[1:])
        )

    # -- point-level API ---------------------------------------------------

    def encode_points(self, points: Sequence[STPoint]) -> bytes:
        """Compress a point sequence."""
        block = PointBlock.from_points(points)
        return self.encode_arrays(block.ts, block.xs, block.ys)

    def decode_points(self, blob: bytes) -> list[STPoint]:
        """Restore the point sequence from :meth:`encode_points` output."""
        ts, lngs, lats = self.decode_array_block(blob)
        return [
            STPoint(t, lng, lat) for t, lng, lat in zip(ts.tolist(), lngs.tolist(), lats.tolist())
        ]
