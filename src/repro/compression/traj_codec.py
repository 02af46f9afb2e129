"""The trajectory codec: (t, lng, lat) arrays <-> compressed bytes.

Coordinates are quantized to fixed-point integers (1e-7 degrees, ~1 cm —
finer than any GPS fix, so round-tripping is exact for 7-decimal inputs),
timestamps to milliseconds.  Each array is delta(-of-delta) transformed,
zigzagged, and packed with simple8b, the one integer packer rows use.

A blob states each fact once::

    codec id (1 B, always 1) | varint n | varint len(t) | varint len(x) | t | x | y

The leading byte is simple8b's id from when rows could name other
packers; a blob whose first byte is anything else is rejected.  ``n`` is
the point count of all three streams, so no stream carries its own count,
and the y stream runs to the end of the blob.  Each stream's first value
is stored relative to an integer *origin* the caller supplies and must
supply again to decode: the row serializer passes the quantized
``t_start`` and MBR corner its own header already holds, so the first
timestamp and coordinates cost a few bits instead of 30 or 60.  The
standalone API (:meth:`TrajectoryCodec.encode_arrays`, ``encode_points`` /
``decode_points``) uses origin 0, so its blobs are self-contained.

Encoding is batched: :meth:`TrajectoryCodec.encode_columns` takes a whole
batch's concatenated columns and builds every trajectory's delta /
delta-of-delta / zigzag streams in one set of array passes, then packs
them with one segmented simple8b call; the one-trajectory APIs are
one-element calls into it.  :meth:`TrajectoryCodec.decode_array_block`
unpacks a blob's three streams in one call, then zigzag, delta-of-delta /
delta and dequantization run once, vectorized, into float64 columns.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.compression.columnar import (
    delta_decode_array,
    delta_encode_array,
    delta_of_delta_decode_array,
    delta_of_delta_encode_array,
    zigzag_decode_array,
    zigzag_encode_array,
)
from repro.compression.simple8b import simple8b_encode_segments, simple8b_unpack
from repro.compression.varint import decode_varint, encode_varint
from repro.model.point import STPoint
from repro.model.pointblock import PointBlock

COORD_SCALE = 10_000_000  # 1e-7 degrees per unit
TIME_SCALE = 1000  # milliseconds

CODEC = "simple8b"
# Every blob's first byte.  It was simple8b's id among several packers' and
# stays, so stored rows are byte-identical; any other first byte is corrupt.
_CODEC_ID = 1


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

    def __init__(self, codec: str = CODEC):
        """``codec`` names the packer, so callers passing
        ``TManConfig.codec`` keep working; only ``"simple8b"`` is one."""
        if codec != CODEC:
            raise ValueError(f"unknown codec {codec!r}; rows are packed with {CODEC!r}")

    # -- array-level API ---------------------------------------------------

    def encode_columns(
        self, ts: np.ndarray, lngs: np.ndarray, lats: np.ndarray, offsets, origins=None
    ) -> list[bytes]:
        """One blob per segment ``[offsets[i], offsets[i+1])`` of the columns.

        Every trajectory's quantized delta-of-delta (t) and delta (lng, lat)
        streams are built with segmented array passes, zigzagged, and packed
        by one segmented simple8b call over all three streams of the batch.
        ``origins`` (one ``(t, x, y)`` integer row per segment, default 0)
        is subtracted from each segment's first t, x and y value.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        t_ints, x_ints, y_ints = quantize_arrays(ts, lngs, lats)
        n = len(t_ints)
        streams = [
            delta_of_delta_encode_array(t_ints, offsets),
            delta_encode_array(x_ints, offsets),
            delta_encode_array(y_ints, offsets),
        ]
        if origins is not None:
            origins = np.asarray(origins, dtype=np.int64).reshape(-1, 3)
            full = offsets[:-1] < offsets[1:]
            for k, stream in enumerate(streams):
                stream[offsets[:-1][full]] -= origins[full, k]
        values = zigzag_encode_array(np.concatenate(streams))
        packed = simple8b_encode_segments(
            values, np.concatenate((offsets, offsets[1:] + n, offsets[1:] + 2 * n))
        )
        k = len(offsets) - 1
        blobs = []
        for m, st, sx, sy in zip(
            np.diff(offsets).tolist(), packed[:k], packed[k : 2 * k], packed[2 * k :]
        ):
            out = bytearray((_CODEC_ID,))
            for value in (m, len(st), len(sx)):
                encode_varint(value, out)
            blobs.append(b"".join((out, st, sx, sy)))
        return blobs

    def encode_arrays(
        self, ts: Sequence[float], lngs: Sequence[float], lats: Sequence[float]
    ) -> bytes:
        """Compress parallel (t, lng, lat) arrays into one self-contained
        byte blob (origin 0)."""
        if not (len(ts) == len(lngs) == len(lats)):
            raise ValueError("parallel arrays must have equal length")
        return self.encode_columns(ts, lngs, lats, (0, len(ts)))[0]

    def decode_array_block(
        self, blob: bytes, origin: Optional[tuple[int, int, int]] = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Restore (t, lng, lat) as float64 numpy columns; ``origin`` is the
        ``(t, x, y)`` integer origin ``blob`` was encoded with (default 0).
        ``ValueError`` on a truncated or corrupt blob or one whose first
        byte is not simple8b's id, ``OverflowError`` on an origin past 64
        bits."""
        if not blob:
            raise ValueError("truncated trajectory blob")
        if blob[0] != _CODEC_ID:
            raise ValueError(f"unknown codec id {blob[0]}")
        n, pos = decode_varint(blob, 1)
        t_len, pos = decode_varint(blob, pos)
        x_len, pos = decode_varint(blob, pos)
        x_at = pos + t_len
        y_at = x_at + x_len
        if y_at > len(blob):
            raise ValueError("truncated trajectory blob")
        streams = [blob[pos:x_at], blob[x_at:y_at], blob[y_at:]]
        ints = zigzag_decode_array(simple8b_unpack(streams, n))
        if origin is not None and n:
            ints[:, 0] += np.array(origin, dtype=np.int64)
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

