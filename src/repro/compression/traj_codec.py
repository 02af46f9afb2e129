"""The trajectory codec: (t, lng, lat) arrays <-> compressed bytes.

Coordinates are quantized to fixed-point integers (1e-7 degrees, ~1 cm —
finer than any GPS fix, so round-tripping is exact for 7-decimal inputs),
timestamps to milliseconds.  Each array is delta(-of-delta) transformed and
zigzagged, and a blob is ``varint n`` and one section of the three streams
packed by the row's one packer (:mod:`repro.compression.bitpack`), with the
first two t values and the first x and y value as varint heads.  Each
stream's first value is stored relative to an integer *origin* the caller
supplies and must supply again to decode: the row serializer passes the
quantized ``t_start`` and MBR corner its own header already holds, so the
first timestamp and coordinates cost a byte or three instead of eight.  The
standalone API (:meth:`TrajectoryCodec.encode_arrays`, ``encode_points`` /
``decode_points``) uses origin 0, so its blobs are self-contained.

:meth:`TrajectoryCodec.encode_columns` encodes a whole batch's concatenated
columns with segmented array passes and one packing call (the one-trajectory
APIs are one-element calls into it); :meth:`TrajectoryCodec.decode_array_block`
unpacks a blob's three streams in one pass, then zigzag, delta-of-delta /
delta and dequantization run once, vectorized, into float64 columns.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.compression.bitpack import pack, unpack_array
from repro.compression.columnar import (
    delta_decode_array,
    delta_encode_array,
    delta_of_delta_decode_array,
    delta_of_delta_encode_array,
    zigzag_decode_array,
    zigzag_encode_array,
)
from repro.compression.varint import decode_varint
from repro.model.point import STPoint
from repro.model.pointblock import PointBlock

COORD_SCALE = 10_000_000  # 1e-7 degrees per unit
TIME_SCALE = 1000  # milliseconds

CODEC = "bitpack"
# Values of each stream (t, x, y) that go out as varints ahead of the body.
_HEADS = (2, 1, 1)


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

    >>> codec = TrajectoryCodec("bitpack")
    >>> blob = codec.encode_points([STPoint(0.0, 116.35, 39.98)])
    >>> codec.decode_points(blob)
    [STPoint(t=0.0, lng=116.35, lat=39.98)]
    """

    def __init__(self, codec: str = CODEC):
        """``codec`` names the packer, so callers passing
        ``TManConfig.codec`` keep working; only ``"bitpack"`` is one."""
        if codec != CODEC:
            raise ValueError(f"unknown codec {codec!r}; rows are packed with {CODEC!r}")

    # -- array-level API ---------------------------------------------------

    def encode_columns(
        self, ts: np.ndarray, lngs: np.ndarray, lats: np.ndarray, offsets, origins=None
    ) -> list[bytes]:
        """One blob per segment ``[offsets[i], offsets[i+1])`` of the columns.

        Every trajectory's quantized delta-of-delta (t) and delta (lng, lat)
        streams are built with segmented array passes, zigzagged, and packed
        by one call over all three streams of the batch.
        ``origins`` (one ``(t, x, y)`` integer row per segment, default 0)
        is subtracted from each segment's first t, x and y value.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        t_ints, x_ints, y_ints = quantize_arrays(ts, lngs, lats)
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
        return pack([zigzag_encode_array(stream) for stream in streams], (offsets,) * 3,
                    _HEADS, np.diff(offsets).tolist())

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
        ``ValueError`` on a truncated or corrupt blob, ``OverflowError`` on
        an origin past 64 bits."""
        n, pos = decode_varint(blob, 0)
        ints = zigzag_decode_array(unpack_array(blob, pos, (n, n, n), _HEADS).reshape(3, n))
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

