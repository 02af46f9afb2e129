"""The trajectory codec: (t, lng, lat) arrays <-> compressed bytes.

Coordinates are quantized to fixed-point integers (1e-7 degrees, ~1 cm —
finer than any GPS fix, so round-tripping is exact for 7-decimal inputs),
timestamps to milliseconds.  Each array is delta(-of-delta) transformed,
zigzagged, and packed with a selectable integer codec.  The codec id is
recorded in the blob so rows written with different configurations remain
readable.

A blob states each fact once::

    codec id (1 B) | varint n | varint len(t) | varint len(x) | t | x | y

``n`` is the point count of all three streams, so no stream carries its
own count, and the y stream runs to the end of the blob.  Each stream's
first value is stored relative to an integer *origin* the caller supplies
and must supply again to decode: the row serializer passes the quantized
``t_start`` and MBR corner its own header already holds, so the first
timestamp and coordinates cost a few bits instead of 30 or 60.  The
standalone API (:meth:`TrajectoryCodec.encode_arrays`, ``encode_points`` /
``decode_points``) uses origin 0, so its blobs are self-contained.

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

from typing import Callable, Optional, Sequence

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
from repro.compression.varint import decode_varint, encode_varint
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
        self, ts: np.ndarray, lngs: np.ndarray, lats: np.ndarray, offsets, origins=None
    ) -> list[bytes]:
        """One blob per segment ``[offsets[i], offsets[i+1])`` of the columns.

        Every trajectory's quantized delta-of-delta (t) and delta (lng, lat)
        streams are built with segmented array passes, zigzagged, and packed
        by one segmented packer call over all three streams of the batch.
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
        pack, _ = _PACKERS[self.codec]
        packed = pack(values, np.concatenate((offsets, offsets[1:] + n, offsets[1:] + 2 * n)))
        k = len(offsets) - 1
        cid = _CODEC_IDS[self.codec]
        blobs = []
        for m, st, sx, sy in zip(
            np.diff(offsets).tolist(), packed[:k], packed[k : 2 * k], packed[2 * k :]
        ):
            out = bytearray((cid,))
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
        """Restore (t, lng, lat) as float64 numpy columns, whatever codec id
        ``blob`` carries; ``origin`` is the ``(t, x, y)`` integer origin it
        was encoded with (default 0).  ``ValueError`` on a truncated or
        corrupt blob, ``OverflowError`` on an origin past 64 bits."""
        if not blob:
            raise ValueError("truncated trajectory blob")
        codec_name = _CODEC_NAMES.get(blob[0])
        if codec_name is None:
            raise ValueError(f"unknown codec id {blob[0]}")
        n, pos = decode_varint(blob, 1)
        t_len, pos = decode_varint(blob, pos)
        x_len, pos = decode_varint(blob, pos)
        x_at = pos + t_len
        y_at = x_at + x_len
        if y_at > len(blob):
            raise ValueError("truncated trajectory blob")
        streams = [blob[pos:x_at], blob[x_at:y_at], blob[y_at:]]
        ints = zigzag_decode_array(_PACKERS[codec_name][1](streams, n))
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

