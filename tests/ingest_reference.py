"""Reference kernels for the row codec's batched encoders and one-pass decoder.

These are the implementations the row codec ran before it was batched
(simple8b's greedy ``_fits`` loop, recursive Douglas-Peucker with one
farthest-point search per span), the v2 feature decoder that ran one pass
per stream, and converters between row versions 2 to 6: versions 2 and 3
differ only in the feature section, versions 3 and 4 only in the point
blob, versions 4 and 5 in the ``tr_value`` varint and the feature
section's first values, versions 5 and 6 in how the feature section and
the point blob pack the same integers.  They live here, not under
``src/``, purely as the oracle the kernels are checked against; the
converters let rows pinned in version 2
(``tests/data/ingest_parent/golden.npz``) check version 6 rows.
"""

from __future__ import annotations

import struct
from itertools import accumulate

import numpy as np

from repro.compression.traj_codec import COORD_SCALE, TIME_SCALE
from repro.compression.varint import decode_varint, encode_varint
from repro.model.mbr import MBR
from repro.model.point import STPoint

from .codec_reference import (
    SELECTORS,
    decode_blob,
    decode_frame,
    encode_blob,
    decode_varint_list,
    delta_of_delta_decode,
    encode_varint_list,
    encode_varints,
    pack_section,
    simple8b_decode,
    unpack_section,
    zigzag_decode,
    zigzag_encode,
)


def simple8b_encode(values: list[int]) -> bytes:
    for v in values:
        if v < 0:
            raise ValueError(f"simple8b values must be non-negative, got {v}")
        if v > (1 << 60) - 1:
            raise ValueError(f"value {v} exceeds 60 bits; pre-transform the stream")

    def fits(start: int, count: int, bits: int) -> bool:
        if start + count > len(values):
            return False
        return all(values[start + i] < (1 << bits) for i in range(count))

    words = []
    i = 0
    while i < len(values):
        for sel, count, bits in SELECTORS:
            if fits(i, count, bits):
                word = sel << 60
                for j in range(count if bits else 0):
                    word |= values[i + j] << (j * bits)
                words.append(word)
                i += count
                break
    return b"".join(struct.pack(">Q", w) for w in words)


def perpendicular_distance(
    px: float, py: float, ax: float, ay: float, bx: float, by: float
) -> float:
    """Distance from point P to segment AB.

    ``np.hypot`` on scalars: the same libm routine the kernel runs on arrays
    (``math.hypot`` may round differently in the last place).
    """
    dx, dy = bx - ax, by - ay
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq == 0.0:
        return np.hypot(px - ax, py - ay)
    t = min(1.0, max(0.0, ((px - ax) * dx + (py - ay) * dy) / seg_len_sq))
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


def douglas_peucker(xs: list[float], ys: list[float], epsilon: float) -> list[int]:
    """Kept indexes; of tied farthest points a span splits at the one
    nearest its middle, the first of two as near."""
    n = len(xs)
    if n <= 2:
        return list(range(n))
    keep = {0, n - 1}
    stack = [(0, n - 1)]
    while stack:
        lo, hi = stack.pop()
        if hi <= lo + 1:
            continue
        best, best_idx = -1.0, lo
        for i in range(lo + 1, hi):
            d = perpendicular_distance(xs[i], ys[i], xs[lo], ys[lo], xs[hi], ys[hi])
            if d > best or (d == best and abs(2 * i - lo - hi) < abs(2 * best_idx - lo - hi)):
                best, best_idx = d, i
        if best > epsilon:
            keep.add(best_idx)
            stack += [(lo, best_idx), (best_idx, hi)]
    return sorted(keep)


def decode_feature_v2(buf: bytes, pos: int):
    """The v2 feature section at ``pos`` (just past ``feat_len``), decoded
    one stream at a time: ``(rep_points, rep_indexes, span_boxes,
    box_arrays)`` exactly as the pre-columnar ``DPFeature`` held them."""
    n_reps, pos = decode_varint(buf, pos)
    raw_idx, pos = decode_varint_list(buf, pos)
    idx = np.cumsum(np.array(raw_idx, dtype=np.int64))
    streams = []
    for _ in range(7):
        vals, pos = decode_varint_list(buf, pos)
        streams.append(np.cumsum(np.array([zigzag_decode(v) for v in vals], dtype=np.int64)))
    rt = streams[0] / float(TIME_SCALE)
    rx = streams[1] / float(COORD_SCALE)
    ry = streams[2] / float(COORD_SCALE)
    bx1, by1, bx2, by2 = (s / float(COORD_SCALE) for s in streams[3:7])
    assert len(idx) == len(rt) == len(rx) == len(ry) == n_reps
    reps = tuple(
        STPoint(t, x, y) for t, x, y in zip(rt.tolist(), rx.tolist(), ry.tolist())
    )
    boxes = tuple(
        MBR(x1, y1, x2, y2)
        for x1, y1, x2, y2 in zip(bx1.tolist(), by1.tolist(), bx2.tolist(), by2.tolist())
    )
    return reps, tuple(int(i) for i in idx), boxes, (bx1, by1, bx2, by2)


# -- row versions 2 and 3 ----------------------------------------------------
#
# Both versions share the header, the ids and the point blob byte for byte.
# v2 features: n_reps, then eight count-prefixed streams: rep indexes
# (delta), rep t / x / y (delta+zigzag) and box x1 / y1 / x2 / y2, each box
# edge delta+zigzag from the previous box's.  v3 features: n_reps, the rep
# indexes and rep x / y as in v2 without counts, then per span the four
# offsets of its box edges outward from its two reps.  v2's rep t is the
# blob's quantized timestamp at the rep's index.


def _split_row(row: bytes) -> tuple[bytes, bytes, bytes]:
    """``(head, features, tail)``: everything up to ``feat_len``, the
    feature section, and the rest of the row (the point blob; in versions 2
    and 3 behind its length prefix)."""
    pos = 2 + 48
    if row[1] < 5:
        _, pos = decode_varint(row, pos)  # tr_value
    for _ in range(2):  # oid, tid
        n, pos = decode_varint(row, pos)
        pos += n
    feat_len, start = decode_varint(row, pos)
    return row[:pos], row[start : start + feat_len], row[start + feat_len :]


def _join_row(head: bytes, version: int, features: bytes, tail: bytes) -> bytes:
    out = bytearray(head)
    out[1] = version
    encode_varint(len(features), out)
    return bytes(out) + features + tail


def _running(deltas: list[int]) -> list[int]:
    return list(accumulate(zigzag_decode(v) for v in deltas))


def _deltas(values: list[int]) -> list[int]:
    return [zigzag_encode(b - a) for a, b in zip([0] + values, values)]


def row_v2_to_v3(row: bytes) -> bytes:
    """A version 2 row rewritten as the version 3 row of the same trajectory."""
    head, features, tail = _split_row(row)
    assert row[1] == 2, row[1]
    n_reps, pos = decode_varint(features, 0)
    streams = []
    for _ in range(8):
        vals, pos = decode_varint_list(features, pos)
        streams.append(vals)
    assert pos == len(features)
    idx, _t, xd, yd = streams[:4]
    qx, qy = _running(xd), _running(yd)
    x1, y1, x2, y2 = (_running(s) for s in streams[4:])
    out = bytearray()
    for value in [n_reps, *idx, *xd, *yd]:
        encode_varint(value, out)
    for k in range(n_reps - 1):
        for value in (min(qx[k], qx[k + 1]) - x1[k], min(qy[k], qy[k + 1]) - y1[k],
                      x2[k] - max(qx[k], qx[k + 1]), y2[k] - max(qy[k], qy[k + 1])):
            assert value >= 0
            encode_varint(value, out)
    return _join_row(head, 3, bytes(out), tail)


def row_v3_to_v2(row: bytes) -> bytes:
    """A version 3 row rewritten as the version 2 row of the same trajectory."""
    head, features, tail = _split_row(row)
    assert row[1] == 3, row[1]
    vals, pos = [], 0
    while pos < len(features):
        value, pos = decode_varint(features, pos)
        vals.append(value)
    n = vals[0]
    assert len(vals) == 7 * n - 3
    idx, xd, yd = vals[1 : n + 1], vals[n + 1 : 2 * n + 1], vals[2 * n + 1 : 3 * n + 1]
    qx, qy = _running(xd), _running(yd)
    t_ints = delta_of_delta_decode(_v3_blob(tail)[1][0])
    qt = [t_ints[i] for i in accumulate(idx)]
    off = vals[3 * n + 1 :]
    boxes = (
        [min(a, b) - o for a, b, o in zip(qx, qx[1:], off[0::4])],
        [min(a, b) - o for a, b, o in zip(qy, qy[1:], off[1::4])],
        [max(a, b) + o for a, b, o in zip(qx, qx[1:], off[2::4])],
        [max(a, b) + o for a, b, o in zip(qy, qy[1:], off[3::4])],
    )
    out = bytearray()
    encode_varint(n, out)
    for stream in (idx, _deltas(qt), xd, yd, *map(_deltas, boxes)):
        out += encode_varint_list(stream)
    return _join_row(head, 2, bytes(out), tail)


# -- row versions 3 and 4 ----------------------------------------------------
#
# Both versions share the header, the ids and the feature section byte for
# byte, and their point blobs pack the same deltas with simple8b (codec id
# 1; the converters take no other), apart from each stream's first value.
# v3: the blob behind its varint length; a ``>BII`` head (codec id, n, t
# stream length), the t stream, then the x and y streams each behind a
# ``>I`` length; each stream opens with its own ``>I`` count; first values
# are absolute.  v4: the blob to the end of the row; codec id, then varints
# n, len(t), len(x); streams without counts; first values counted from the
# header's quantized t_start, x1, y1.


def _v3_blob(tail: bytes) -> tuple[int, list[list[int]]]:
    """A v3 row's tail (length-prefixed blob) as n and the three streams'
    signed values (first values absolute)."""
    blob_len, pos = decode_varint(tail, 0)
    assert pos + blob_len == len(tail)
    cid, n, size = struct.unpack_from(">BII", tail, pos)
    assert cid == 1, cid
    pos += 9
    streams = []
    for k in range(3):
        if k:
            (size,) = struct.unpack_from(">I", tail, pos)
            pos += 4
        assert tail[pos : pos + 4] == struct.pack(">I", n)
        streams.append(tail[pos + 4 : pos + size])
        pos += size
    assert pos == len(tail)
    return n, [[zigzag_decode(v) for v in simple8b_decode(st, n)] for st in streams]


def _origin(row: bytes) -> tuple[int, int, int]:
    """The row's point origin: its header's t_start, x1 and y1, quantized."""
    t_start, _, x1, y1, _, _ = struct.unpack_from(">dddddd", row, 2)
    return round(t_start * TIME_SCALE), round(x1 * COORD_SCALE), round(y1 * COORD_SCALE)


def _shift_firsts(signed: list[list[int]], origin, sign: int) -> list[list[int]]:
    return [[v[0] + sign * o, *v[1:]] if v else v for v, o in zip(signed, origin)]


def row_v3_to_v4(row: bytes) -> bytes:
    """A version 3 row rewritten as the version 4 row of the same trajectory:
    the blob re-framed from its decoded integers; header, ids and features
    byte for byte."""
    head, features, tail = _split_row(row)
    assert row[1] == 3, row[1]
    n, signed = _v3_blob(tail)
    t, x, y = (
        simple8b_encode([zigzag_encode(v) for v in values])
        for values in _shift_firsts(signed, _origin(row), -1)
    )
    blob = bytes([1]) + encode_varints([n, len(t), len(x)]) + t + x + y
    return _join_row(head, 4, features, blob)


def row_v4_to_v3(row: bytes) -> bytes:
    """A version 4 row rewritten as the version 3 row of the same trajectory."""
    head, features, blob = _split_row(row)
    assert row[1] == 4, row[1]
    n, streams = decode_frame(blob)
    signed = [[zigzag_decode(v) for v in simple8b_decode(st, n)] for st in streams]
    t, x, y = (
        struct.pack(">I", n) + simple8b_encode([zigzag_encode(v) for v in values])
        for values in _shift_firsts(signed, _origin(row), 1)
    )
    blob = (struct.pack(">BII", 1, n, len(t)) + t + struct.pack(">I", len(x)) + x
            + struct.pack(">I", len(y)) + y)
    return _join_row(head, 3, features, encode_varints([len(blob)]) + blob)


# -- row versions 4 and 5 ----------------------------------------------------
#
# Both versions share the f64 header, the ids and the point blob byte for
# byte.  v4: a ``tr_value`` varint between the header and the ids; the
# feature section holds every rep index (the first is always 0) and its
# first rep x / y absolute.  v5: no ``tr_value`` (a function of the
# header's time range); no first rep index; the first rep x / y counted from
# the header's quantized x1 / y1, the blob's origin.


def _features(features: bytes) -> list[int]:
    vals, pos = [], 0
    while pos < len(features):
        value, pos = decode_varint(features, pos)
        vals.append(value)
    return vals


def _shift_first_reps(vals: list[int], at: int, n: int, origin, sign: int) -> list[int]:
    """``vals`` with the first value of the rep x and y runs (at ``at`` and
    ``at + n``) moved by ``sign`` times the origin's x and y."""
    out = list(vals)
    for k, o in zip((at, at + n), origin[1:]):
        out[k] = zigzag_encode(zigzag_decode(out[k]) + sign * o)
    return out


def row_v4_to_v5(row: bytes) -> bytes:
    """A version 4 row rewritten as the version 5 row of the same trajectory."""
    head, features, blob = _split_row(row)
    assert row[1] == 4, row[1]
    _, ids_at = decode_varint(row, 2 + 48)  # drop tr_value
    vals = _features(features)
    n = vals[0]
    assert len(vals) == 7 * n - 3 and vals[1] == 0
    vals = _shift_first_reps([n, *vals[2:]], n, n, _origin(row), -1)
    out = bytearray()
    for value in vals:
        encode_varint(value, out)
    return _join_row(head[:50] + head[ids_at:], 5, bytes(out), blob)


def row_v5_to_v4(row: bytes, tr_value: int) -> bytes:
    """A version 5 row as the version 4 row of the same trajectory, stored
    under ``tr_value``."""
    head, features, blob = _split_row(row)
    assert row[1] == 5, row[1]
    vals = _features(features)
    n = vals[0]
    assert len(vals) == 7 * n - 4
    vals = _shift_first_reps([n, 0, *vals[1:]], n + 1, n, _origin(row), 1)
    out = bytearray()
    for value in vals:
        encode_varint(value, out)
    return _join_row(head[:50] + encode_varints([tr_value]) + head[50:], 4, bytes(out), blob)


# -- row versions 5 and 6 ----------------------------------------------------
#
# Both versions share the f64 header and the ids, and their feature
# sections and point blobs hold the same integers, packed differently.  v5:
# the feature section is LEB128 values (n_reps, the rep index deltas, rep x,
# rep y, and each span's four box offsets); the blob is the simple8b frame
# (``decode_frame``).  v6: the feature section is varint n_reps and one
# packed section of three streams (the index deltas; the reps' x and y in
# turn, the first two as heads; the box offsets span by span); the blob is
# varint n and one packed section of the t, x and y streams
# (``decode_blob``).


def row_v5_to_v6(row: bytes) -> bytes:
    """A version 5 row rewritten as the version 6 row of the same trajectory."""
    head, features, blob = _split_row(row)
    assert row[1] == 5, row[1]
    vals = _features(features)
    n = vals[0]
    assert len(vals) == 7 * n - 4
    xs, ys = vals[n : 2 * n], vals[2 * n : 3 * n]
    reps = [v for pair in zip(xs, ys) for v in pair]
    section = encode_varints([n]) + pack_section(
        [vals[1:n], reps, vals[3 * n :]], (0, 2, 0))
    count, streams = decode_frame(blob)
    points = encode_blob([simple8b_decode(stream, count) for stream in streams])
    return _join_row(head, 6, section, points)


def row_v6_to_v5(row: bytes) -> bytes:
    """A version 6 row as the version 5 row of the same trajectory."""
    head, features, blob = _split_row(row)
    assert row[1] == 6, row[1]
    n, pos = decode_varint(features, 0)
    index_deltas, reps, offsets = unpack_section(
        features, pos, len(features), (n - 1, 2 * n, 4 * n - 4), (0, 2, 0))
    section = encode_varints([n, *index_deltas, *reps[0::2], *reps[1::2], *offsets])
    count, streams = decode_blob(blob)
    t, x, y = (simple8b_encode(stream) for stream in streams)
    points = bytes([1]) + encode_varints([count, len(t), len(x)]) + t + x + y
    return _join_row(head, 5, section, points)


def row_v2_to_v5(row: bytes) -> bytes:
    """A version 2 row (the golden fixtures' version) as a version 5 row."""
    return row_v4_to_v5(row_v3_to_v4(row_v2_to_v3(row)))


def row_v2_to_v6(row: bytes) -> bytes:
    """A version 2 row as a version 6 row."""
    return row_v5_to_v6(row_v2_to_v5(row))


def row_v6_to_v2(row: bytes, tr_value: int) -> bytes:
    """A version 6 row as the version 2 row of the same trajectory, stored
    under ``tr_value``."""
    return row_v3_to_v2(row_v4_to_v3(row_v5_to_v4(row_v6_to_v5(row), tr_value)))
