"""Scalar reference codecs for the trajectory codec and the row's packer.

These are python-list implementations walked one value (or one bit) at a
time: zigzag, delta and delta-of-delta transforms, count-prefixed varint
lists, varint, simple8b and PFOR streams of a known count, and the row's
patched bit packing (:func:`pack_section`, :func:`unpack_section`, read
through their own :class:`BitReader`), with :func:`decode_arrays`, the
point blob decoder built from them.  They live here, not under ``src/``,
as the oracle the vectorized codecs are checked against: the bit packer
in ``repro.compression.bitpack`` (the one packer rows use), and the codec
menu's LEB128, simple8b and PFOR packers in ``benchmarks/``
(``varint_stream.py``, ``simple8b.py``, ``pfor.py``).
"""

from __future__ import annotations

import struct
from typing import Optional, Sequence

from repro.compression.traj_codec import COORD_SCALE, TIME_SCALE
from repro.compression.varint import encode_varint

# (selector, values-per-word, bits-per-value): the simple8b word layouts.
SELECTORS = [
    (0, 240, 0), (1, 120, 0), (2, 60, 1), (3, 30, 2), (4, 20, 3), (5, 15, 4),
    (6, 12, 5), (7, 10, 6), (8, 8, 7), (9, 7, 8), (10, 6, 10), (11, 5, 12),
    (12, 4, 15), (13, 3, 20), (14, 2, 30), (15, 1, 60),
]
_BY_SELECTOR = {sel: (count, bits) for sel, count, bits in SELECTORS}


# -- zigzag ----------------------------------------------------------------


def zigzag_encode(value: int) -> int:
    """Signed -> unsigned zigzag value (arbitrary precision):
    0 -> 0, -1 -> 1, 1 -> 2, -2 -> 3, ..."""
    return value * 2 if value >= 0 else -value * 2 - 1


def zigzag_decode(value: int) -> int:
    """Unsigned zigzag value -> signed integer."""
    if value < 0:
        raise ValueError(f"zigzag values are unsigned, got {value}")
    return (value >> 1) ^ -(value & 1)


# -- delta transforms ------------------------------------------------------


def delta_encode(values: Sequence[int]) -> list[int]:
    """Return [v0, v1-v0, v2-v1, ...]; empty input stays empty."""
    if not values:
        return []
    out = [values[0]]
    out.extend(values[i] - values[i - 1] for i in range(1, len(values)))
    return out


def delta_decode(deltas: Sequence[int]) -> list[int]:
    """Inverse of :func:`delta_encode`."""
    if not deltas:
        return []
    out = [deltas[0]]
    acc = deltas[0]
    for d in deltas[1:]:
        acc += d
        out.append(acc)
    return out


def delta_of_delta_encode(values: Sequence[int]) -> list[int]:
    """Second-difference transform: [v0, v1-v0, dd2, dd3, ...]."""
    if len(values) <= 2:
        return delta_encode(values)
    out = [values[0], values[1] - values[0]]
    prev_delta = values[1] - values[0]
    for i in range(2, len(values)):
        delta = values[i] - values[i - 1]
        out.append(delta - prev_delta)
        prev_delta = delta
    return out


def delta_of_delta_decode(encoded: Sequence[int]) -> list[int]:
    """Inverse of :func:`delta_of_delta_encode`."""
    if len(encoded) <= 2:
        return delta_decode(encoded)
    out = [encoded[0], encoded[0] + encoded[1]]
    delta = encoded[1]
    for dd in encoded[2:]:
        delta += dd
        out.append(out[-1] + delta)
    return out


# -- packers -----------------------------------------------------------------


def decode_varint(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """One LEB128 value of any size at ``offset``: (value, next offset)."""
    value = shift = 0
    pos = offset
    while True:
        if pos >= len(buf):
            raise ValueError("truncated varint")
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if byte < 0x80:
            return value, pos
        shift += 7


def encode_varints(values: Sequence[int]) -> bytes:
    """Encode non-negative integers as LEB128 values, with no count."""
    out = bytearray()
    for v in values:
        encode_varint(v, out)
    return bytes(out)


def encode_varint_list(values: Sequence[int]) -> bytes:
    """Encode a length-prefixed list of non-negative integers."""
    return encode_varints([len(values)]) + encode_varints(values)


def decode_varint_list(buf: bytes, offset: int = 0) -> tuple[list[int], int]:
    """Decode a length-prefixed varint list; return (values, next offset)."""
    count, pos = decode_varint(buf, offset)
    values = []
    for _ in range(count):
        v, pos = decode_varint(buf, pos)
        values.append(v)
    return values, pos


def varint_decode(buf: bytes, n: int) -> list[int]:
    """The ``n`` values of one LEB128 stream, which they must fill exactly."""
    values, pos = [], 0
    for _ in range(n):
        v, pos = decode_varint(buf, pos)
        values.append(v)
    if pos != len(buf):
        raise ValueError("corrupt varint stream: bytes past its last value")
    return values


def simple8b_decode(buf: bytes, n: int) -> list[int]:
    """The ``n`` values of one simple8b stream, one word at a time; the
    words must hold exactly ``n`` values."""
    values: list[int] = []
    pos = 0
    while len(values) < n:
        if pos + 8 > len(buf):
            raise ValueError("truncated simple8b stream")
        (word,) = struct.unpack_from(">Q", buf, pos)
        pos += 8
        count, bits = _BY_SELECTOR[word >> 60]
        if count > n - len(values):
            raise ValueError("corrupt simple8b stream: a word past its count")
        if bits == 0:
            values.extend([0] * count)
        else:
            mask = (1 << bits) - 1
            for j in range(count):
                values.append((word >> (j * bits)) & mask)
    if pos != len(buf):
        raise ValueError("corrupt simple8b stream: words past its count")
    return values


def _unpack_bits(buf: bytes, count: int, bits: int) -> list[int]:
    values = []
    acc = 0
    acc_bits = 0
    pos = 0
    mask = (1 << bits) - 1 if bits else 0
    for _ in range(count):
        if bits == 0:
            values.append(0)
            continue
        while acc_bits < bits:
            if pos >= len(buf):
                raise ValueError("truncated PFOR bit stream")
            acc |= buf[pos] << acc_bits
            acc_bits += 8
            pos += 1
        values.append(acc & mask)
        acc >>= bits
        acc_bits -= bits
    return values


def pfor_decode(buf: bytes, n: int) -> list[int]:
    """The ``n`` values of one PFOR stream, one block and one value at a
    time; the blocks must hold exactly ``n`` values and end with the stream."""
    pos = 0
    values: list[int] = []
    while len(values) < n:
        count, pos = decode_varint(buf, pos)
        if not 0 < count <= n - len(values):
            raise ValueError("corrupt PFOR block header")
        base, pos = decode_varint(buf, pos)
        bits = buf[pos]
        pos += 1
        blen, pos = decode_varint(buf, pos)
        block = _unpack_bits(buf[pos : pos + blen], count, bits)
        pos += blen
        n_exc, pos = decode_varint(buf, pos)
        for _ in range(n_exc):
            idx, pos = decode_varint(buf, pos)
            val, pos = decode_varint(buf, pos)
            block[idx] = val
        values.extend(v + base for v in block)
    if pos != len(buf):
        raise ValueError("corrupt PFOR stream: bytes past its last block")
    return values


def decode_frame(blob: bytes) -> tuple[int, list[bytes]]:
    """A row version 4 or 5 point blob's point count and three simple8b
    streams: the frame is codec id (1 byte, simple8b's 1), then the point
    count and the t and x stream lengths as varints; the y stream runs to
    the end of the blob."""
    if not blob:
        raise ValueError("truncated trajectory blob")
    if blob[0] != 1:
        raise ValueError(f"unknown codec id {blob[0]}")
    n, pos = decode_varint(blob, 1)
    t_len, pos = decode_varint(blob, pos)
    x_len, pos = decode_varint(blob, pos)
    if pos + t_len + x_len > len(blob):
        raise ValueError("truncated trajectory blob")
    x_at = pos + t_len
    return n, [blob[pos:x_at], blob[x_at : x_at + x_len], blob[x_at + x_len :]]


# -- patched bit packing (row version 6) ----------------------------------------
#
# A section is, stream by stream, the stream's first ``heads`` values as
# varints and, if more values follow (its tail), a descriptor: a byte
# ``w | x << 7`` and, if ``x``, a varint ``e - 1`` and a byte ``h - 1``.  Then
# the body, each byte's low bit first: every tail at its width ``w``, then
# every stream's ``e`` exceptions (index in ``bit_length(L - 1)`` bits, the
# value's bits above ``w`` in ``h`` bits), zero-padded to a byte.


class BitReader:
    """Fields of a little-endian bit string, each byte's low bit first."""

    def __init__(self, data: bytes):
        self.bits = "".join(format(byte, "08b")[::-1] for byte in data)
        self.pos = 0

    def read(self, width: int) -> int:
        if self.pos + width > len(self.bits):
            raise ValueError("truncated bit body")
        field = self.bits[self.pos : self.pos + width]
        self.pos += width
        return int(field[::-1], 2) if width else 0


def _varint_len(value: int) -> int:
    return len(encode_varints([value]))


def choose_width(tail: Sequence[int]) -> tuple[int, list[int], int]:
    """The packer's choice for a tail: ``(w, exception indexes, h)``, the
    smallest width of the fewest descriptor, tail and exception bits."""
    widest = max(v.bit_length() for v in tail)
    index_bits = (len(tail) - 1).bit_length()
    best = None
    for w in range(widest + 1):
        wide = [i for i, v in enumerate(tail) if v.bit_length() > w]
        cost = len(tail) * w
        if wide:
            cost += 8 + 8 * _varint_len(len(wide) - 1) + len(wide) * (
                index_bits + widest - w)
        if best is None or cost < best[0]:
            best = (cost, w, wide, widest - w if wide else 0)
    return best[1:]


def pack_section(streams: Sequence[Sequence[int]], heads: Sequence[int]) -> bytes:
    """One row's section of ``streams``, each sending its first ``heads``
    values as varints."""
    prefix = bytearray()
    tails, patches = [], []
    for values, count in zip(streams, heads):
        prefix += encode_varints(values[:count])
        tail = list(values[count:])
        if not tail:
            continue
        w, wide, h = choose_width(tail)
        prefix.append(w | (0x80 if wide else 0))
        if wide:
            prefix += encode_varints([len(wide) - 1])
            prefix.append(h - 1)
        tails.append((tail, w))
        patches += [((i, (len(tail) - 1).bit_length()), (tail[i] >> w, h)) for i in wide]
    fields = [(v & ((1 << w) - 1), w) for tail, w in tails for v in tail]
    fields += [field for pair in patches for field in pair]
    bits = "".join(format(v, f"0{w}b")[::-1] if w else "" for v, w in fields)
    bits += "0" * (-len(bits) % 8)
    return bytes(prefix) + bytes(int(bits[i : i + 8][::-1], 2) for i in range(0, len(bits), 8))


def unpack_section(buf: bytes, pos: int, end: int, lengths: Sequence[int],
                   heads: Sequence[int]) -> list[list[int]]:
    """The streams of the section ``buf[pos:end]``, ``lengths[c]`` values
    each; ``ValueError`` unless the section is exactly that."""
    plan = []
    for n, count in zip(lengths, heads):
        values = []
        for _ in range(min(n, count)):
            value, pos = decode_varint(buf, pos)
            values.append(value)
        tail = n - len(values)
        w = e = h = 0
        if tail:
            if pos >= end:
                raise ValueError("truncated section")
            w, pos = buf[pos] & 0x7F, pos + 1
            if buf[pos - 1] & 0x80:
                e, pos = decode_varint(buf, pos)
                e += 1
                if pos >= end:
                    raise ValueError("truncated section")
                h, pos = buf[pos] + 1, pos + 1
            if w + h > 64 or e > tail:
                raise ValueError("corrupt descriptor")
        plan.append((values, tail, w, e, h))
    if pos > end:
        raise ValueError("truncated section")
    reader = BitReader(buf[pos:end])
    for values, tail, w, _, _ in plan:
        values += [reader.read(w) for _ in range(tail)]
    for values, tail, w, e, h in plan:
        for _ in range(e):
            index = reader.read((tail - 1).bit_length())
            if index >= tail:
                raise ValueError("exception index past its tail")
            values[len(values) - tail + index] |= reader.read(h) << w
    if len(reader.bits) - reader.pos >= 8:
        raise ValueError("bytes past the section's last field")
    return [values for values, *_ in plan]


# -- the point blob -------------------------------------------------------------


def decode_blob(blob: bytes) -> tuple[int, list[list[int]]]:
    """A row version 6 point blob's point count and its t, x and y streams
    (zigzagged): varint n, then one section of three streams of n values,
    whose first two (t) and first (x, y) values are heads."""
    n, pos = decode_varint(blob, 0)
    return n, unpack_section(blob, pos, len(blob), (n, n, n), (2, 1, 1))


def encode_blob(streams: Sequence[Sequence[int]]) -> bytes:
    """The version 6 blob of three zigzagged streams of equal length."""
    return encode_varints([len(streams[0])]) + pack_section(streams, (2, 1, 1))


def decode_arrays(
    blob: bytes, origin: Optional[tuple[int, int, int]] = None
) -> tuple[list[float], list[float], list[float]]:
    """A trajectory blob's (t, lng, lat) arrays, decoded with the scalar
    helpers above: delta-of-delta t, delta x and delta y, each stream's
    first value counted from ``origin`` (default 0)."""
    _, streams = decode_blob(blob)
    signed = []
    for stream, first in zip(streams, origin if origin is not None else (0, 0, 0)):
        values = [zigzag_decode(v) for v in stream]
        if values:
            values[0] += first
        signed.append(values)
    return (
        [t / TIME_SCALE for t in delta_of_delta_decode(signed[0])],
        [x / COORD_SCALE for x in delta_decode(signed[1])],
        [y / COORD_SCALE for y in delta_decode(signed[2])],
    )
