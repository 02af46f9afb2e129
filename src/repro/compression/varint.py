"""LEB128-style variable-length unsigned integer encoding."""

from __future__ import annotations


def encode_varint(value: int, out: bytearray) -> None:
    """Append the varint encoding of a non-negative integer to ``out``."""
    if value < 0:
        raise ValueError(f"varint values must be non-negative, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def decode_varint(buf: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode one varint from ``buf`` at ``offset``; return (value, next offset)."""
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(buf):
            raise ValueError("truncated varint")
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
