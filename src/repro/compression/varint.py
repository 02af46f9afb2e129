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
    """Decode one varint from ``buf`` at ``offset``; return (value, next
    offset).  ``ValueError`` if it runs past the buffer or past 64 bits."""
    result = shift = 0
    pos = offset
    while pos < len(buf) and shift < 64:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if byte < 0x80:
            if result >> 64:
                break
            return result, pos
        shift += 7
    raise ValueError("truncated or overlong varint")
