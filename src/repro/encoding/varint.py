"""Varint and length-prefixed section helpers.

All multi-part compressed payloads in this library are laid out as a
sequence of length-prefixed sections; the helpers here implement the
LEB128-style unsigned varint used for those prefixes.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CorruptStreamError


def encode_uvarint(value: int) -> bytes:
    """Encode a non-negative integer as a LEB128 varint."""
    if value < 0:
        raise ValueError("uvarint cannot encode negative values")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def encode_uvarints(values: np.ndarray) -> bytes:
    """LEB128 varints of a uint64 array, back to back.

    Byte-identical to ``b"".join(map(encode_uvarint, values))``, built
    with one vector pass per 7-bit group of the largest value.
    """
    values = np.asarray(values, dtype=np.uint64)
    groups = [values & np.uint64(0x7F)]
    width = np.ones(values.size, dtype=np.int64)  # bytes per varint
    rest = values >> np.uint64(7)
    while rest.any():
        width += rest != 0
        groups.append(rest & np.uint64(0x7F))
        rest >>= np.uint64(7)
    out = np.stack(groups, axis=1).astype(np.uint8)
    column = np.arange(len(groups))
    out[column < width[:, None] - 1] |= 0x80
    return out[column < width[:, None]].tobytes()


def decode_uvarint(data: bytes, offset: int = 0) -> tuple[int, int]:
    """Decode a varint starting at ``offset``.

    Returns:
        ``(value, new_offset)``.
    """
    result = 0
    shift = 0
    pos = offset
    while True:
        if pos >= len(data):
            raise CorruptStreamError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CorruptStreamError("varint too long")


def encode_section(payload: bytes) -> bytes:
    """Length-prefix a payload."""
    return encode_uvarint(len(payload)) + payload


def decode_section(data: bytes, offset: int = 0) -> tuple[bytes, int]:
    """Read a length-prefixed payload; returns ``(payload, new_offset)``."""
    length, offset = decode_uvarint(data, offset)
    end = offset + length
    if end > len(data):
        raise CorruptStreamError("truncated section")
    return data[offset:end], end
