"""Unit tests for repro.encoding.varint."""

import numpy as np
import pytest

from repro.encoding.varint import (
    decode_section,
    decode_uvarint,
    encode_section,
    encode_uvarint,
    encode_uvarints,
)
from repro.errors import CorruptStreamError


class TestUvarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 2**32, 2**62])
    def test_roundtrip(self, value):
        data = encode_uvarint(value)
        decoded, offset = decode_uvarint(data)
        assert decoded == value
        assert offset == len(data)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_uvarint(-1)

    def test_array_encoding_matches_one_at_a_time(self):
        values = [0, 1, 127, 128, 300, 2**32, 2**62, 2**63, 2**64 - 1, 5]
        expected = b"".join(encode_uvarint(v) for v in values)
        assert encode_uvarints(np.array(values, dtype=np.uint64)) == expected
        assert encode_uvarints(np.zeros(0, dtype=np.uint64)) == b""

    def test_truncated_raises(self):
        with pytest.raises(CorruptStreamError):
            decode_uvarint(b"\x80")

    def test_overlong_raises(self):
        with pytest.raises(CorruptStreamError):
            decode_uvarint(b"\x80" * 10 + b"\x01")

    def test_sequential_decode(self):
        data = encode_uvarint(7) + encode_uvarint(300)
        first, offset = decode_uvarint(data)
        second, offset = decode_uvarint(data, offset)
        assert (first, second) == (7, 300)


class TestSections:
    def test_roundtrip(self):
        blob = encode_section(b"hello") + encode_section(b"")
        first, offset = decode_section(blob)
        second, offset = decode_section(blob, offset)
        assert first == b"hello"
        assert second == b""
        assert offset == len(blob)

    def test_truncated_section_raises(self):
        with pytest.raises(CorruptStreamError):
            decode_section(encode_uvarint(10) + b"abc")
