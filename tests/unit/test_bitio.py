"""Unit tests for repro.encoding.bitio."""

import numpy as np
import pytest

from repro.encoding.bitio import (
    pack_bits,
    pack_fixed_width,
    unpack_bits,
    unpack_fixed_width,
)
from repro.errors import CorruptStreamError


def _pack_bits_reference(
    codes: np.ndarray, lengths: np.ndarray
) -> tuple[bytes, int]:
    """Bit-by-bit packer: the parity oracle for :func:`pack_bits`."""
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.size == 0:
        return b"", 0
    offsets = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    total_bits = int(offsets[-1] + lengths[-1])
    bits = np.zeros(total_bits, dtype=np.uint8)
    max_len = int(lengths.max())
    for j in range(max_len):
        mask = lengths > j
        if not mask.any():
            continue
        shift = (lengths[mask] - 1 - j).astype(np.uint64)
        bit_vals = ((codes[mask] >> shift) & np.uint64(1)).astype(np.uint8)
        bits[offsets[mask] + j] = bit_vals
    return np.packbits(bits).tobytes(), total_bits


class TestPackBits:
    def test_roundtrip_variable_lengths(self):
        codes = np.array([0b1, 0b01, 0b111, 0b0001], dtype=np.uint64)
        lengths = np.array([1, 2, 3, 4], dtype=np.int64)
        buf, total = pack_bits(codes, lengths)
        assert total == 10
        bits = unpack_bits(buf, total)
        expected = [1, 0, 1, 1, 1, 1, 0, 0, 0, 1]
        assert bits.tolist() == expected

    def test_empty(self):
        buf, total = pack_bits(np.zeros(0, np.uint64), np.zeros(0, np.int64))
        assert buf == b"" and total == 0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pack_bits(np.zeros(3, np.uint64), np.zeros(2, np.int64))

    def test_unpack_truncated_buffer_raises(self):
        with pytest.raises(CorruptStreamError):
            unpack_bits(b"\x00", 9)


class TestPackAtOffsets:
    """Word placement of :func:`pack_bits` against the bit-by-bit oracle."""

    def test_matches_bit_by_bit_reference(self, rng):
        # The word-scatter packer must be byte-identical to the slow
        # reference across many random code/length mixes, every length
        # 0..64 included; codes carry random bits above their length.
        for _ in range(200):
            n = int(rng.integers(1, 400))
            lengths = rng.integers(0, int(rng.integers(1, 65)) + 1, n)
            codes = rng.integers(0, 2**64, n, dtype=np.uint64)
            fast, total_fast = pack_bits(codes, lengths)
            slow, total_slow = _pack_bits_reference(codes, lengths)
            assert total_fast == total_slow
            assert fast == slow

    def test_matches_reference_on_a_long_stream(self, rng):
        # 262,144 symbols: a 64^3 field's code stream, with Huffman-like
        # short lengths and stray high bits.
        n = 1 << 18
        lengths = np.minimum(rng.geometric(0.3, n), 16)
        codes = rng.integers(0, 2**64, n, dtype=np.uint64)
        fast, total_fast = pack_bits(codes, lengths)
        slow, total_slow = _pack_bits_reference(codes, lengths)
        assert total_fast == total_slow == int(lengths.sum())
        assert fast == slow

    def test_stray_high_bits_are_masked(self):
        # Raw table lookups may carry bits above the declared length;
        # they must not leak into neighboring codes.
        codes = np.array([0b111111, 0b1], dtype=np.uint64)
        lengths = np.array([2, 1], dtype=np.int64)
        buf, total = pack_bits(codes, lengths)
        assert total == 3
        assert unpack_bits(buf, 3).tolist() == [1, 1, 1]

    def test_word_straddling_codes(self):
        # A 20-bit code crossing the 64-bit word boundary.
        codes = np.array([(1 << 60) - 1, (1 << 20) - 1], dtype=np.uint64)
        lengths = np.array([60, 20], dtype=np.int64)
        fast, total = pack_bits(codes, lengths)
        slow, _ = _pack_bits_reference(codes, lengths)
        assert fast == slow
        assert total == 80


class TestFixedWidth:
    def test_roundtrip(self):
        values = np.array([0, 1, 5, 1000, 4095], dtype=np.uint64)
        buf = pack_fixed_width(values, 12)
        out = unpack_fixed_width(buf, 12, values.size)
        assert np.array_equal(out, values)

    def test_width_zero(self):
        assert pack_fixed_width(np.array([0, 0], np.uint64), 0) == b""
        out = unpack_fixed_width(b"", 0, 5)
        assert np.array_equal(out, np.zeros(5, np.uint64))

    def test_overflow_rejected(self):
        with pytest.raises(ValueError):
            pack_fixed_width(np.array([16], np.uint64), 4)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            pack_fixed_width(np.array([1], np.uint64), 65)

    def test_truncated_payload_raises(self):
        with pytest.raises(CorruptStreamError):
            unpack_fixed_width(b"\x00", 12, 10)

    def test_max_width_64(self):
        values = np.array([2**63 + 12345], dtype=np.uint64)
        buf = pack_fixed_width(values, 64)
        assert np.array_equal(unpack_fixed_width(buf, 64, 1), values)
