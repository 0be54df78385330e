"""Unit tests for the canonical Huffman codec."""

import numpy as np
import pytest

from repro.encoding.huffman import (
    HuffmanCodec,
    _canonical_codes,
    _huffman_code_lengths,
    _limited_code_lengths,
)
from repro.errors import CorruptStreamError, EncodingError
from tests.huffman_oracle import symbol_table


@pytest.fixture()
def codec():
    return HuffmanCodec()


class TestCodeConstruction:
    def test_two_symbols_get_one_bit_each(self):
        lengths = _huffman_code_lengths(np.array([5, 3]))
        assert lengths.tolist() == [1, 1]

    def test_kraft_inequality_holds(self):
        freqs = np.array([100, 50, 20, 10, 5, 2, 1, 1])
        lengths = _huffman_code_lengths(freqs)
        assert np.sum(0.5 ** lengths.astype(float)) <= 1.0 + 1e-12

    def test_more_frequent_never_longer(self):
        freqs = np.array([1000, 100, 10, 1])
        lengths = _huffman_code_lengths(freqs)
        assert (np.diff(lengths) >= 0).all()

    def test_length_limiting_caps_at_16(self):
        # Fibonacci-like frequencies force deep Huffman trees.
        freqs = np.ones(40, dtype=np.int64)
        a, b = 1, 1
        for i in range(40):
            freqs[i] = a
            a, b = b, a + b
        lengths = _limited_code_lengths(freqs)
        assert lengths.max() <= 16

    def test_canonical_codes_are_prefix_free(self):
        lengths = np.array([2, 2, 3, 3, 3, 4, 4])
        codes = _canonical_codes(lengths)
        entries = sorted(zip(lengths.tolist(), codes.tolist()))
        for i, (la, ca) in enumerate(entries):
            for lb, cb in entries[i + 1 :]:
                assert (cb >> (lb - la)) != ca, "prefix collision"


class TestRoundtrip:
    def test_skewed_symbols(self, codec, rng):
        symbols = rng.geometric(0.25, 50_000).astype(np.int64) - 3
        assert np.array_equal(codec.decode(codec.encode(symbols)), symbols)

    def test_uniform_symbols(self, codec, rng):
        symbols = rng.integers(-500, 500, 20_000)
        assert np.array_equal(codec.decode(codec.encode(symbols)), symbols)

    def test_single_symbol_stream(self, codec):
        symbols = np.full(999, -42, dtype=np.int64)
        blob = codec.encode(symbols)
        assert len(blob) < 20, "degenerate stream should be tiny"
        assert np.array_equal(codec.decode(blob), symbols)

    def test_empty_stream(self, codec):
        assert codec.decode(codec.encode(np.zeros(0, np.int64))).size == 0

    def test_two_distinct_symbols(self, codec):
        symbols = np.array([7, 7, 7, -1, 7, -1], dtype=np.int64)
        assert np.array_equal(codec.decode(codec.encode(symbols)), symbols)

    def test_large_magnitude_symbols(self, codec):
        symbols = np.array([2**40, -(2**40), 0, 2**40], dtype=np.int64)
        assert np.array_equal(codec.decode(codec.encode(symbols)), symbols)

    def test_multidimensional_input_flattened(self, codec, rng):
        symbols = rng.integers(0, 5, (10, 10))
        decoded = codec.decode(codec.encode(symbols))
        assert np.array_equal(decoded, symbols.ravel())


class TestCompression:
    def test_skewed_stream_compresses(self, codec, rng):
        symbols = rng.geometric(0.9, 100_000).astype(np.int64)
        blob = codec.encode(symbols)
        assert len(blob) < symbols.size  # far below 8 bytes/symbol

    def test_entropy_near_optimal(self, codec, rng):
        p = np.array([0.7, 0.15, 0.1, 0.05])
        symbols = rng.choice(4, size=50_000, p=p).astype(np.int64)
        blob = codec.encode(symbols)
        entropy_bits = -np.sum(p * np.log2(p)) * symbols.size
        assert len(blob) * 8 < entropy_bits * 1.25 + 512


class TestCorruption:
    def test_truncated_stream_raises(self, codec, rng):
        symbols = rng.integers(0, 100, 1000)
        blob = codec.encode(symbols)
        with pytest.raises(CorruptStreamError):
            codec.decode(blob[: len(blob) // 2])

    def test_empty_blob_raises(self, codec):
        with pytest.raises(CorruptStreamError):
            codec.decode(b"")


class TestSymbolTable:
    def test_matches_np_unique(self, rng):
        symbols = rng.integers(-40, 40, 10_000)
        alphabet, inverse, counts = symbol_table(symbols)
        expected_alpha, expected_inv = np.unique(symbols, return_inverse=True)
        np.testing.assert_array_equal(alphabet, expected_alpha)
        np.testing.assert_array_equal(inverse, expected_inv.ravel())
        np.testing.assert_array_equal(
            counts, np.bincount(expected_inv.ravel())
        )

    def test_wide_span_falls_back_to_unique(self):
        # Span >> 2**22 forces the sort-based path; results must agree.
        symbols = np.array([2**40, -(2**40), 0, 2**40], dtype=np.int64)
        alphabet, inverse, counts = symbol_table(symbols)
        assert alphabet.tolist() == [-(2**40), 0, 2**40]
        assert inverse.tolist() == [2, 0, 1, 2]
        assert counts.tolist() == [1, 1, 2]

    def test_empty(self):
        alphabet, inverse, counts = symbol_table(np.zeros(0, np.int64))
        assert alphabet.size == inverse.size == counts.size == 0

    def test_reconstructs_stream(self, rng):
        symbols = rng.geometric(0.3, 5000).astype(np.int64) - 7
        alphabet, inverse, _ = symbol_table(symbols)
        np.testing.assert_array_equal(alphabet[inverse], symbols)

