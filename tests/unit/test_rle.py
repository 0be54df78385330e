"""Unit tests for run-length coding."""

import numpy as np
import pytest

from repro.errors import CorruptStreamError

from repro.encoding.rle import zero_rle_decode, zero_rle_encode


class TestZeroRLE:
    def test_basic(self):
        tokens, literals = zero_rle_encode(np.array([0, 0, 5, 0, 3]))
        assert tokens.tolist() == [2, 1, 0]
        assert literals.tolist() == [5, 3]

    def test_roundtrip_sparse(self, rng):
        symbols = np.zeros(10_000, dtype=np.int64)
        idx = rng.choice(10_000, 300, replace=False)
        symbols[idx] = rng.integers(1, 50, 300)
        tokens, literals = zero_rle_encode(symbols)
        assert np.array_equal(zero_rle_decode(tokens, literals), symbols)

    def test_all_zero(self):
        tokens, literals = zero_rle_encode(np.zeros(7, np.int64))
        assert tokens.tolist() == [7]
        assert literals.size == 0
        assert np.array_equal(zero_rle_decode(tokens, literals), np.zeros(7))

    def test_no_zeros(self):
        data = np.array([1, 2, 3])
        tokens, literals = zero_rle_encode(data)
        assert np.array_equal(zero_rle_decode(tokens, literals), data)

    def test_custom_zero_value(self):
        data = np.array([9, 9, 1, 9])
        tokens, literals = zero_rle_encode(data, zero=9)
        assert np.array_equal(zero_rle_decode(tokens, literals, zero=9), data)

    def test_empty(self):
        tokens, literals = zero_rle_encode(np.zeros(0, np.int64))
        assert zero_rle_decode(tokens, literals).size == 0

    def test_decode_rejects_bad_token_count(self):
        with pytest.raises(CorruptStreamError):
            zero_rle_decode(np.array([1, 2]), np.array([5, 6]))

    def test_decode_rejects_negative_runs(self):
        with pytest.raises(CorruptStreamError):
            zero_rle_decode(np.array([-1, 0]), np.array([5]))


class TestArenaBackedRLE:
    def test_zero_rle_encode_uses_arena_scratch(self, rng):
        from repro.compressors.kernels import KernelArena

        arena = KernelArena()
        symbols = np.zeros(10_000, dtype=np.int64)
        idx = rng.choice(10_000, 300, replace=False)
        symbols[idx] = rng.integers(1, 50, 300)
        tokens, literals = zero_rle_encode(symbols, arena=arena)
        assert np.array_equal(zero_rle_decode(tokens, literals), symbols)
        tokens2, literals2 = zero_rle_encode(symbols, arena=arena)
        assert np.shares_memory(tokens, tokens2)
        assert np.shares_memory(literals, literals2)

    def test_arena_output_matches_plain_output(self, rng):
        from repro.compressors.kernels import KernelArena

        symbols = rng.integers(-5, 6, 4000)
        plain_tokens, plain_literals = zero_rle_encode(symbols)
        arena_tokens, arena_literals = zero_rle_encode(
            symbols, arena=KernelArena()
        )
        assert np.array_equal(plain_tokens, arena_tokens)
        assert np.array_equal(plain_literals, arena_literals)

    def test_all_zero_stream_with_arena(self):
        from repro.compressors.kernels import KernelArena

        tokens, literals = zero_rle_encode(
            np.zeros(7, np.int64), arena=KernelArena()
        )
        assert tokens.tolist() == [7]
        assert literals.size == 0
