"""Unit tests for the batched kernel layer (arena + fused passes)."""

import numpy as np
import pytest

from repro.compressors import kernels
from repro.compressors.kernels import ArenaStats, KernelArena
from repro.compressors.quantizer import LinearQuantizer
from repro.errors import CorruptStreamError
from tests import kernel_oracle

pytestmark = pytest.mark.kernels


class TestKernelArena:
    def test_scratch_shape_and_dtype(self):
        arena = KernelArena()
        view = arena.scratch("t", (3, 4), np.float64)
        assert view.shape == (3, 4)
        assert view.dtype == np.float64
        assert view.flags.c_contiguous

    def test_same_tag_reuses_buffer(self):
        arena = KernelArena()
        a = arena.scratch("t", 100)
        b = arena.scratch("t", 100)
        assert np.shares_memory(a, b)
        assert arena.stats.reuses == 1

    def test_smaller_request_reuses_buffer(self):
        arena = KernelArena()
        arena.scratch("t", 100)
        view = arena.scratch("t", (5, 7))
        assert view.shape == (5, 7)
        assert arena.stats.reuses == 1
        assert arena.stats.buffers == 1

    def test_larger_request_grows_buffer(self):
        arena = KernelArena()
        arena.scratch("t", 10)
        big = arena.scratch("t", 1000)
        assert big.size == 1000
        assert arena.stats.reuses == 0
        assert arena.stats.buffers == 1

    def test_distinct_tags_do_not_alias(self):
        arena = KernelArena()
        a = arena.scratch("a", 50)
        b = arena.scratch("b", 50)
        assert not np.shares_memory(a, b)
        assert arena.stats.buffers == 2

    def test_same_tag_distinct_dtypes_do_not_alias(self):
        arena = KernelArena()
        f = arena.scratch("t", 50, np.float64)
        i = arena.scratch("t", 50, np.int64)
        assert not np.shares_memory(f, i)

    def test_zeros_is_zero_filled_on_reuse(self):
        arena = KernelArena()
        view = arena.scratch("t", 8)
        view[...] = 7.0
        again = arena.zeros("t", 8)
        assert (again == 0).all()

    def test_int_shape_means_1d(self):
        arena = KernelArena()
        assert arena.scratch("t", 5).shape == (5,)

    def test_stats_counts_and_bytes(self):
        arena = KernelArena()
        arena.scratch("t", 10, np.float64)
        arena.scratch("t", 10, np.float64)
        stats = arena.stats
        assert isinstance(stats, ArenaStats)
        assert stats.requests == 2
        assert stats.reuses == 1
        assert stats.nbytes == 80
        assert stats.reuse_ratio == 0.5

    def test_empty_arena_reuse_ratio(self):
        assert KernelArena().stats.reuse_ratio == 0.0

    def test_clear_drops_buffers_keeps_counters(self):
        arena = KernelArena()
        arena.scratch("t", 10)
        arena.clear()
        stats = arena.stats
        assert stats.buffers == 0 and stats.nbytes == 0
        assert stats.requests == 1


# backend0 runs the fused passes, backend1 their unfused oracle.
@pytest.mark.parametrize(
    "backend", [kernels, kernel_oracle], ids=["backend0", "backend1"]
)
class TestBackendPasses:
    def test_encode_then_decode_reconstructs(self, backend, rng):
        target = rng.normal(size=64)
        pred_enc = np.full(64, target.mean())
        pred_dec = pred_enc.copy()
        quantizer = LinearQuantizer(1e-3)
        codes = np.empty(64, dtype=np.int64)
        arena = KernelArena()
        outliers = backend.encode_block(
            target, pred_enc, quantizer, codes, arena
        )
        used = backend.decode_block(
            codes, pred_dec, quantizer, outliers, 0, arena
        )
        assert used == outliers.size
        np.testing.assert_array_equal(pred_dec, pred_enc)
        assert np.abs(pred_dec - target).max() <= 1e-3 * (1 + 1e-12)

    def test_outliers_reproduce_exact_values(self, backend):
        # A huge residual overflows the code range and must travel as
        # a verbatim outlier.
        target = np.array([0.0, 1e18, 0.0])
        pred = np.zeros(3)
        quantizer = LinearQuantizer(1e-9)
        codes = np.empty(3, dtype=np.int64)
        arena = KernelArena()
        outliers = backend.encode_block(target, pred, quantizer, codes, arena)
        assert outliers.tolist() == [1e18]
        assert codes[1] == quantizer.sentinel
        assert pred[1] == 1e18

    def test_decode_short_outlier_stream_raises(self, backend):
        codes = np.array([0, 0, 0], dtype=np.int64)
        quantizer = LinearQuantizer(1e-3)
        codes[1] = quantizer.sentinel
        with pytest.raises(CorruptStreamError):
            backend.decode_block(
                codes,
                np.zeros(3),
                quantizer,
                np.zeros(0, dtype=np.float64),
                0,
                KernelArena(),
            )
