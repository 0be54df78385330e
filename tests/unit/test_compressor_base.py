"""Unit tests for the compressor interface, blob and registry."""

import numpy as np
import pytest

from repro.compressors import (
    available_compressors,
    get_compressor,
    register_compressor,
)
from repro.compressors.base import CompressedBlob, Compressor
from repro.errors import (
    CompressionError,
    ErrorBoundViolation,
    InvalidConfiguration,
)


class TestBlob:
    def test_ratio(self):
        blob = CompressedBlob(
            data=b"x" * 100,
            original_shape=(10, 10),
            original_dtype="float32",
            compressor="sz",
            config=0.1,
        )
        assert blob.original_nbytes == 400
        assert blob.compression_ratio == pytest.approx(4.0)

    def test_empty_payload_rejected(self):
        blob = CompressedBlob(
            data=b"", original_shape=(4,), original_dtype="float64",
            compressor="sz", config=0.1,
        )
        with pytest.raises(CompressionError):
            _ = blob.compression_ratio


class TestRegistry:
    def test_all_four_registered(self):
        assert set(available_compressors()) >= {"sz", "zfp", "fpzip", "mgard"}

    def test_get_unknown_raises(self):
        with pytest.raises(CompressionError):
            get_compressor("nope")

    def test_get_passes_kwargs(self):
        comp = get_compressor("zfp", mode="rate")
        assert comp.mode == "rate"

    def test_register_rejects_non_compressor(self):
        with pytest.raises(TypeError):
            register_compressor(int)


class TestValidation:
    def test_rejects_integer_arrays(self):
        comp = get_compressor("sz")
        with pytest.raises(CompressionError):
            comp.compress(np.arange(10), 0.1)

    def test_rejects_empty(self):
        comp = get_compressor("sz")
        with pytest.raises(CompressionError):
            comp.compress(np.zeros((0,), np.float64), 0.1)

    def test_rejects_nan(self):
        comp = get_compressor("sz")
        data = np.ones((8, 8))
        data[0, 0] = np.nan
        with pytest.raises(CompressionError):
            comp.compress(data, 0.1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_rejects_non_finite_anywhere(self, dtype, bad, where):
        data = np.linspace(-1.0, 1.0, 6 * 7 * 5, dtype=dtype).reshape(6, 7, 5)
        index = {"first": 0, "middle": data.size // 2, "last": -1}[where]
        data.flat[index] = bad
        for name in ("sz", "zfp"):
            with pytest.raises(
                CompressionError, match="input contains non-finite values"
            ):
                get_compressor(name).compress(data, 0.1)
        # A strided view is checked too, not only a contiguous array.
        with pytest.raises(CompressionError, match="non-finite"):
            get_compressor("sz").compress(data[:, ::-1], 0.1)

    def test_rejects_rank5(self):
        comp = get_compressor("sz")
        with pytest.raises(CompressionError):
            comp.compress(np.ones((2, 2, 2, 2, 2)), 0.1)

    def test_rejects_nonpositive_bound(self):
        comp = get_compressor("sz")
        with pytest.raises(InvalidConfiguration):
            comp.compress(np.ones((4, 4)), 0.0)

    def test_rejects_foreign_blob(self, smooth_field3d):
        sz = get_compressor("sz")
        mgard = get_compressor("mgard")
        blob = sz.compress(smooth_field3d, 0.01)
        with pytest.raises(CompressionError):
            mgard.decompress(blob)


class TestVerify:
    def test_passes_on_honest_reconstruction(self, smooth_field3d):
        comp = get_compressor("sz")
        recon, blob = comp.roundtrip(smooth_field3d, 0.01)
        comp.verify(smooth_field3d, recon, blob.config)

    def test_raises_on_violation(self, smooth_field3d):
        comp = get_compressor("sz")
        fake = smooth_field3d + 1.0
        with pytest.raises(ErrorBoundViolation):
            comp.verify(smooth_field3d, fake, 0.01)


class TestConfigDomain:
    def test_abs_domain_tracks_value_range(self, smooth_field3d):
        comp = get_compressor("sz")
        lo, hi = comp.config_domain(smooth_field3d)
        value_range = float(np.ptp(smooth_field3d))
        assert lo == pytest.approx(1e-6 * value_range)
        assert hi == pytest.approx(0.1 * value_range)

    def test_abs_domain_requires_array(self):
        comp = get_compressor("sz")
        with pytest.raises(InvalidConfiguration):
            comp.config_domain()

    def test_constant_array_domain_is_positive(self):
        comp = get_compressor("sz")
        lo, hi = comp.config_domain(np.full((8, 8), 5.0))
        assert 0 < lo < hi

    def test_precision_domain_fixed(self):
        comp = get_compressor("fpzip")
        lo, hi = comp.config_domain()
        assert (lo, hi) == (10.0, 32.0)
