"""Unit tests for linear-scaling quantization (the fused kernel passes)."""

import numpy as np
import pytest

from repro.compressors.kernels import KernelArena, decode_block, encode_block
from repro.compressors.quantizer import LinearQuantizer
from repro.errors import InvalidConfiguration


def _quantize(quantizer, residuals):
    """Encode ``residuals`` against a zero prediction.

    Returns ``(codes, recon, outliers)``: with a zero prediction the
    reconstruction is the dequantized residual, outlier positions
    patched with their exact values.
    """
    residuals = np.asarray(residuals, dtype=np.float64)
    recon = np.zeros_like(residuals)
    codes = np.empty(residuals.shape, dtype=np.int64)
    outliers = encode_block(residuals, recon, quantizer, codes, KernelArena())
    return codes, recon, outliers


class TestQuantize:
    def test_error_within_bound(self, rng):
        quantizer = LinearQuantizer(0.01)
        residuals = rng.uniform(-5, 5, 10_000)
        codes, recon, outliers = _quantize(quantizer, residuals)
        assert np.abs(residuals - recon).max() <= 0.01 + 1e-12
        assert outliers.size == 0
        assert not (codes == quantizer.sentinel).any()

    def test_zero_residuals_give_zero_codes(self):
        codes, _, _ = _quantize(LinearQuantizer(0.1), np.zeros(100))
        assert (codes == 0).all()

    def test_outlier_detection(self):
        quantizer = LinearQuantizer(1e-9, max_code=100)
        codes, recon, outliers = _quantize(quantizer, [0.0, 1.0])
        assert (codes == quantizer.sentinel).tolist() == [False, True]
        assert outliers.tolist() == [1.0]
        assert recon.tolist() == [0.0, 1.0]

    def test_dequantize_matches_quantize(self, rng):
        quantizer = LinearQuantizer(0.05, max_code=10)
        residuals = rng.uniform(-2, 2, 1000)
        codes, recon, outliers = _quantize(quantizer, residuals)
        assert outliers.size > 0
        decoded = np.zeros_like(residuals)
        used = decode_block(
            codes, decoded, quantizer, outliers, 0, KernelArena()
        )
        assert used == outliers.size
        assert decoded.tobytes() == recon.tobytes()

    def test_bin_width_is_twice_bound(self):
        assert LinearQuantizer(0.25).bin_width == 0.5

    def test_rejects_bad_bound(self):
        with pytest.raises(InvalidConfiguration):
            LinearQuantizer(0.0)
        with pytest.raises(InvalidConfiguration):
            LinearQuantizer(-1.0)
        with pytest.raises(InvalidConfiguration):
            LinearQuantizer(float("nan"))

    def test_rejects_bad_max_code(self):
        with pytest.raises(InvalidConfiguration):
            LinearQuantizer(0.1, max_code=0)

    def test_huge_values_do_not_overflow(self):
        quantizer = LinearQuantizer(1e-300, max_code=1 << 20)
        codes, recon, outliers = _quantize(quantizer, [1e300, -1e300])
        assert (codes == quantizer.sentinel).all()
        assert outliers.tolist() == [1e300, -1e300]

    def test_codes_are_nearest_bin(self):
        quantizer = LinearQuantizer(0.5)  # bin width 1.0
        codes, _, _ = _quantize(quantizer, [0.49, 0.51, -0.51, 1.49])
        assert codes.tolist() == [0, 1, -1, 1]
