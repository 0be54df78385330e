"""Linear-scaling quantization with an absolute error guarantee.

This is SZ's "linear-scaling quantization": a residual ``r`` is coded as
``round(r / (2*eb))`` so that dequantizing back multiplies out to within
``eb`` of the original residual. Residuals too large for the code range,
or that floating-point rounding would reconstruct past the bound, are
treated as *unpredictable* (SZ's outlier path): their exact values
are stored losslessly on the side and their codes carry a sentinel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidConfiguration

#: Largest representable quantization code magnitude. Codes beyond this
#: are routed to the outlier path to keep the Huffman alphabet bounded.
DEFAULT_MAX_CODE = 1 << 20


@dataclass
class QuantizedResiduals:
    """Result of quantizing one residual batch.

    Attributes:
        codes: int64 quantization codes; outliers hold ``sentinel``.
        dequantized: residuals reconstructed from codes (outliers hold 0
            and must be patched by the caller with the exact values).
        outlier_mask: boolean mask of unpredictable points.
        sentinel: the code value marking outliers.
    """

    codes: np.ndarray
    dequantized: np.ndarray
    outlier_mask: np.ndarray
    sentinel: int


class LinearQuantizer:
    """Uniform quantizer with bin width ``2 * eb``."""

    def __init__(self, error_bound: float, max_code: int = DEFAULT_MAX_CODE) -> None:
        if error_bound <= 0 or not np.isfinite(error_bound):
            raise InvalidConfiguration("error bound must be positive and finite")
        if max_code < 1:
            raise InvalidConfiguration("max_code must be >= 1")
        self.error_bound = float(error_bound)
        self.max_code = int(max_code)
        self.sentinel = self.max_code + 1

    @property
    def bin_width(self) -> float:
        return 2.0 * self.error_bound

    def quantize(self, residuals: np.ndarray) -> QuantizedResiduals:
        """Quantize residuals; |residual - dequantized| <= error_bound."""
        residuals = np.asarray(residuals, dtype=np.float64)
        # Overflow to inf is fine here: it lands in the outlier path.
        with np.errstate(over="ignore"):
            scaled = residuals / self.bin_width
        # Outliers are detected before the rint cast to avoid int overflow.
        outliers = np.abs(scaled) > self.max_code
        codes = np.zeros(residuals.shape, dtype=np.int64)
        safe = ~outliers
        codes[safe] = np.rint(scaled[safe]).astype(np.int64)
        dequantized = codes.astype(np.float64) * self.bin_width
        # Rounding in the divide and multiply can put a point a few ulps
        # past the bound; such points take the outlier path too.
        outliers |= np.abs(residuals - dequantized) > self.error_bound
        codes[outliers] = self.sentinel
        dequantized[outliers] = 0.0
        return QuantizedResiduals(
            codes=codes,
            dequantized=dequantized,
            outlier_mask=outliers,
            sentinel=self.sentinel,
        )

    def dequantize(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Map codes back to residuals.

        Returns:
            ``(residuals, outlier_mask)``; outlier positions carry 0 and
            must be patched with the exact stored values.
        """
        codes = np.asarray(codes, dtype=np.int64)
        outliers = codes == self.sentinel
        residuals = np.where(outliers, 0, codes).astype(np.float64) * self.bin_width
        return residuals, outliers
