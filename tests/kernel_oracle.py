"""Unfused quantization passes: the oracle for the fused kernels.

:func:`repro.compressors.kernels.encode_block` and
:func:`~repro.compressors.kernels.decode_block` fuse SZ's linear-scaling
quantization into in-place vector passes over arena scratch. This
module keeps the plain formulation they must match bit for bit:
quantize or dequantize a whole residual array, then patch the outliers
with their exact values. Its ``encode_block``/``decode_block`` take the
same arguments as the fused ones, so a test runs any SZ-family
compressor through the oracle by swapping the two module attributes
(:func:`oracle_passes`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest

from repro.compressors import kernels
from repro.compressors.quantizer import LinearQuantizer
from repro.errors import CorruptStreamError


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


def quantize(quantizer: LinearQuantizer, residuals) -> QuantizedResiduals:
    """Quantize residuals; |residual - dequantized| <= error_bound."""
    residuals = np.asarray(residuals, dtype=np.float64)
    # Overflow to inf is fine here: it lands in the outlier path.
    with np.errstate(over="ignore"):
        scaled = residuals / quantizer.bin_width
    # Outliers are detected before the rint cast to avoid int overflow.
    outliers = np.abs(scaled) > quantizer.max_code
    codes = np.zeros(residuals.shape, dtype=np.int64)
    safe = ~outliers
    codes[safe] = np.rint(scaled[safe]).astype(np.int64)
    dequantized = codes.astype(np.float64) * quantizer.bin_width
    # Rounding in the divide and multiply can put a point a few ulps
    # past the bound; such points take the outlier path too.
    outliers |= np.abs(residuals - dequantized) > quantizer.error_bound
    codes[outliers] = quantizer.sentinel
    dequantized[outliers] = 0.0
    return QuantizedResiduals(
        codes=codes,
        dequantized=dequantized,
        outlier_mask=outliers,
        sentinel=quantizer.sentinel,
    )


def dequantize(
    quantizer: LinearQuantizer, codes
) -> tuple[np.ndarray, np.ndarray]:
    """Map codes back to residuals.

    Returns:
        ``(residuals, outlier_mask)``; outlier positions carry 0 and
        must be patched with the exact stored values.
    """
    codes = np.asarray(codes, dtype=np.int64)
    outliers = codes == quantizer.sentinel
    residuals = (
        np.where(outliers, 0, codes).astype(np.float64) * quantizer.bin_width
    )
    return residuals, outliers


def encode_block(target, pred, quantizer, codes_out, arena):
    """Unfused counterpart of :func:`repro.compressors.kernels.encode_block`."""
    quant = quantize(quantizer, target - pred)
    codes_out[...] = quant.codes
    recon_block = pred + quant.dequantized
    recon_block[quant.outlier_mask] = target[quant.outlier_mask]
    pred[...] = recon_block
    return np.asarray(target[quant.outlier_mask], dtype=np.float64).ravel()


def decode_block(codes, pred, quantizer, outliers, out_pos, arena):
    """Unfused counterpart of :func:`repro.compressors.kernels.decode_block`."""
    residuals, mask = dequantize(quantizer, codes)
    recon_block = pred + residuals
    n_out = int(mask.sum())
    if out_pos + n_out > outliers.size:
        raise CorruptStreamError("outlier stream underflow")
    recon_block[mask] = outliers[out_pos : out_pos + n_out]
    pred[...] = recon_block
    return n_out


@contextmanager
def oracle_passes():
    """Route every compressor's quantization through this module."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "encode_block", encode_block)
        patch.setattr(kernels, "decode_block", decode_block)
        yield
