"""Distortion metrics and the valid-compression-ratio range (Fig. 10-11).

The paper restricts every dataset's target ratios to a *valid range*
"based on reasonable data distortion": beyond some ratio the
reconstruction is scientifically useless, so no fixed-ratio framework
should be asked for it. :func:`valid_ratio_range` reproduces that
selection by probing the compressor across its config domain and
keeping the ratios whose PSNR stays above a floor.
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import Compressor
from repro.core.augmentation import stationary_configs
from repro.errors import InvalidConfiguration


def max_abs_error(original: np.ndarray, reconstruction: np.ndarray) -> float:
    """L-infinity reconstruction error."""
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstruction, dtype=np.float64)
    if a.shape != b.shape:
        raise InvalidConfiguration("arrays must have matching shapes")
    return float(np.max(np.abs(a - b)))


def normalized_rmse(original: np.ndarray, reconstruction: np.ndarray) -> float:
    """RMSE divided by the value range."""
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstruction, dtype=np.float64)
    if a.shape != b.shape:
        raise InvalidConfiguration("arrays must have matching shapes")
    value_range = float(np.ptp(a))
    if value_range == 0:
        return 0.0
    return float(np.sqrt(np.mean((a - b) ** 2)) / value_range)


def psnr(original: np.ndarray, reconstruction: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (inf for exact match)."""
    nrmse = normalized_rmse(original, reconstruction)
    if nrmse == 0:
        return float("inf")
    return float(-20.0 * np.log10(nrmse))


def ssim(original: np.ndarray, reconstruction: np.ndarray) -> float:
    """Global structural similarity between two fields.

    The single-window SSIM over the whole array — the statistic the
    SSIM objective targets (see :mod:`repro.core.objective`). Windowed
    mean-SSIM would need a convolution budget the estimation path
    cannot afford; the global statistic matches the uniform-noise model
    used to invert a target into an error bound. Stabilizers follow
    Wang et al. with ``L`` = the original's value range (``1.0`` for
    constant data so an exact reconstruction still scores 1).
    """
    a = np.asarray(original, dtype=np.float64)
    b = np.asarray(reconstruction, dtype=np.float64)
    if a.shape != b.shape:
        raise InvalidConfiguration("arrays must have matching shapes")
    value_range = float(np.ptp(a))
    dynamic = value_range if value_range > 0 else 1.0
    c1 = (0.01 * dynamic) ** 2
    c2 = (0.03 * dynamic) ** 2
    mu_a = float(np.mean(a))
    mu_b = float(np.mean(b))
    var_a = float(np.var(a))
    var_b = float(np.var(b))
    cov = float(np.mean((a - mu_a) * (b - mu_b)))
    return float(
        ((2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2))
        / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
    )


def valid_ratio_range(
    compressor: Compressor,
    data: np.ndarray,
    min_psnr: float = 40.0,
    n_probes: int = 12,
    min_ratio: float = 2.0,
) -> tuple[float, float]:
    """(lowest, highest) usable compression ratios for ``data``.

    Probes ``n_probes`` configurations across the compressor's domain
    (the augmentation sweep's stationary grid), measures (ratio, PSNR)
    at each, and returns the ratio span whose PSNR stays at or above
    ``min_psnr`` — the Fig. 11 analogue.
    """
    if n_probes < 3:
        raise InvalidConfiguration("n_probes must be >= 3")
    configs = stationary_configs(compressor, data, n_probes)
    best_hi = None
    best_lo = None
    for config in configs:
        recon, blob = compressor.roundtrip(data, float(config))
        quality = psnr(data, recon)
        ratio = blob.compression_ratio
        if quality >= min_psnr:
            best_hi = ratio if best_hi is None else max(best_hi, ratio)
            best_lo = ratio if best_lo is None else min(best_lo, ratio)
    if best_hi is None:
        raise InvalidConfiguration(
            f"no configuration of {compressor.name} reaches PSNR {min_psnr}"
        )
    return max(min_ratio, best_lo), max(min_ratio * 1.5, best_hi)
