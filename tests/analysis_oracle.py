"""Full-cast analysis passes: the oracle for the in-dtype ones.

:func:`repro.core.features.extract_features`,
:func:`repro.core.adjustment.constant_block_mask` and
:func:`repro.serving.cache.dataset_fingerprint` read the field in its
own dtype and cast only what they reduce. This module keeps the plain
formulation they must match bit for bit: cast the whole field to
float64 first, then sample, fold and sum that copy.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.adjustment import _fold
from repro.core.features import (
    FeatureVector,
    _difference_pass,
    _mean_lorenzo_difference,
    _mean_spline_difference,
    uniform_sample,
)


def extract_features(data, stride: int = 1) -> FeatureVector:
    """The eight features of the stride-K sample of a float64 copy."""
    sampled = uniform_sample(np.asarray(data, dtype=np.float64), stride)
    if sampled.size == 1:
        value = float(sampled.reshape(()))
        return FeatureVector(0.0, value, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    mnd, (mean_grad, min_grad, max_grad) = _difference_pass(sampled)
    return FeatureVector(
        value_range=float(np.ptp(sampled)),
        mean_value=float(sampled.mean()),
        mnd=mnd,
        mld=_mean_lorenzo_difference(sampled),
        msd=_mean_spline_difference(sampled),
        mean_gradient=mean_grad,
        min_gradient=min_grad,
        max_gradient=max_grad,
    )


def field_mean(data) -> float:
    """The CA threshold's mean: over a float64 copy of the field."""
    return float(np.asarray(data, dtype=np.float64).mean())


def block_ranges(data, block_size: int) -> np.ndarray:
    """Per-block max - min, folded over an edge-padded float64 copy."""
    data = np.asarray(data, dtype=np.float64)
    pad = [(0, (-n) % block_size) for n in data.shape]
    if any(p[1] for p in pad):
        data = np.pad(data, pad, mode="edge")
    hi = lo = data
    for axis in range(data.ndim):
        hi = _fold(hi, axis, block_size, np.maximum)
        lo = _fold(lo, axis, block_size, np.minimum)
    return hi - lo


def constant_block_mask(data, block_size: int, lam: float) -> np.ndarray:
    """Blocks whose float64 range is within ``lam * |mean|``."""
    threshold = lam * abs(field_mean(data))
    return block_ranges(data, block_size) <= threshold


def nonconstant_fraction(data, block_size: int, lam: float) -> float:
    """R over :func:`constant_block_mask`."""
    return float(1.0 - constant_block_mask(data, block_size, lam).mean())


def dataset_fingerprint(data, stride: int = 1) -> str:
    """Hash of the stride-K sample of a float64 copy of the field."""
    array = np.asarray(data)
    sampled = uniform_sample(np.asarray(array, dtype=np.float64), stride)
    digest = hashlib.blake2b(digest_size=8)
    meta = f"{array.shape}|{array.dtype.str}|{stride}".encode("ascii")
    digest.update(meta)
    digest.update(np.ascontiguousarray(sampled).tobytes())
    return digest.hexdigest()
