"""Full-cast analysis passes: the oracle for the in-dtype ones.

:func:`repro.core.features.extract_features`,
:func:`repro.core.features.gradient_features`,
:func:`repro.core.adjustment.constant_block_mask` and
:func:`repro.serving.cache.dataset_fingerprint` read the field in its
own dtype and cast only what they reduce. This module keeps the plain
formulation they must match bit for bit: cast the whole field to
float64 first, then sample, fold and sum that copy. It also keeps its
own copy of the feature kernels and the block fold as they were before
the rewrite that derives the neighbour and fit counts from the shape
and folds without padding: the fused difference sweep (MND and the
gradient trio), the Lorenzo residuals as an ``np.diff`` chain, the
Lorenzo and spline differences, and the strided-view fold over an
edge-padded copy.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.core.features import FeatureVector, uniform_sample


def difference_pass(
    data: np.ndarray,
) -> tuple[float, tuple[float, float, float]]:
    """Fused per-axis sweep: ``(MND, (mean, min, max) |gradient|)``.

    MND and the gradient statistics both consume each axis's first
    differences, so one loop computes both: the difference slab is
    materialized once per axis into a reused scratch buffer (instead of
    a fresh ``np.diff`` allocation per axis per feature), and the final
    neighbor-mean/difference/abs chain runs in place. Axes shorter than
    2 points contribute nothing; a grid with no usable axis reports
    zeros (the degenerate-lattice contract of :func:`extract_features`).
    """
    neighbor_sum = np.zeros_like(data)
    neighbor_count = np.zeros(data.shape, dtype=np.int64)
    scratch = np.empty(data.size, dtype=np.float64)
    total = 0.0
    count = 0
    grad_lo = np.inf
    grad_hi = 0.0
    for axis in range(data.ndim):
        if data.shape[axis] < 2:
            continue
        lo = [slice(None)] * data.ndim
        hi = [slice(None)] * data.ndim
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        lo_t, hi_t = tuple(lo), tuple(hi)
        forward, backward = data[hi_t], data[lo_t]
        neighbor_sum[lo_t] += forward
        neighbor_count[lo_t] += 1
        neighbor_sum[hi_t] += backward
        neighbor_count[hi_t] += 1
        diff = scratch[: forward.size].reshape(forward.shape)
        np.subtract(forward, backward, out=diff)
        np.abs(diff, out=diff)
        total += float(diff.sum())
        count += diff.size
        grad_lo = min(grad_lo, float(diff.min()))
        grad_hi = max(grad_hi, float(diff.max()))
    if count == 0:
        return 0.0, (0.0, 0.0, 0.0)
    np.divide(neighbor_sum, neighbor_count, out=neighbor_sum)
    np.subtract(data, neighbor_sum, out=neighbor_sum)
    np.abs(neighbor_sum, out=neighbor_sum)
    return float(neighbor_sum.mean()), (total / count, float(grad_lo), grad_hi)


def mean_neighbor_difference(data: np.ndarray) -> float:
    """Mean |value - mean(face neighbors)| over all points."""
    return difference_pass(data)[0]


def lorenzo_residuals(array: np.ndarray) -> np.ndarray:
    """d-dimensional finite difference with phantom zero neighbours."""
    residual = np.asarray(array)
    for axis in range(residual.ndim):
        residual = np.diff(residual, axis=axis, prepend=0)
    return residual


def mean_lorenzo_difference(data: np.ndarray) -> float:
    """Mean |value - Lorenzo prediction| on the interior (Eqs. 1-2)."""
    residuals = lorenzo_residuals(data)
    interior = tuple(slice(1, None) if n > 1 else slice(None) for n in data.shape)
    region = residuals[interior]
    if region.size == 0:
        region = residuals
    return float(np.mean(np.abs(region)))


def mean_spline_difference(data: np.ndarray) -> float:
    """Mean |value - cross-axis average of the Eq. 3 spline fit|.

    For each axis with length > 6, the cubic fit
    (-d[i-3] + 9 d[i-1] + 9 d[i+1] - d[i+3]) / 16 is evaluated on that
    axis's interior; per point, fits from all applicable axes are
    averaged before the difference is taken.
    """
    fit_sum = np.zeros_like(data, dtype=np.float64)
    fit_count = np.zeros(data.shape, dtype=np.int64)
    for axis in range(data.ndim):
        n = data.shape[axis]
        if n <= 6:
            continue

        def shifted(offset: int) -> np.ndarray:
            sl = [slice(None)] * data.ndim
            sl[axis] = slice(3 + offset, n - 3 + offset)
            return data[tuple(sl)]

        fit = (
            -shifted(-3) + 9.0 * shifted(-1) + 9.0 * shifted(1) - shifted(3)
        ) / 16.0
        target = [slice(None)] * data.ndim
        target[axis] = slice(3, n - 3)
        fit_sum[tuple(target)] += fit
        fit_count[tuple(target)] += 1
    covered = fit_count > 0
    if not covered.any():
        # Grid too small for any cubic stencil; degrade to MND, the
        # closest smoothness proxy.
        return mean_neighbor_difference(data)
    avg_fit = fit_sum[covered] / fit_count[covered]
    return float(np.mean(np.abs(data[covered] - avg_fit)))


def fold(a: np.ndarray, axis: int, block_size: int, combine) -> np.ndarray:
    """``combine`` the ``block_size`` strided views of ``a`` along ``axis``."""
    views = [
        a[(slice(None),) * axis + (slice(k, None, block_size),)]
        for k in range(block_size)
    ]
    out = combine(views[0], views[1])
    for view in views[2:]:
        combine(out, view, out=out)
    return out


def extract_features(data, stride: int = 1) -> FeatureVector:
    """The five features of the stride-K sample of a float64 copy."""
    sampled = uniform_sample(np.asarray(data, dtype=np.float64), stride)
    if sampled.size == 1:
        return FeatureVector(0.0, float(sampled.reshape(())), 0.0, 0.0, 0.0)
    return FeatureVector(
        value_range=float(np.ptp(sampled)),
        mean_value=float(sampled.mean()),
        mnd=difference_pass(sampled)[0],
        mld=mean_lorenzo_difference(sampled),
        msd=mean_spline_difference(sampled),
    )


def gradient_features(data, stride: int = 1) -> tuple[float, float, float]:
    """The gradient trio of the stride-K sample of a float64 copy."""
    sampled = uniform_sample(np.asarray(data, dtype=np.float64), stride)
    return difference_pass(sampled)[1]


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
        hi = fold(hi, axis, block_size, np.maximum)
        lo = fold(lo, axis, block_size, np.minimum)
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
