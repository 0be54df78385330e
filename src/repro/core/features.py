"""Feature extraction (paper Sec. IV-C) with uniform sampling (IV-E1).

Eight candidate features are computed; the five the paper adopts
(value range, mean value, MND, MLD, MSD) are exposed as the model
input, while the three gradient features exist for the Table II
correlation study that justifies excluding them.

All features are computed on a stride-K uniform subsample of the grid
(K=4 -> ~1.5 % of points in 3-D), which the paper shows costs almost
no accuracy while cutting analysis time ~20x. The field is read in its
own dtype: only the sampled lattice is cast to float64, so a float32
field never makes a full-size float64 copy. The cast commutes with
slicing, so every feature is bit-identical to casting first and
sampling after (see :func:`_sample_mean` for the one reduction whose
summation order needs care).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.compressors.predictors import lorenzo_residuals
from repro.errors import InvalidConfiguration

#: All candidate features, in presentation order (Table II columns).
FEATURE_NAMES = (
    "value_range",
    "mean_value",
    "mnd",
    "mld",
    "msd",
    "mean_gradient",
    "min_gradient",
    "max_gradient",
)

#: The five features FXRZ adopts (Sec. IV-C conclusion).
SELECTED_FEATURES = ("value_range", "mean_value", "mnd", "mld", "msd")


@dataclass(frozen=True)
class FeatureVector:
    """The eight candidate features of one dataset."""

    value_range: float
    mean_value: float
    mnd: float
    mld: float
    msd: float
    mean_gradient: float
    min_gradient: float
    max_gradient: float

    def selected(self) -> np.ndarray:
        """The five adopted features as a model-input vector."""
        return np.array([getattr(self, n) for n in SELECTED_FEATURES])

    def all_features(self) -> np.ndarray:
        """All eight candidate features (Table II study)."""
        return np.array([getattr(self, n) for n in FEATURE_NAMES])


def uniform_sample(data: np.ndarray, stride: int) -> np.ndarray:
    """Stride-K uniform sampling along every axis (Fig. 5).

    Keeps the grid structure so neighbor-based features stay
    well-defined on the subsampled lattice.
    """
    if stride < 1:
        raise InvalidConfiguration("stride must be >= 1")
    if stride == 1:
        return data
    key = tuple(slice(0, None, stride) for _ in data.shape)
    sampled = data[key]
    # Never sample below the minimum lattice the features need.
    if any(n < 2 for n in sampled.shape):
        return data
    return sampled


def _sample_mean(
    field: np.ndarray, view: np.ndarray, sampled: np.ndarray
) -> float:
    """Mean of the sample, summed as on a float64 copy of the field.

    numpy's summation order follows the array's layout: a contiguous
    array is summed pairwise as one run, a strided N-D view in
    buffer-sized runs. The reference is the strided view of a float64
    copy of ``field``; reducing the un-cast strided ``view`` with a
    float64 accumulator sums it in the same order. A sample that is the
    whole field, or 1-D, is one run there, so its contiguous float64
    cast ``sampled`` is reduced instead.
    """
    if view is field or view.ndim == 1:
        return float(sampled.mean())
    return float(view.mean(dtype=np.float64))


def _difference_pass(
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


def _mean_neighbor_difference(data: np.ndarray) -> float:
    """Mean |value - mean(face neighbors)| over all points."""
    return _difference_pass(data)[0]


def _mean_lorenzo_difference(data: np.ndarray) -> float:
    """Mean |value - Lorenzo prediction| on the interior (Eqs. 1-2)."""
    residuals = lorenzo_residuals(data)
    interior = tuple(slice(1, None) if n > 1 else slice(None) for n in data.shape)
    region = residuals[interior]
    if region.size == 0:
        region = residuals
    return float(np.mean(np.abs(region)))


def _mean_spline_difference(data: np.ndarray) -> float:
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
        return _mean_neighbor_difference(data)
    avg_fit = fit_sum[covered] / fit_count[covered]
    return float(np.mean(np.abs(data[covered] - avg_fit)))


def extract_features(data: np.ndarray, stride: int = 1) -> FeatureVector:
    """Compute the eight candidate features on a stride-K subsample.

    Raises:
        InvalidConfiguration: empty input, or non-finite values in the
            sampled view — NaN/Inf would silently poison every feature
            and, downstream, the model's prediction. Callers with dirty
            fields should patch them first
            (:func:`repro.robustness.validate_field`).
    """
    data = np.asarray(data)
    if data.size == 0:
        raise InvalidConfiguration("cannot extract features from empty data")
    with obs.span("features.extract", stride=int(stride)) as span:
        view = uniform_sample(data, stride)
        sampled = np.asarray(view, dtype=np.float64)
        span.set_attribute("points", int(sampled.size))
        if not np.isfinite(sampled).all():
            raise InvalidConfiguration(
                "field contains non-finite values in its sampled view; "
                "patch or reject it (repro.robustness.validate_field) "
                "before extracting features"
            )
        if sampled.size == 1:
            # A single point has no neighbors: every difference-based
            # feature is degenerate. Report the well-defined zeros instead
            # of dividing by an empty neighbor count.
            value = float(sampled.reshape(()))
            return FeatureVector(0.0, value, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        mnd, (mean_grad, min_grad, max_grad) = _difference_pass(sampled)
        return FeatureVector(
            value_range=float(np.ptp(sampled)),
            mean_value=_sample_mean(data, view, sampled),
            mnd=mnd,
            mld=_mean_lorenzo_difference(sampled),
            msd=_mean_spline_difference(sampled),
            mean_gradient=mean_grad,
            min_gradient=min_grad,
            max_gradient=max_grad,
        )
