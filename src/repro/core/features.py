"""Feature extraction (paper Sec. IV-C) with uniform sampling (IV-E1).

:func:`extract_features` computes the five features the paper adopts
(value range, mean value, MND, MLD, MSD), the model's input.
:func:`gradient_features` computes the three gradient features it
rejects; only the Table II correlation study and the feature ablation
read them, so no estimate or training run pays for them.

All features are computed on a stride-K uniform subsample of the grid
(K=4 -> ~1.5 % of points in 3-D), which the paper shows costs almost
no accuracy while cutting analysis time ~20x. The field is read in its
own dtype: only the sampled lattice is cast to float64, so a float32
field never makes a full-size float64 copy. The cast commutes with
slicing, so every feature is bit-identical to casting first and
sampling after (see :func:`_sample_mean` for the one reduction whose
summation order needs care). The neighbour and spline-fit counts
depend only on the sample's shape, so they are built from it as
float64 arrays instead of being counted point by point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.compressors.predictors import lorenzo_residuals
from repro.errors import InvalidConfiguration

#: All candidate features, in presentation order (Table II columns):
#: the five of :class:`FeatureVector`, then the gradient trio of
#: :func:`gradient_features`.
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
    """The five adopted features of one dataset."""

    value_range: float
    mean_value: float
    mnd: float
    mld: float
    msd: float

    def selected(self) -> np.ndarray:
        """The five adopted features as a model-input vector."""
        return np.array([getattr(self, n) for n in SELECTED_FEATURES])


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


def _mean_neighbor_difference(data: np.ndarray) -> float:
    """Mean |value - mean(face neighbors)| over all points.

    Neighbour sums accumulate axis by axis, the forward slab then the
    backward one. A point has two neighbours along each axis of length
    >= 2, one fewer on each of that axis's boundary faces; axes shorter
    than 2 contribute nothing. ``data`` has at least two points, so
    some axis has length >= 2 and every count is positive.
    """
    axes = [axis for axis, n in enumerate(data.shape) if n >= 2]
    neighbor_sum = np.zeros_like(data)
    count = np.full(data.shape, 2.0 * len(axes))
    for axis in axes:
        pre = (slice(None),) * axis
        lo, hi = pre + (slice(0, -1),), pre + (slice(1, None),)
        neighbor_sum[lo] += data[hi]
        neighbor_sum[hi] += data[lo]
        # The first and last plane: a step of n - 1 selects both.
        count[pre + (slice(0, None, data.shape[axis] - 1),)] -= 1.0
    np.divide(neighbor_sum, count, out=neighbor_sum)
    np.subtract(data, neighbor_sum, out=neighbor_sum)
    np.abs(neighbor_sum, out=neighbor_sum)
    return float(neighbor_sum.mean())


def _mean_lorenzo_difference(data: np.ndarray) -> float:
    """Mean |value - Lorenzo prediction| on the interior (Eqs. 1-2)."""
    residuals = lorenzo_residuals(data)
    interior = tuple(slice(1, None) if n > 1 else slice(None) for n in data.shape)
    return float(np.mean(np.abs(residuals[interior])))


def _mean_spline_difference(data: np.ndarray) -> float:
    """Mean |value - cross-axis average of the Eq. 3 spline fit|.

    For each axis with length > 6, the cubic fit
    (-d[i-3] + 9 d[i-1] + 9 d[i+1] - d[i+3]) / 16 is evaluated on that
    axis's interior; per point, fits from all applicable axes are
    averaged before the difference is taken. The stencil runs in place
    in that operation order (``9 d[i-1] - d[i-3]`` is ``-d[i-3] +
    9 d[i-1]`` exactly). Points no stencil covers divide 0 by 0; the
    final gather drops them.
    """
    axes = [axis for axis, n in enumerate(data.shape) if n > 6]
    if not axes:
        # Grid too small for any cubic stencil; degrade to MND, the
        # closest smoothness proxy.
        return _mean_neighbor_difference(data)
    fit_sum = np.zeros_like(data)
    count = np.zeros(data.shape)
    for axis in axes:
        n = data.shape[axis]
        pre = (slice(None),) * axis

        def shifted(offset: int) -> np.ndarray:
            return data[pre + (slice(3 + offset, n - 3 + offset),)]

        fit = np.multiply(shifted(-1), 9.0)
        fit -= shifted(-3)
        fit += np.multiply(shifted(1), 9.0)
        fit -= shifted(3)
        fit /= 16.0
        target = pre + (slice(3, n - 3),)
        fit_sum[target] += fit
        count[target] += 1.0
    covered = count > 0
    with np.errstate(invalid="ignore"):
        np.divide(fit_sum, count, out=fit_sum)
    np.subtract(data, fit_sum, out=fit_sum)
    np.abs(fit_sum, out=fit_sum)
    return float(np.mean(fit_sum[covered]))


def _float64_sample(
    data, stride: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``data`` as an array, its stride-K view and the view's float64 cast.

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
    view = uniform_sample(data, stride)
    sampled = np.asarray(view, dtype=np.float64)
    if not np.isfinite(sampled).all():
        raise InvalidConfiguration(
            "field contains non-finite values in its sampled view; "
            "patch or reject it (repro.robustness.validate_field) "
            "before extracting features"
        )
    return data, view, sampled


def extract_features(data: np.ndarray, stride: int = 1) -> FeatureVector:
    """Compute the five adopted features on a stride-K subsample.

    Raises:
        InvalidConfiguration: empty input, or non-finite values in the
            sampled view (see :func:`_float64_sample`).
    """
    with obs.span("features.extract", stride=int(stride)) as span:
        data, view, sampled = _float64_sample(data, stride)
        span.set_attribute("points", int(sampled.size))
        if sampled.size == 1:
            # A single point has no neighbors: every difference-based
            # feature is degenerate. Report the well-defined zeros instead
            # of dividing by an empty neighbor count.
            return FeatureVector(0.0, float(sampled.reshape(())), 0.0, 0.0, 0.0)
        return FeatureVector(
            value_range=float(np.ptp(sampled)),
            mean_value=_sample_mean(data, view, sampled),
            mnd=_mean_neighbor_difference(sampled),
            mld=_mean_lorenzo_difference(sampled),
            msd=_mean_spline_difference(sampled),
        )


def gradient_features(
    data: np.ndarray, stride: int = 1
) -> tuple[float, float, float]:
    """``(mean, min, max)`` |first difference| over every axis of the sample.

    The three gradient features of Table II, which the paper rejects;
    the model never reads them. Differences of every axis of length
    >= 2 are pooled; a single-point sample reports zeros. Raises as
    :func:`extract_features` does.
    """
    sampled = _float64_sample(data, stride)[2]
    total = 0.0
    count = 0
    grad_lo = np.inf
    grad_hi = 0.0
    for axis, n in enumerate(sampled.shape):
        if n < 2:
            continue
        pre = (slice(None),) * axis
        # A C-ordered slab: how its sum rounds does not depend on the
        # field's layout.
        diff = np.subtract(
            sampled[pre + (slice(1, None),)],
            sampled[pre + (slice(0, -1),)],
            order="C",
        )
        np.abs(diff, out=diff)
        total += float(diff.sum())
        count += diff.size
        grad_lo = min(grad_lo, float(diff.min()))
        grad_hi = max(grad_hi, float(diff.max()))
    if count == 0:
        return 0.0, 0.0, 0.0
    return total / count, float(grad_lo), grad_hi
