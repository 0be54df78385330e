"""Gather-based interpolation predictors: the oracle for the sliced ones.

:func:`repro.compressors.predictors.interp_prediction_linear` and
:func:`~repro.compressors.predictors.interp_prediction_cubic` read every
neighbour as a basic slice of the reconstruction and evaluate the cubic
formula only where all four neighbours exist. This module keeps the
plain formulation they must match bit for bit: gather each neighbour at
explicit (clipped) indices with ``np.take``, evaluate both formulas on
the whole slab, and select per midpoint with ``np.where``. Unlike the
sliced predictors these take an arbitrary ``new_idx`` subset;
:func:`oracle_predictors` runs SZ and MGARD through them on full steps.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.compressors import mgard, sz


def midpoints(n: int, half: int) -> np.ndarray:
    """The midpoint indices ``half, 3*half, ...`` below ``n``."""
    return np.arange(half, n, 2 * half, dtype=np.int64)


def interp_prediction_linear(
    recon: np.ndarray, axis: int, new_idx: np.ndarray, half: int
) -> np.ndarray:
    """Linear midpoint prediction along ``axis`` at indices ``new_idx``.

    ``recon`` must already hold reconstructed values at ``new_idx - half``
    and (where in range) ``new_idx + half``; out-of-range right neighbors
    fall back to the left value.
    """
    n = recon.shape[axis]
    left = np.take(recon, new_idx - half, axis=axis)
    right_idx = np.minimum(new_idx + half, np.int64(n - 1))
    right = np.take(recon, right_idx, axis=axis)
    has_right = new_idx + half < n
    shape = [1] * recon.ndim
    shape[axis] = new_idx.size
    has_right = has_right.reshape(shape)
    return np.where(has_right, 0.5 * (left + right), left)


def interp_prediction_cubic(
    recon: np.ndarray, axis: int, new_idx: np.ndarray, half: int
) -> np.ndarray:
    """Cubic-spline midpoint prediction (paper Eq. 3) with linear fallback.

    Uses neighbors at distances -3h, -h, +h, +3h with weights
    (-1/16, 9/16, 9/16, -1/16); points lacking the outer neighbors fall
    back to :func:`interp_prediction_linear`.
    """
    n = recon.shape[axis]
    linear = interp_prediction_linear(recon, axis, new_idx, half)
    ok = (new_idx - 3 * half >= 0) & (new_idx + 3 * half < n)
    if not ok.any():
        return linear
    clip = lambda idx: np.clip(idx, 0, n - 1)  # noqa: E731 - local helper
    d_m3 = np.take(recon, clip(new_idx - 3 * half), axis=axis)
    d_m1 = np.take(recon, clip(new_idx - half), axis=axis)
    d_p1 = np.take(recon, clip(new_idx + half), axis=axis)
    d_p3 = np.take(recon, clip(new_idx + 3 * half), axis=axis)
    cubic = (-d_m3 + 9.0 * d_m1 + 9.0 * d_p1 - d_p3) / 16.0
    shape = [1] * recon.ndim
    shape[axis] = new_idx.size
    return np.where(ok.reshape(shape), cubic, linear)


def _on_full_steps(predict):
    """``predict`` under the sliced predictors' ``(recon, axis, half)``."""

    def full_step(recon, axis, half):
        return predict(recon, axis, midpoints(recon.shape[axis], half), half)

    return full_step


@contextmanager
def oracle_predictors():
    """Route SZ's and MGARD's encode and decode through this module."""
    linear = _on_full_steps(interp_prediction_linear)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sz, "interp_prediction_linear", linear)
        patch.setattr(
            sz, "interp_prediction_cubic", _on_full_steps(interp_prediction_cubic)
        )
        patch.setattr(mgard, "interp_prediction_linear", linear)
        yield
