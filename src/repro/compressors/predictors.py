"""Spatial predictors shared by the compressors and the feature extractor.

* :func:`lorenzo_residuals` / :func:`lorenzo_reconstruct` — the Lorenzo
  predictor of paper Eqs. (1)-(2). The residual of the d-dimensional
  Lorenzo predictor is exactly the d-dimensional finite-difference
  operator, so its inverse is d nested cumulative sums — both directions
  are fully vectorized and, on integer arrays, exact.
* :func:`interp_prediction_linear` / :func:`interp_prediction_cubic` —
  the midpoint interpolation used by the SZ-like multilevel compressor;
  the cubic weights (-1/16, 9/16, 9/16, -1/16) are the paper's Eq. (3).
  One call predicts one full pyramid step: the midpoints ``half, 3*half,
  ...`` of one axis. Every neighbour of midpoint ``j`` sits at a multiple
  ``(j-1, j, j+1, j+2) * 2*half`` of the stride, so each is read as a
  basic (strided, copy-free) slice of the reconstruction; the cubic
  formula runs only on the interior midpoints that have all four
  neighbours, the linear fallback only on the one to three edge planes.
"""

from __future__ import annotations

import numpy as np


def lorenzo_residuals(array: np.ndarray) -> np.ndarray:
    """d-dimensional finite difference (Lorenzo prediction residual).

    ``residual = array - lorenzo_prediction`` where the prediction uses
    the inclusion-exclusion of the preceding-neighbor hypercube. Border
    points take phantom zero neighbors, matching SZ's convention.
    """
    residual = np.asarray(array)
    for axis in range(residual.ndim):
        # np.diff(residual, axis=axis, prepend=0) without its Python
        # wrapper. The zero plane must stay a C-ordered default-int
        # array: its dtype promotes the residuals as prepend=0 does, and
        # its strides vote on np.concatenate's output layout, which sets
        # the order MLD's mean sums in.
        plane = list(residual.shape)
        plane[axis] = 1
        padded = np.concatenate(
            (np.zeros(plane, dtype=int), residual), axis=axis
        )
        residual = np.subtract(
            _planes(padded, axis, 1, None), _planes(padded, axis, None, -1)
        )
    return residual


def lorenzo_reconstruct(residuals: np.ndarray) -> np.ndarray:
    """Invert :func:`lorenzo_residuals` via nested cumulative sums."""
    out = np.asarray(residuals)
    for axis in range(out.ndim):
        out = np.cumsum(out, axis=axis)
    return out


def lorenzo_prediction(array: np.ndarray) -> np.ndarray:
    """The Lorenzo prediction itself (array minus its residual)."""
    array = np.asarray(array, dtype=np.float64)
    return array - lorenzo_residuals(array)


def _planes(array: np.ndarray, axis: int, start: int, stop: int, step: int = 1):
    """Basic-slice view of ``array[start:stop:step]`` along ``axis``."""
    key = [slice(None)] * array.ndim
    key[axis] = slice(start, stop, step)
    return array[tuple(key)]


def _fill_linear(
    recon: np.ndarray, axis: int, half: int, out: np.ndarray, lo: int, hi: int
) -> None:
    """Linear predictions of midpoints ``lo .. hi-1`` into ``out``'s planes.

    Midpoint ``j`` (index ``j*cur + half``, ``cur = 2*half``) averages its
    neighbours at ``j*cur`` and ``(j+1)*cur``; those past the last
    point, which have no right neighbour, take the left value.
    """
    cur = 2 * half
    split = min(hi, max(lo, (recon.shape[axis] - 1) // cur))
    if split > lo:
        both = _planes(out, axis, lo, split)
        np.add(
            _planes(recon, axis, lo * cur, split * cur, cur),
            _planes(recon, axis, (lo + 1) * cur, (split + 1) * cur, cur),
            out=both,
        )
        np.multiply(both, 0.5, out=both)
    if hi > split:
        _planes(out, axis, split, hi)[...] = _planes(
            recon, axis, split * cur, hi * cur, cur
        )


def _prediction_buffer(recon: np.ndarray, axis: int, half: int) -> np.ndarray:
    """Uninitialized output: one plane per midpoint ``half, 3*half, ...``."""
    shape = list(recon.shape)
    shape[axis] = len(range(half, recon.shape[axis], 2 * half))
    return np.empty(shape, dtype=np.float64)


def interp_prediction_linear(
    recon: np.ndarray, axis: int, half: int
) -> np.ndarray:
    """Linear prediction of the midpoints ``half, 3*half, ...`` of ``axis``.

    ``recon`` must already hold reconstructed values at the multiples
    of ``2*half`` along ``axis``; a midpoint without a right neighbour
    takes its left one. Returns one plane per midpoint.
    """
    out = _prediction_buffer(recon, axis, half)
    _fill_linear(recon, axis, half, out, 0, out.shape[axis])
    return out


def interp_prediction_cubic(
    recon: np.ndarray, axis: int, half: int
) -> np.ndarray:
    """Cubic-spline midpoint prediction (paper Eq. 3) with linear fallback.

    Uses neighbors at distances -3h, -h, +h, +3h with weights
    (-1/16, 9/16, 9/16, -1/16). The first midpoint and the last one or
    two lack an outer neighbour and take the linear prediction of
    :func:`interp_prediction_linear`.
    """
    out = _prediction_buffer(recon, axis, half)
    count = out.shape[axis]
    cur = 2 * half
    # Midpoints 1 <= j < inner have all four neighbours (j-1)*cur,
    # j*cur, (j+1)*cur and (j+2)*cur inside the axis.
    inner = max(1, (recon.shape[axis] - 1) // cur - 1)
    if inner > 1:
        mid = _planes(out, axis, 1, inner)
        # (-m3 + 9*m1 + 9*p1 - p3) / 16, evaluated left to right
        # (9*m1 - m3 is -m3 + 9*m1 exactly).
        np.multiply(_planes(recon, axis, cur, inner * cur, cur), 9.0, out=mid)
        np.subtract(mid, _planes(recon, axis, 0, (inner - 1) * cur, cur), out=mid)
        mid += 9.0 * _planes(recon, axis, 2 * cur, (inner + 1) * cur, cur)
        mid -= _planes(recon, axis, 3 * cur, (inner + 2) * cur, cur)
        mid /= 16.0
        _fill_linear(recon, axis, half, out, 0, 1)
        _fill_linear(recon, axis, half, out, inner, count)
    else:
        _fill_linear(recon, axis, half, out, 0, count)
    return out
