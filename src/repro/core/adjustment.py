"""Compressibility Adjustment — CA (paper Sec. IV-E2, Fig. 6-7).

Smooth (near-constant) regions compress to almost nothing and distort
the relationship between global statistics and achievable ratio. CA
splits the grid into small cubic blocks, classifies each block as
*constant* when its value range falls below ``lambda * |mean value|``
(Table IV: lambda = 0.15 is optimal), and rescales the user's target
ratio by the non-constant fraction R:

    ACR = TCR * R        (Formula 4)
"""

from __future__ import annotations

import numpy as np

from repro.config import DEFAULT_BLOCK_SIZE, DEFAULT_LAMBDA
from repro.errors import InvalidConfiguration


def _block_ranges(data: np.ndarray, block_size: int) -> np.ndarray:
    """Per-block value range; trailing partial blocks are edge-padded.

    Folds one axis at a time: the ``block_size`` strided views
    ``a[..., k::block_size, ...]`` are combined elementwise with
    ``np.maximum``/``np.minimum``, shrinking that axis by
    ``block_size`` without a transposed copy of the field.
    """
    pad = [(0, (-n) % block_size) for n in data.shape]
    if any(p[1] for p in pad):
        data = np.pad(data, pad, mode="edge")
    hi = lo = data
    for axis in range(data.ndim):
        hi = _fold(hi, axis, block_size, np.maximum)
        lo = _fold(lo, axis, block_size, np.minimum)
    return hi - lo


def _fold(a: np.ndarray, axis: int, block_size: int, combine) -> np.ndarray:
    """``combine`` the ``block_size`` strided views of ``a`` along ``axis``."""
    views = [
        a[(slice(None),) * axis + (slice(k, None, block_size),)]
        for k in range(block_size)
    ]
    out = combine(views[0], views[1])
    for view in views[2:]:
        combine(out, view, out=out)
    return out


def constant_block_mask(
    data: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
    lam: float = DEFAULT_LAMBDA,
) -> np.ndarray:
    """Boolean block grid: True where a block is constant (Fig. 6)."""
    if block_size < 2:
        raise InvalidConfiguration("block_size must be >= 2")
    if not 0.0 < lam < 1.0:
        raise InvalidConfiguration("lam must be in (0, 1)")
    data = np.asarray(data, dtype=np.float64)
    threshold = lam * abs(float(data.mean()))
    ranges = _block_ranges(data, block_size)
    return ranges <= threshold


def nonconstant_fraction(
    data: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
    lam: float = DEFAULT_LAMBDA,
) -> float:
    """R: fraction of non-constant blocks in the dataset."""
    mask = constant_block_mask(data, block_size=block_size, lam=lam)
    return float(1.0 - mask.mean())


def adjusted_ratio(target_ratio: float, nonconstant: float) -> float:
    """Formula (4): ACR = TCR * R, floored to stay a valid ratio.

    A small-but-positive R legitimately clamps the adjusted target to
    the 1.0 floor (an almost-constant dataset still carries *some*
    information). R exactly 0 means every block is constant: any error
    bound reproduces the field and ACR = 0 is not a ratio the model was
    ever trained on, so the degenerate query is rejected outright.
    """
    if target_ratio <= 0:
        raise InvalidConfiguration("target ratio must be > 0")
    if not 0.0 <= nonconstant <= 1.0:
        raise InvalidConfiguration("nonconstant fraction must be in [0, 1]")
    if nonconstant == 0.0:
        raise InvalidConfiguration(
            "dataset is entirely constant (non-constant block fraction "
            "R = 0): the adjusted target ACR = TCR * R degenerates to 0, "
            "which no trained model can answer; compress the field with "
            "any error bound instead of estimating one"
        )
    return max(target_ratio * nonconstant, 1.0)
