"""Compressibility Adjustment — CA (paper Sec. IV-E2, Fig. 6-7).

Smooth (near-constant) regions compress to almost nothing and distort
the relationship between global statistics and achievable ratio. CA
splits the grid into small cubic blocks, classifies each block as
*constant* when its value range falls below ``lambda * |mean value|``
(Table IV: lambda = 0.15 is optimal), and rescales the user's target
ratio by the non-constant fraction R:

    ACR = TCR * R        (Formula 4)

The block scan reads the field in its own floating dtype: per-block
max/min never round and the float64 cast is monotone, so folding a
float32 field and casting only the per-block extremes gives the same
ranges as casting first. The threshold's mean is summed in the exact
pairwise order numpy uses on a float64 copy (:func:`_field_mean`),
from float64 casts of one bounded chunk at a time, so no full-field
float64 copy is made and every mask and R stay bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro.config import DEFAULT_BLOCK_SIZE, DEFAULT_LAMBDA
from repro.errors import InvalidConfiguration

#: Largest subtree of numpy's pairwise sum that :func:`_field_mean`
#: casts into its float64 buffer at once (256 KiB of scratch).
_MEAN_CHUNK = 32768


def _block_ranges(data: np.ndarray, block_size: int) -> np.ndarray:
    """Per-block value range; a trailing partial block spans what is left.

    Folds one axis at a time with :func:`_fold`, in ``data``'s own
    dtype and without copying the field; only the final subtraction is
    float64. A trailing partial block's range is that of the values it
    holds, which is what edge-padding it to ``block_size`` would give.
    """
    hi = lo = data
    for axis in range(data.ndim):
        hi = _fold(hi, axis, block_size, np.maximum)
        lo = _fold(lo, axis, block_size, np.minimum)
    # An all-Inf block's range is Inf - Inf = NaN; the caller rejects
    # every non-finite range, so the warning would only repeat it.
    with np.errstate(invalid="ignore"):
        return np.subtract(hi, lo, dtype=np.float64)


def _fold(a: np.ndarray, axis: int, block_size: int, combine) -> np.ndarray:
    """``combine`` each run of ``block_size`` planes of ``a`` along ``axis``.

    The ``block_size`` strided views ``a[..., k:full:block_size, ...]``
    over the whole blocks are combined elementwise, which shrinks the
    axis without a transposed copy of the field. A short trailing run is
    reduced on its own and appended.
    """
    n = a.shape[axis]
    full = n - n % block_size
    pre = (slice(None),) * axis
    out = combine(
        a[pre + (slice(0, full, block_size),)],
        a[pre + (slice(1, full, block_size),)],
    )
    for k in range(2, block_size):
        combine(out, a[pre + (slice(k, full, block_size),)], out=out)
    if full < n:
        tail = a[pre + (slice(full, None),)]
        out = np.concatenate(
            (out, combine.reduce(tail, axis=axis, keepdims=True)), axis=axis
        )
    return out


def _field_mean(data: np.ndarray) -> float:
    """``np.asarray(data, np.float64).mean()``, bit for bit, without the copy.

    numpy sums a contiguous float64 array pairwise, splitting a run of
    ``n`` at ``n // 2 - (n // 2) % 8``. For a C-contiguous field of a
    narrower dtype, :func:`_pairwise_sum` walks that same tree and casts
    only subtrees of at most ``_MEAN_CHUNK`` elements into one reused
    float64 buffer, so the sum rounds exactly as the full copy's would.
    float64, non-C-contiguous and small fields take the plain expression.
    """
    if (
        data.dtype == np.float64
        or not data.flags.c_contiguous
        or data.size <= _MEAN_CHUNK
    ):
        return float(np.asarray(data, dtype=np.float64).mean())
    buffer = np.empty(_MEAN_CHUNK, dtype=np.float64)
    return _pairwise_sum(data.reshape(-1), buffer) / data.size


def _pairwise_sum(flat: np.ndarray, buffer: np.ndarray) -> float:
    """Sum of ``flat`` in numpy's pairwise order for a float64 run."""
    n = flat.size
    if n <= buffer.size:
        chunk = buffer[:n]
        np.copyto(chunk, flat)
        return float(np.add.reduce(chunk))
    half = n // 2
    half -= half % 8
    return _pairwise_sum(flat[:half], buffer) + _pairwise_sum(
        flat[half:], buffer
    )


def constant_block_mask(
    data: np.ndarray,
    block_size: int = DEFAULT_BLOCK_SIZE,
    lam: float = DEFAULT_LAMBDA,
) -> np.ndarray:
    """Boolean block grid: True where a block is constant (Fig. 6).

    Raises:
        InvalidConfiguration: non-finite values anywhere in the field —
            a NaN would make the threshold NaN (no block constant, R = 1)
            and an Inf would make it infinite (every block constant,
            R = 0). NaN and Inf propagate through the block folds, so a
            non-finite block range is the check.
    """
    if block_size < 2:
        raise InvalidConfiguration("block_size must be >= 2")
    if not 0.0 < lam < 1.0:
        raise InvalidConfiguration("lam must be in (0, 1)")
    data = np.asarray(data)
    if data.dtype.kind != "f":
        data = np.asarray(data, dtype=np.float64)
    threshold = lam * abs(_field_mean(data))
    ranges = _block_ranges(data, block_size)
    if not np.isfinite(ranges).all():
        raise InvalidConfiguration(
            "field contains non-finite values in its constant-block scan; "
            "patch or reject it (repro.robustness.validate_field) "
            "before the compressibility adjustment"
        )
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
