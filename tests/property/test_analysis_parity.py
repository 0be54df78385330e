"""In-dtype vs full-cast analysis parity: the analysis must be bit-identical.

Feature extraction casts only the stride-K sample to float64 and
derives its neighbour and fit counts from the shape, the CA block scan
folds in the field's own floating dtype without padding and sums its
threshold mean chunk by chunk, and the dataset fingerprint hashes a
float64 cast of the sample alone; :mod:`tests.analysis_oracle` keeps
the cast-the-whole-field formulation and its own copy of the earlier
kernels. Their contract is bit-identity — the five features, the
gradient trio, the block mask, R, the threshold mean and the
fingerprint — across dtypes, memory layouts, ranks and strides, with
samples on both sides of numpy's 8,192-element reduction buffer and
fields on both sides of the mean's 32,768-element cast chunk. A
hypothesis test adds short axes (the no-neighbour and spline-stencil
edges) in every layout.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adjustment import (
    _MEAN_CHUNK,
    _block_ranges,
    _field_mean,
    constant_block_mask,
    nonconstant_fraction,
)
from repro.core import features
from repro.serving.cache import dataset_fingerprint
from tests import analysis_oracle

pytestmark = pytest.mark.kernels

#: Per rank, a field under and one over ``_MEAN_CHUNK`` elements; the
#: large ones' stride-2 samples (1-D: every stride) exceed 8,192 points.
SHAPES = {
    1: [(1000,), (50_003,)],
    2: [(30, 41), (301, 230)],
    3: [(10, 12, 14), (50, 41, 36)],
    4: [(6, 5, 7, 4), (21, 18, 16, 8)],
}
DTYPES = [np.float32, np.float64, np.int32, np.int64]
LAYOUTS = ["C", "F", "step2", "reversed"]
STRIDES = [1, 2, 3, 4, 5]


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


def _analysis(module, field, stride: int) -> np.ndarray:
    """The five features, then the gradient trio, as ``module`` computes them."""
    five = module.extract_features(field, stride=stride).selected()
    return np.concatenate((five, module.gradient_features(field, stride)))


def _field(shape, dtype, layout: str, seed: int, wide=False) -> np.ndarray:
    """A field with constant and non-constant CA blocks in ``layout``.

    ``wide`` spreads float values over twelve decades, so float64 sums
    of their float32 casts round and summation order shows.
    """
    rng = np.random.default_rng(seed)
    base_shape = (2 * shape[0],) + shape[1:] if layout == "step2" else shape
    # Quiet (constant) blocks everywhere but the field's last plane of
    # axis 0, which is loud and offset.
    noise = 0.02 * rng.standard_normal(base_shape)
    loud = base_shape[0] - (2 if layout == "step2" else 1)
    noise[loud] = 3.0 + rng.standard_normal(base_shape[1:])
    if np.dtype(dtype).kind == "f":
        values = 10.0 + 3.0 * noise
        if wide:
            values *= 10.0 ** rng.uniform(0.0, 12.0, base_shape)
    else:
        # Integer fields: large magnitudes, int64 beyond 2**53 so the
        # float64 cast rounds.
        offset = 2**55 if dtype == np.int64 else 2**24
        values = offset + np.rint(offset / 2 * noise)
    base = values.astype(dtype)
    if layout == "F":
        field = np.asfortranarray(base)
    elif layout == "step2":
        field = base[::2]
    elif layout == "reversed":
        field = base[(slice(None, None, -1),) * base.ndim]
    else:
        field = base
    assert field.shape == shape
    return field


GRID = [
    pytest.param(
        shape,
        dtype,
        layout,
        id=f"{np.dtype(dtype).name}-{layout}-{'x'.join(map(str, shape))}",
    )
    for rank in SHAPES
    for shape in SHAPES[rank]
    for dtype in DTYPES
    for layout in LAYOUTS
]


@pytest.mark.parametrize("shape,dtype,layout", GRID)
def test_features_and_fingerprint_match_full_cast(shape, dtype, layout):
    field = _field(shape, dtype, layout, seed=len(shape), wide=True)
    for stride in STRIDES:
        got = _analysis(features, field, stride)
        want = _analysis(analysis_oracle, field, stride)
        assert got.tobytes() == want.tobytes(), (stride, got, want)
        assert dataset_fingerprint(field, stride) == (
            analysis_oracle.dataset_fingerprint(field, stride)
        ), stride


@given(
    shape=st.lists(st.sampled_from([1, 2, 3, 6, 7, 8]), min_size=1, max_size=4),
    dtype=st.sampled_from([np.float32, np.float64]),
    layout=st.sampled_from(LAYOUTS),
    stride=st.integers(1, 5),
    block_size=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_short_axes_match_oracle_kernels(
    shape, dtype, layout, stride, block_size, seed
):
    """Axes of 1-3 points (no neighbour, or none sampled past the first)
    and of 6-8 (either side of the spline stencil's ``n > 6``), in every
    layout: the kernels match the oracle's copies bit for bit."""
    field = _field(tuple(shape), dtype, layout, seed=seed, wide=True)
    got = _analysis(features, field, stride)
    want = _analysis(analysis_oracle, field, stride)
    assert got.tobytes() == want.tobytes(), (got, want)
    np.testing.assert_array_equal(
        _block_ranges(field, block_size),
        analysis_oracle.block_ranges(field, block_size),
    )


@pytest.mark.parametrize("shape,dtype,layout", GRID)
@pytest.mark.parametrize("block_size", [4, 5])
def test_block_scan_matches_full_cast(shape, dtype, layout, block_size):
    field = _field(shape, dtype, layout, seed=len(shape))
    lam = 0.15
    assert _bits(_field_mean(field)) == _bits(analysis_oracle.field_mean(field))
    np.testing.assert_array_equal(
        _block_ranges(field, block_size),
        analysis_oracle.block_ranges(field, block_size),
    )
    mask = constant_block_mask(field, block_size=block_size, lam=lam)
    want = analysis_oracle.constant_block_mask(field, block_size, lam)
    np.testing.assert_array_equal(mask, want)
    r = nonconstant_fraction(field, block_size=block_size, lam=lam)
    assert _bits(r) == _bits(
        analysis_oracle.nonconstant_fraction(field, block_size, lam)
    )
    assert 0.0 < r < 1.0


@pytest.mark.parametrize(
    "size",
    [
        _MEAN_CHUNK,
        _MEAN_CHUNK + 1,
        2 * _MEAN_CHUNK + 7,
        5 * _MEAN_CHUNK + 131,
        1_000_003,
    ],
)
@pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int16])
def test_chunked_mean_matches_float64_copy(size, dtype):
    rng = np.random.default_rng(size)
    values = 1e3 * rng.standard_normal(size) + 7.0
    if dtype == np.float32:
        values *= 10.0 ** rng.uniform(0.0, 12.0, size)
    field = values.astype(dtype)
    assert _bits(_field_mean(field)) == _bits(analysis_oracle.field_mean(field))
    cube = field[: (size // 64) * 64].reshape(-1, 8, 8)
    assert _bits(_field_mean(cube)) == _bits(analysis_oracle.field_mean(cube))
