"""Property-based tests of the compressors' core contracts.

The single most important invariant in the library: for any finite
input and any valid configuration, decompress(compress(x)) respects
the promised error bound.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.compressors import get_compressor
from repro.compressors.predictors import lorenzo_reconstruct, lorenzo_residuals
from repro.compressors.quantizer import LinearQuantizer

_shapes = st.sampled_from(
    [(30,), (7, 9), (5, 6, 7), (17, 3), (4, 4, 4), (3, 4, 2, 5)]
)

_fields = _shapes.flatmap(
    lambda shape: hnp.arrays(
        dtype=np.float64,
        shape=shape,
        elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
    )
)

_rel_bounds = st.floats(1e-5, 0.09)


def _abs_bound(data: np.ndarray, rel: float) -> float:
    spread = float(np.ptp(data))
    if spread == 0:
        spread = max(abs(float(data.flat[0])), 1.0)
    return max(rel * spread, 1e-12)


@pytest.mark.parametrize("name", ["sz", "sz2", "zfp", "mgard"])
class TestAbsBoundProperty:
    @given(data=_fields, rel=_rel_bounds)
    @settings(max_examples=25, deadline=None)
    def test_bound_always_respected(self, name, data, rel):
        comp = get_compressor(name)
        bound = _abs_bound(data, rel)
        recon, blob = comp.roundtrip(data, bound)
        comp.verify(data, recon, blob.config)

    @given(data=_fields, rel=_rel_bounds)
    @settings(max_examples=15, deadline=None)
    def test_blob_is_self_contained(self, name, data, rel):
        comp = get_compressor(name)
        bound = _abs_bound(data, rel)
        blob = comp.compress(data, bound)
        fresh = get_compressor(name)
        recon = fresh.decompress(blob)
        assert recon.shape == data.shape


class TestFPZIPProperty:
    @given(
        data=_shapes.flatmap(
            lambda shape: hnp.arrays(
                dtype=np.float32,
                shape=shape,
                elements=st.floats(-1e6, 1e6, allow_nan=False, width=32),
            )
        ),
        precision=st.integers(10, 32),
    )
    @settings(max_examples=25, deadline=None)
    def test_precision_contract(self, data, precision):
        comp = get_compressor("fpzip")
        recon, blob = comp.roundtrip(data, precision)
        comp.verify(data, recon, blob.config)


class TestDigitRoundingProperty:
    @given(
        data=_shapes.flatmap(
            lambda shape: hnp.arrays(
                dtype=np.float32,
                shape=shape,
                elements=st.floats(-1e6, 1e6, allow_nan=False, width=32),
            )
        ),
        digits=st.integers(1, 7),
    )
    @settings(max_examples=25, deadline=None)
    def test_digit_contract(self, data, digits):
        comp = get_compressor("digit")
        recon, blob = comp.roundtrip(data, digits)
        comp.verify(data, recon, blob.config)


class TestQuantizerProperty:
    @given(
        residuals=hnp.arrays(
            dtype=np.float64,
            shape=st.integers(1, 300),
            elements=st.floats(-1e8, 1e8, allow_nan=False),
        ),
        bound=st.floats(1e-6, 1e3),
    )
    # Rounding in r / (2*eb) and back lands this point just past eb.
    @example(residuals=np.array([1.00001]), bound=1e-05)
    @settings(max_examples=80, deadline=None)
    def test_non_outlier_error_bounded(self, residuals, bound):
        quantizer = LinearQuantizer(bound)
        result = quantizer.quantize(residuals)
        fine = ~result.outlier_mask
        if fine.any():
            err = np.abs(residuals[fine] - result.dequantized[fine])
            assert err.max() <= bound * (1 + 1e-12) + 1e-300


class TestLorenzoProperty:
    @given(
        data=_shapes.flatmap(
            lambda shape: hnp.arrays(
                dtype=np.int64,
                shape=shape,
                elements=st.integers(-(2**35), 2**35),
            )
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_residual_inverse_exact(self, data):
        assert np.array_equal(
            lorenzo_reconstruct(lorenzo_residuals(data)), data
        )
