"""Property-based tests for features, adjustment and curve inversion."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.adjustment import adjusted_ratio, nonconstant_fraction
from repro.core.augmentation import CompressionCurve
from repro.core.features import extract_features, gradient_features

_fields = st.sampled_from([(20,), (9, 11), (6, 7, 8)]).flatmap(
    lambda shape: hnp.arrays(
        dtype=np.float64,
        shape=shape,
        elements=st.floats(-1e4, 1e4, allow_nan=False),
    )
)


class TestFeatureProperties:
    @given(_fields)
    @settings(max_examples=60, deadline=None)
    def test_features_finite_and_nonnegative(self, data):
        features = extract_features(data)
        mean_gradient, min_gradient, max_gradient = gradient_features(data)
        vector = np.concatenate(
            (features.selected(), [mean_gradient, min_gradient, max_gradient])
        )
        assert np.all(np.isfinite(vector))
        # All but mean_value (index 1) are magnitudes.
        assert features.value_range >= 0
        assert features.mnd >= 0
        assert features.mld >= 0
        assert features.msd >= 0
        assert 0.0 <= min_gradient <= max_gradient

    @given(_fields, st.floats(-100, 100))
    @settings(max_examples=40, deadline=None)
    def test_shift_invariance_of_smoothness(self, data, shift):
        """MND/MLD/MSD measure *differences*: constant shifts cancel."""
        base = extract_features(data)
        shifted = extract_features(data + shift)
        assert np.isclose(base.mnd, shifted.mnd, rtol=1e-6, atol=1e-6)
        assert np.isclose(base.value_range, shifted.value_range, rtol=1e-6, atol=1e-6)

    @given(_fields, st.floats(0.1, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariance(self, data, scale):
        base = extract_features(data)
        scaled = extract_features(data * scale)
        assert np.isclose(
            scaled.value_range, base.value_range * scale, rtol=1e-6, atol=1e-6
        )
        assert np.isclose(scaled.mnd, base.mnd * scale, rtol=1e-6, atol=1e-6)


class TestAdjustmentProperties:
    @given(_fields)
    @settings(max_examples=60, deadline=None)
    def test_fraction_in_unit_interval(self, data):
        r = nonconstant_fraction(data)
        assert 0.0 <= r <= 1.0

    @given(st.floats(0.1, 1e4), st.floats(1e-9, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_acr_never_exceeds_tcr(self, tcr, r):
        # R = 0 (all-constant dataset) is rejected outright, so the
        # clamp property only holds on positive fractions.
        acr = adjusted_ratio(tcr, r)
        assert acr <= max(tcr, 1.0) + 1e-9
        assert acr >= 1.0


class TestCurveProperties:
    @given(
        st.lists(
            st.floats(1.5, 500.0), min_size=3, max_size=20, unique=True
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_inversion_lands_inside_domain(self, ratios):
        ratios = sorted(ratios)
        configs = np.logspace(-5, -1, len(ratios))
        curve = CompressionCurve(
            configs=configs,
            ratios=np.array(ratios),
            log_config=True,
            build_seconds=0.0,
        )
        lo, hi = curve.ratio_range
        for target in np.linspace(lo, hi, 7):
            config = curve.config_for_ratio(float(target))
            assert configs[0] <= config <= configs[-1]

    @given(st.integers(1, 200))
    @settings(max_examples=30, deadline=None)
    def test_sample_size_respected(self, n):
        curve = CompressionCurve(
            configs=np.array([1e-4, 1e-3, 1e-2]),
            ratios=np.array([2.0, 5.0, 20.0]),
            log_config=True,
            build_seconds=0.0,
        )
        ratios, configs = curve.sample(n, seed=0)
        assert ratios.size == configs.size == n
