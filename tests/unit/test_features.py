"""Unit tests for feature extraction (Sec. IV-C) and sampling (IV-E1)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.features import (
    FEATURE_NAMES,
    SELECTED_FEATURES,
    extract_features,
    gradient_features,
    uniform_sample,
)
from repro.errors import InvalidConfiguration


class TestUniformSampling:
    def test_stride4_on_3d_is_about_1_5_percent(self):
        data = np.zeros((64, 64, 64))
        sampled = uniform_sample(data, 4)
        fraction = sampled.size / data.size
        assert fraction == pytest.approx(1 / 64, rel=1e-9)  # ~1.56 %

    def test_stride1_is_identity(self, smooth_field3d):
        assert uniform_sample(smooth_field3d, 1) is smooth_field3d

    def test_small_arrays_not_destroyed(self):
        data = np.zeros((3, 3))
        assert uniform_sample(data, 4).shape == (3, 3)

    def test_bad_stride_rejected(self):
        with pytest.raises(InvalidConfiguration):
            uniform_sample(np.zeros((4, 4)), 0)


class TestFeatureValues:
    def test_constant_field(self):
        data = np.full((12, 12), 5.0)
        features = extract_features(data)
        assert features.value_range == 0.0
        assert features.mean_value == 5.0
        assert features.mnd == 0.0
        assert features.msd == 0.0
        assert gradient_features(data) == (0.0, 0.0, 0.0)

    def test_value_range_and_mean(self, rng):
        data = rng.uniform(2.0, 6.0, (20, 20))
        features = extract_features(data)
        assert features.value_range == pytest.approx(np.ptp(data))
        assert features.mean_value == pytest.approx(data.mean())

    def test_mnd_on_alternating_1d(self):
        data = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0])
        features = extract_features(data)
        # Interior points differ from their neighbor average by 1.
        assert features.mnd > 0.7

    def test_smooth_field_has_smaller_mnd_than_noise(self, rng):
        lin = np.linspace(0, np.pi, 32)
        smooth = np.sin(lin)[:, None] * np.sin(lin)[None, :]
        noise = rng.standard_normal((32, 32))
        assert extract_features(smooth).mnd < extract_features(noise).mnd

    def test_mld_zero_on_linear_ramp(self):
        x, y = np.meshgrid(np.arange(16.0), np.arange(16.0), indexing="ij")
        features = extract_features(2 * x + 3 * y)
        assert features.mld == pytest.approx(0.0, abs=1e-10)

    def test_msd_detects_wave_texture(self):
        t = np.linspace(0, 20 * np.pi, 512)
        wave = np.sin(t)
        rough = np.sign(np.sin(t))  # square wave: spline fit fails
        assert extract_features(wave).msd < extract_features(rough).msd

    def test_gradient_stats_ordering(self, rng):
        data = rng.standard_normal((30, 30)).cumsum(axis=0)
        mean, lo, hi = gradient_features(data)
        assert 0.0 < lo <= mean <= hi

    def test_selected_vector_order(self, rng):
        features = extract_features(rng.standard_normal((10, 10)))
        vector = features.selected()
        assert vector.shape == (5,)
        assert vector[0] == features.value_range
        assert vector[4] == features.msd

    def test_all_features_vector(self, rng):
        """Table II's columns: the five adopted features, then the trio."""
        data = rng.standard_normal((10, 10))
        trio = gradient_features(data)
        assert FEATURE_NAMES[: len(SELECTED_FEATURES)] == SELECTED_FEATURES
        assert len(extract_features(data).selected()) + len(trio) == len(
            FEATURE_NAMES
        )

    def test_selected_names_match_paper(self):
        assert SELECTED_FEATURES == ("value_range", "mean_value", "mnd", "mld", "msd")

    def test_empty_rejected(self):
        with pytest.raises(InvalidConfiguration):
            extract_features(np.zeros((0,)))
        with pytest.raises(InvalidConfiguration):
            gradient_features(np.zeros((0,)))

    def test_peak_memory_stays_near_the_sample(self):
        """A 128^3 float32 field at stride 4 casts a 256 KiB float64
        sample; the whole analysis peaks under six times that."""
        field = np.random.default_rng(0).standard_normal((128,) * 3)
        field = field.astype(np.float32)
        sample_bytes = 32**3 * 8
        tracemalloc.start()
        try:
            extract_features(field, stride=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * sample_bytes, peak / sample_bytes


class TestSampledFeatures:
    def test_sampled_close_to_full(self, rng):
        """Stride-4 features approximate full-scan features (Sec. IV-E1)."""
        lin = np.linspace(0, 4 * np.pi, 64)
        x, y, z = np.meshgrid(lin, lin, lin, indexing="ij")
        data = 5.0 + np.sin(x) * np.cos(y) + 0.1 * rng.standard_normal((64, 64, 64))
        full = extract_features(data, stride=1)
        sampled = extract_features(data, stride=4)
        assert sampled.mean_value == pytest.approx(full.mean_value, rel=0.05)
        assert sampled.value_range == pytest.approx(full.value_range, rel=0.15)

    def test_small_grid_msd_fallback(self):
        """Grids too small for the cubic stencil degrade gracefully."""
        data = np.random.default_rng(0).standard_normal((4, 4))
        features = extract_features(data)
        assert features.msd == pytest.approx(features.mnd)


class TestFeatureEdgeCases:
    def test_dataset_smaller_than_stride(self):
        """Sampling falls back to the full view; features stay finite."""
        data = np.random.default_rng(3).standard_normal((3, 3))
        features = extract_features(data, stride=8)
        full = extract_features(data, stride=1)
        assert np.isfinite(features.selected()).all()
        assert np.isfinite(gradient_features(data, stride=8)).all()
        assert features.mean_value == pytest.approx(full.mean_value)

    def test_single_element_array(self):
        """A 1-point field has no neighbors: degenerate but defined."""
        features = extract_features(np.array([7.5]))
        assert features.mean_value == 7.5
        assert features.value_range == 0.0
        assert features.mnd == 0.0
        assert features.msd == 0.0
        assert features.mld == 0.0
        assert gradient_features(np.array([7.5])) == (0.0, 0.0, 0.0)

    def test_nan_input_raises_typed_error(self):
        data = np.ones((8, 8))
        data[2, 2] = np.nan
        with pytest.raises(InvalidConfiguration, match="non-finite"):
            extract_features(data)
        with pytest.raises(InvalidConfiguration, match="non-finite"):
            gradient_features(data)

    def test_inf_input_raises_typed_error(self):
        data = np.ones((8, 8))
        data[0, 0] = np.inf
        with pytest.raises(InvalidConfiguration, match="non-finite"):
            extract_features(data)
        with pytest.raises(InvalidConfiguration, match="non-finite"):
            gradient_features(data)

    def test_nan_outside_sampled_lattice_is_invisible(self):
        """The guard inspects the sampled view, like extraction itself."""
        data = np.ones((8, 8))
        data[1, 1] = np.nan  # off the stride-4 lattice
        features = extract_features(data, stride=4)
        assert np.isfinite(features.selected()).all()
        assert np.isfinite(gradient_features(data, stride=4)).all()
