"""Unit tests for guarded inference and its supporting pieces."""

import math

import numpy as np
import pytest

import repro
from repro.compressors import get_compressor
from repro.errors import (
    FallbackExhaustedError,
    InvalidConfiguration,
    OutOfDistributionError,
)
from repro.robustness import (
    FeatureEnvelope,
    GuardedInferenceEngine,
    RetryPolicy,
    backoff_schedule,
    validate_field,
)
from repro.robustness.confidence import ensemble_spread, score_confidence

from tests.conftest import small_forest_factory

pytestmark = pytest.mark.robustness


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(2)
    lin = np.linspace(0, 4 * np.pi, 20)
    x, y, z = np.meshgrid(lin, lin, lin, indexing="ij")
    train = [
        (np.sin(x + 0.3 * i) * np.cos(y) + 0.03 * rng.standard_normal((20,) * 3))
        .astype(np.float32)
        for i in range(3)
    ]
    config = repro.FXRZConfig(stationary_points=8, augmented_samples=60)
    pipeline = repro.FXRZ(
        get_compressor("sz"), config=config, model_factory=small_forest_factory
    )
    pipeline.fit(train)
    return pipeline, train


class TestValidation:
    def test_clean_field_untouched(self):
        data = np.linspace(0, 1, 64).reshape(8, 8)
        report = validate_field(data)
        assert report.clean and not report.constant
        assert report.nonfinite_fraction == 0.0
        np.testing.assert_array_equal(report.data, data)

    def test_empty_rejected(self):
        with pytest.raises(InvalidConfiguration, match="empty"):
            validate_field(np.zeros(0))

    def test_all_nan_rejected(self):
        with pytest.raises(InvalidConfiguration, match="no finite"):
            validate_field(np.full((4, 4), np.nan))

    def test_mostly_nan_rejected(self):
        data = np.ones(100)
        data[:80] = np.nan
        with pytest.raises(InvalidConfiguration, match="non-finite"):
            validate_field(data)

    def test_nan_patched_with_median(self):
        data = np.array([1.0, 2.0, np.nan, 3.0])
        report = validate_field(data)
        assert "nan" in report.issues
        assert report.data[2] == pytest.approx(2.0)
        assert np.isfinite(report.data).all()

    def test_inf_patched_with_extremes(self):
        data = np.array([1.0, np.inf, -np.inf, 5.0])
        report = validate_field(data)
        assert "inf" in report.issues
        assert report.data[1] == pytest.approx(5.0)
        assert report.data[2] == pytest.approx(1.0)

    def test_constant_flagged(self):
        report = validate_field(np.full((4, 4), 3.0))
        assert report.constant and "constant" in report.issues


class TestFeatureEnvelope:
    def test_inside_and_outside(self):
        rows = np.array([[0.0, 10.0], [1.0, 20.0]])
        env = FeatureEnvelope(rows, margin=0.0)
        assert env.contains(np.array([0.5, 15.0]))
        assert not env.contains(np.array([2.0, 15.0]))
        assert env.violation(np.array([2.0, 15.0])) == pytest.approx(1.0)

    def test_margin_expands(self):
        rows = np.array([[0.0], [1.0]])
        assert FeatureEnvelope(rows, margin=0.5).contains(np.array([1.4]))
        assert not FeatureEnvelope(rows, margin=0.0).contains(np.array([1.4]))

    def test_non_finite_query_is_infinitely_outside(self):
        env = FeatureEnvelope(np.array([[0.0, 0.0], [1.0, 1.0]]))
        for bad in (np.nan, np.inf, -np.inf):
            assert env.violation(np.array([0.5, bad])) == math.inf
            assert not env.contains(np.array([bad, 0.5]))

    def test_dimension_mismatch_rejected(self):
        env = FeatureEnvelope(np.zeros((2, 3)))
        with pytest.raises(InvalidConfiguration):
            env.violation(np.zeros(2))


class TestConfidence:
    def test_spread_of_constant_model_is_zero(self, fitted):
        pipeline, train = fitted
        features = np.concatenate(
            (pipeline._training.records[0].features, [5.0])
        )
        std = ensemble_spread(pipeline.model, features)
        assert math.isfinite(std) and std >= 0.0

    def test_no_ensemble_is_neutral(self):
        class Point:
            def predict(self, rows):
                return np.zeros(len(rows))

        env = FeatureEnvelope(np.array([[0.0], [1.0]]))
        report = score_confidence(Point(), env, np.array([0.5]))
        assert math.isnan(report.tree_std)
        assert report.spread_score == 1.0

    def test_nan_query_scores_zero(self, fitted):
        pipeline, _ = fitted
        engine = GuardedInferenceEngine(pipeline)
        row = engine._envelope_rows()[0].copy()
        row[2] = np.nan
        report = score_confidence(pipeline.model, engine.envelope, row)
        assert report.envelope_score == 0.0 and report.score == 0.0
        assert report.envelope_violation == math.inf

    def test_ood_query_scores_low(self, fitted):
        pipeline, _ = fitted
        engine = GuardedInferenceEngine(pipeline)
        inside = engine._envelope_rows()[0]
        report_in = score_confidence(pipeline.model, engine.envelope, inside)
        far = inside * 0 + 1e9
        report_out = score_confidence(pipeline.model, engine.envelope, far)
        assert report_out.envelope_score < 0.05 < report_in.envelope_score


class TestBackoffSchedule:
    def test_deterministic_under_fixed_seed(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.5, jitter=0.2)
        a = backoff_schedule(policy, 5, np.random.default_rng(42))
        b = backoff_schedule(policy, 5, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            max_attempts=8, base_delay=1.0, backoff=2.0, max_delay=5.0, jitter=0.0
        )
        delays = backoff_schedule(policy, 6)
        np.testing.assert_allclose(delays, [1.0, 2.0, 4.0, 5.0, 5.0, 5.0])

    def test_jitter_bounded(self):
        policy = RetryPolicy(max_attempts=4, base_delay=1.0, backoff=1.0, jitter=0.25)
        delays = backoff_schedule(policy, 100, np.random.default_rng(0))
        assert (delays >= 0.75).all() and (delays <= 1.25).all()

    def test_invalid_policy_rejected(self):
        with pytest.raises(InvalidConfiguration):
            RetryPolicy(max_attempts=0)
        with pytest.raises(InvalidConfiguration):
            RetryPolicy(backoff=0.5)


class TestGuardedLadder:
    def test_model_tier_on_clean_data(self, fitted):
        pipeline, train = fitted
        estimate = pipeline.guarded().estimate(train[0], 6.0)
        assert estimate.tier == "model"
        assert estimate.confidence > 0.5
        assert estimate.fallback_reason == ""
        assert math.isfinite(estimate.config) and estimate.config > 0

    def test_matches_unguarded_on_model_tier(self, fitted):
        pipeline, train = fitted
        guarded = pipeline.guarded().estimate(train[0], 6.0)
        plain = pipeline.estimate_config(train[0], 6.0)
        assert guarded.config == pytest.approx(plain.config)

    def test_nan_field_degrades_to_curve(self, fitted):
        pipeline, train = fitted
        polluted = train[0].astype(np.float64).copy()
        polluted[::4, ::4, ::4] = np.nan
        estimate = pipeline.guarded().estimate(polluted, 6.0)
        assert estimate.tier == "curve"
        assert estimate.confidence <= 0.25
        assert "nan" in estimate.fallback_reason
        assert math.isfinite(estimate.config) and estimate.config > 0

    def test_out_of_range_target_reaches_fraz(self, fitted):
        pipeline, train = fitted
        estimate = pipeline.guarded().estimate(train[0], 1e5)
        assert estimate.tier == "fraz"
        assert math.isfinite(estimate.config) and estimate.config > 0

    def test_fallback_none_raises_ood(self, fitted):
        pipeline, _ = fitted
        rng = np.random.default_rng(5)
        alien = 1e6 * np.cumsum(rng.standard_normal((16,) * 3), axis=0)
        with pytest.raises(OutOfDistributionError):
            pipeline.guarded(fallback="none").estimate(alien, 6.0)

    def test_fallback_curve_exhausts_without_fraz(self, fitted):
        pipeline, train = fitted
        # A target far past every training curve: curve tier declines,
        # and without the FRaZ rung the ladder is exhausted.
        with pytest.raises(FallbackExhaustedError):
            pipeline.guarded(
                fallback="curve", min_confidence=1.0
            ).estimate(train[0], 1e5)

    def test_never_returns_bad_bound(self, fitted):
        pipeline, train = fitted
        engine = pipeline.guarded()
        polluted = train[0].astype(np.float64).copy()
        polluted[0, 0, 0] = np.inf
        for target in (1.5, 6.0, 40.0):
            estimate = engine.estimate(polluted, target)
            assert math.isfinite(estimate.config)
            assert estimate.config > 0
            assert estimate.tier in ("model", "curve", "fraz")

    def test_degenerate_feature_range_transfers_unscaled(self, fitted):
        """NaNs aligned with the sampling lattice zero out the sampled
        value range; the curve tier must not rescale the bound by the
        floor ratio (which would yield a ~1e-33 bound)."""
        pipeline, train = fitted
        stride = pipeline.config.sampling_stride
        polluted = train[0].astype(np.float64).copy()
        polluted[::stride, ::stride, ::stride] = np.nan
        estimate = pipeline.guarded().estimate(polluted, 6.0)
        assert estimate.tier == "curve"
        clean = pipeline.guarded().estimate(train[0], 6.0)
        assert estimate.config > 1e-6 * clean.config

    def test_invalid_targets_rejected(self, fitted):
        pipeline, train = fitted
        engine = pipeline.guarded()
        for bad in (0.0, -3.0, float("nan"), float("inf")):
            with pytest.raises(InvalidConfiguration):
                engine.estimate(train[0], bad)

    def test_unfitted_pipeline_rejected(self):
        pipeline = repro.FXRZ(get_compressor("sz"))
        with pytest.raises(repro.NotFittedError):
            GuardedInferenceEngine(pipeline)

    def test_bad_fallback_rejected(self, fitted):
        pipeline, _ = fitted
        with pytest.raises(InvalidConfiguration):
            GuardedInferenceEngine(pipeline, fallback="panic")
