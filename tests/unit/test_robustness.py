"""Unit tests for guarded inference and its supporting pieces."""

import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import repro
from repro.compressors import get_compressor
from repro.core.inference import InferenceEngine
from repro.core.objective import RatioTarget
from repro.datasets.hurricane import generate_hurricane_field
from repro.datasets.registry import HURRICANE_TRAIN_STEPS
from repro.errors import (
    FallbackExhaustedError,
    InvalidConfiguration,
    NotFittedError,
    OutOfDistributionError,
)
from repro.robustness import (
    FeatureEnvelope,
    GuardedInferenceEngine,
    RetryPolicy,
    backoff_schedule,
    validate_field,
)
from repro.lifecycle import OutcomeLog, read_outcomes
from repro.ml.forest import RandomForestRegressor
from repro.robustness.confidence import ensemble_spread, score_confidence
from repro.serving.cache import FeatureCache, dataset_fingerprint
from repro.serving.service import answer

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


@pytest.fixture(scope="module")
def tc_fitted():
    """A small model on the Hurricane TC training series (float32)."""
    config = repro.FXRZConfig(stationary_points=8, augmented_samples=60)
    pipeline = repro.FXRZ(get_compressor("sz"), config=config)
    pipeline.fit(
        [generate_hurricane_field("TC", t) for t in HURRICANE_TRAIN_STEPS]
    )
    return pipeline


class TestValidation:
    def test_clean_field_untouched(self):
        data = np.linspace(0, 1, 64).reshape(8, 8)
        report = validate_field(data)
        assert report.clean and not report.constant
        assert report.nonfinite_fraction == 0.0
        assert report.data is None

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

    def test_float32_field_checked_in_its_own_dtype(self):
        data = np.linspace(0, 1, 64, dtype=np.float32).reshape(8, 8)
        assert validate_field(data).data is None
        data[3, 3] = np.nan
        data[4, 4] = -np.inf
        report = validate_field(data)
        assert report.issues == ("nan", "inf")
        assert report.data.dtype == np.float32
        assert np.isfinite(report.data).all()
        assert np.isnan(data[3, 3])  # the caller's array is untouched

    def test_non_float_field_gets_a_float64_copy(self):
        report = validate_field(np.arange(16, dtype=np.int32).reshape(4, 4))
        assert report.clean
        assert report.data.dtype == np.float64
        with pytest.raises(InvalidConfiguration, match="not numeric"):
            validate_field(np.array(["a", "b"]))


class TestCallerDtype:
    """Guarded inference works on the caller's own array."""

    def test_clean_analysis_makes_no_float64_copy(self, tc_fitted):
        engine = tc_fitted.guarded()
        field = generate_hurricane_field("TC", 24, shape=(32, 64, 64))
        engine.analyze(field)  # warm every lazily built table
        tracemalloc.start()
        try:
            analysis = engine.analyze(field)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert analysis.report.clean and analysis.report.data is None
        assert peak < field.size * np.dtype(np.float64).itemsize

    def test_cached_analyses_hold_no_field(self, tc_fitted):
        """108 served 16x48x48 float32 fields leave only their features
        in the feature cache (a float64 copy each would be 31.9 MB)."""
        engine = tc_fitted.guarded()
        base = generate_hurricane_field("TC", 40)
        cache = FeatureCache(max_entries=128)
        tracemalloc.start()
        try:
            for i in range(108):
                field = base + np.float32(i)
                key = dataset_fingerprint(field, tc_fitted.config.sampling_stride)
                answer(engine, cache, key, field, RatioTarget(6.0))
                del field
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(cache) == 108
        assert retained < 1 << 20

    def test_declined_rung_does_not_keep_the_field_alive(self, tc_fitted):
        """The ladder keeps a decline for its exhausted error; once a
        later rung answers, no traceback cycle may hold the field."""
        engine = tc_fitted.guarded(min_confidence=1.0)
        field = generate_hurricane_field("TC", 40)
        alive = weakref.ref(field)
        gc.disable()
        try:
            assert engine.estimate(field, 6.0).tier == "curve"
            del field
            assert alive() is None
        finally:
            gc.enable()

    @staticmethod
    def _field_survives_decline(engine, make_field, error) -> bool:
        """Whether a ``make_field()`` field is still alive once ``engine``
        raised ``error`` on it and the caller dropped both (collector
        off throughout)."""
        field = make_field()
        alive = weakref.ref(field)
        gc.disable()
        try:
            try:
                engine.estimate(field, 6.0)
            except error:
                pass
            else:
                pytest.fail(f"expected {error.__name__}")
            del field
            return alive() is not None
        finally:
            gc.enable()

    def test_exhausted_ladder_does_not_keep_the_field_alive(self, tc_fitted):
        """The raised error's traceback holds the walk's frame; the frame
        must not hold the error back, or the field lives on in a cycle."""
        rng = np.random.default_rng(5)
        assert not self._field_survives_decline(
            tc_fitted.guarded(fallback="none"),
            lambda: 1e6 * np.cumsum(rng.standard_normal((16,) * 3), axis=0),
            OutOfDistributionError,
        )

    def test_plain_engine_error_does_not_keep_the_field_alive(self):
        """The plain ladder re-raises its one rung's own error."""
        engine = InferenceEngine(RandomForestRegressor(), get_compressor("sz"))
        assert not self._field_survives_decline(
            engine, lambda: generate_hurricane_field("TC", 40), NotFittedError
        )

    @pytest.mark.parametrize("min_confidence", [0.5, 1.0])
    def test_float64_cast_answers_identically(self, tc_fitted, min_confidence):
        """Model (and, with the gate shut, curve) answers on a float32
        field equal those on its float64 cast: same features, R,
        confidence, tier and config."""
        engine = tc_fitted.guarded(min_confidence=min_confidence)
        tiers = set()
        for timestep in (1, 12, 24, 36, 48):
            field = generate_hurricane_field("TC", timestep)
            wide = field.astype(np.float64)
            for target in (3.0, 6.0, 12.0, 24.0):
                narrow = engine.estimate(field, target)
                cast = engine.estimate(wide, target)
                tiers.add(narrow.tier)
                assert narrow.tier == cast.tier
                assert narrow.config == cast.config
                assert narrow.confidence == cast.confidence
                assert narrow.nonconstant == cast.nonconstant
                np.testing.assert_array_equal(narrow.features, cast.features)
        if min_confidence < 1.0:
            assert "model" in tiers and tiers <= {"model", "curve"}
        else:
            assert tiers == {"curve"}

    def test_fraz_rung_logs_the_callers_ratio(self, tc_fitted, tmp_path):
        """The FRaZ rung searches the float32 field itself, so the ratio
        it logs is the one compressing that field at its config gives
        (a float64 copy would read twice as high)."""
        log_path = tmp_path / "outcomes.jsonl"
        field = generate_hurricane_field("TC", 40)
        with OutcomeLog(log_path) as log:
            engine = tc_fitted.guarded(min_confidence=1.0, outcome_log=log)
            # Past every training curve's range: model and curve decline.
            estimate = engine.estimate(field, 200.0)
        assert estimate.tier == "fraz"
        [record] = read_outcomes(log_path).records
        achieved = tc_fitted.compressor.compress(field, estimate.config)
        assert record.measured_ratio == achieved.compression_ratio


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
        envelope = FeatureEnvelope.for_pipeline(pipeline)
        row = (envelope.lo + envelope.hi) / 2
        row[2] = np.nan
        report = score_confidence(pipeline.model, envelope, row)
        assert report.envelope_score == 0.0 and report.score == 0.0
        assert report.envelope_violation == math.inf

    def test_ood_query_scores_low(self, fitted):
        pipeline, _ = fitted
        envelope = FeatureEnvelope.for_pipeline(pipeline)
        inside = (envelope.lo + envelope.hi) / 2
        report_in = score_confidence(pipeline.model, envelope, inside)
        far = inside * 0 + 1e9
        report_out = score_confidence(pipeline.model, envelope, far)
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

    def test_unvalidated_analysis_is_revalidated(self, fitted):
        """A plain engine's analysis (no validation report) handed to the
        guarded engine must not let the model answer on unpatched data.
        The NaNs sit off the sampling lattice, so the plain analysis
        succeeds and its features look clean."""
        pipeline, train = fitted
        stride = pipeline.config.sampling_stride
        polluted = train[0].astype(np.float64).copy()
        polluted[1::stride, 1::stride, 1::stride] = np.nan
        # Without CA: the block scan rejects a non-finite field outright.
        plain = InferenceEngine(
            pipeline.model,
            pipeline.compressor,
            config=dataclasses.replace(pipeline.config, use_adjustment=False),
        )
        unvalidated = plain.analyze(polluted)
        assert unvalidated.report is None
        try:
            estimate = pipeline.guarded().estimate(
                polluted, 6.0, analysis=unvalidated
            )
        except InvalidConfiguration:
            return
        assert estimate.tier in ("curve", "fraz")
        assert "nan" in estimate.fallback_reason
        assert math.isfinite(estimate.config) and estimate.config > 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_plain_estimate_rejects_value_off_sample_lattice(self, fitted, bad):
        """The plain engine does not validate: one NaN or Inf off the
        sampling lattice passes the feature guard, so the CA block scan
        must reject it instead of answering with a corrupted R. The
        guarded engine patches it and answers."""
        pipeline, train = fitted
        polluted = train[0].copy()
        polluted[1, 1, 1] = bad
        with pytest.raises(InvalidConfiguration, match="non-finite"):
            pipeline.estimate_config(polluted, 6.0)
        estimate = pipeline.guarded().estimate(polluted, 6.0)
        assert math.isfinite(estimate.config) and estimate.config > 0

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
