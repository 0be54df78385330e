"""Unit tests for the Objective algebra and the quality model."""

import numpy as np
import pytest

from repro.analysis.distortion import psnr, ssim
from repro.compressors import get_compressor
from repro.core.inference import InferenceEngine
from repro.core.objective import (
    FrontierPoint,
    ParetoFrontier,
    PSNRTarget,
    RatioTarget,
    SSIMTarget,
    analytic_bound_for_ssim,
    as_objective,
    parse_objective,
    predict_psnr,
    refine,
)
from repro.core.training import TrainingEngine
from repro.errors import InvalidConfiguration

pytestmark = pytest.mark.objective


@pytest.fixture(scope="module")
def fitted_engine(smooth_field3d):
    from repro.config import FXRZConfig
    from tests.conftest import small_forest_factory

    config = FXRZConfig(stationary_points=8, augmented_samples=60)
    training = TrainingEngine(
        get_compressor("sz"), config=config, model_factory=small_forest_factory
    )
    training.add_dataset(smooth_field3d)
    model = training.fit()
    return InferenceEngine(model, get_compressor("sz"), config=config)


class TestObjectiveTypes:
    def test_canonical_round_trip(self):
        for objective in (RatioTarget(10), PSNRTarget(60), SSIMTarget(0.99)):
            assert parse_objective(objective.canonical) == objective
            assert str(objective) == objective.canonical

    def test_canonical_forms(self):
        assert RatioTarget(10).canonical == "ratio:10"
        assert PSNRTarget(60.0).canonical == "psnr:60"
        assert SSIMTarget(0.995).canonical == "ssim:0.995"

    def test_bare_number_is_legacy_ratio(self):
        assert parse_objective("40") == RatioTarget(40.0)
        assert parse_objective(" 12.5 ") == RatioTarget(12.5)

    def test_kind_flags(self):
        assert not RatioTarget(10).is_quality
        assert PSNRTarget(60).is_quality
        assert SSIMTarget(0.9).is_quality

    def test_validation(self):
        with pytest.raises(InvalidConfiguration):
            RatioTarget(0.0)
        with pytest.raises(InvalidConfiguration):
            RatioTarget(float("nan"))
        with pytest.raises(InvalidConfiguration):
            PSNRTarget(-3.0)
        with pytest.raises(InvalidConfiguration):
            SSIMTarget(0.0)
        with pytest.raises(InvalidConfiguration):
            SSIMTarget(1.5)

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidConfiguration):
            parse_objective("vibes:11")
        with pytest.raises(InvalidConfiguration):
            parse_objective("psnr:sixty")
        with pytest.raises(InvalidConfiguration):
            parse_objective("not-a-number")

    def test_as_objective_coercions(self):
        target = PSNRTarget(50)
        assert as_objective(target) is target
        assert as_objective(8) == RatioTarget(8.0)
        assert as_objective(8.5) == RatioTarget(8.5)
        assert as_objective("ssim:0.9") == SSIMTarget(0.9)
        with pytest.raises(InvalidConfiguration):
            as_objective(True)
        with pytest.raises(InvalidConfiguration):
            as_objective([10])


class TestAnalyticSSIM:
    def test_formula_inversion(self, smooth_field3d):
        target = 0.98
        bound = analytic_bound_for_ssim(smooth_field3d, target)
        sigma = float(np.std(np.asarray(smooth_field3d, dtype=np.float64)))
        implied = 2 * sigma**2 / (2 * sigma**2 + bound**2 / 3)
        assert implied == pytest.approx(target)

    def test_analytic_close_for_sz(self, smooth_field3d):
        comp = get_compressor("sz")
        target = 0.95
        bound = analytic_bound_for_ssim(smooth_field3d, target)
        recon, _ = comp.roundtrip(smooth_field3d, bound)
        assert abs(ssim(smooth_field3d, recon) - target) < 0.05

    def test_lossless_knee(self, smooth_field3d):
        assert analytic_bound_for_ssim(smooth_field3d, 1.0) > 0

    def test_bad_inputs(self, smooth_field3d):
        with pytest.raises(InvalidConfiguration):
            analytic_bound_for_ssim(np.ones((4, 4)), 0.9)
        bad = np.array([1.0, np.nan, 2.0])
        with pytest.raises(InvalidConfiguration):
            analytic_bound_for_ssim(bad, 0.9)


class TestQualityModel:
    """The stateless quality path: analytic prior plus probe refinement."""

    def test_predict_psnr_matches_analytic_prior(self):
        value_range = 2.0
        config = 1e-3
        expected = 20 * np.log10(value_range * np.sqrt(3) / config)
        assert predict_psnr(value_range, config) == pytest.approx(expected)

    def test_trust_contract(self, smooth_field3d):
        """Only SZ's quantizer answers from the prior alone; any other
        family declines the analytic rung and spends probes."""
        from repro.config import FXRZConfig
        from repro.core.pipeline import FXRZ
        from tests.conftest import small_forest_factory

        train = [smooth_field3d, smooth_field3d[::-1].copy()]
        tiers = {}
        for name in ("sz", "zfp"):
            pipeline = FXRZ(
                get_compressor(name),
                config=FXRZConfig(stationary_points=6, augmented_samples=30),
                model_factory=small_forest_factory,
            )
            pipeline.fit(train)
            estimate = pipeline.guarded(fallback="curve").estimate(
                smooth_field3d, objective=PSNRTarget(50.0)
            )
            tiers[name] = (estimate.tier, estimate.fallback_reason)
        assert tiers["sz"] == ("analytic", "")
        assert tiers["zfp"] == (
            "probe",
            "analytic: prior uncalibrated for 'zfp'",
        )

    def test_refine_psnr_hits_target(self, smooth_field3d):
        comp = get_compressor("sz")
        result = refine(comp, smooth_field3d, PSNRTarget(50.0), probes=2)
        recon, _ = comp.roundtrip(smooth_field3d, result.config)
        assert abs(psnr(smooth_field3d, recon) - 50.0) < 3.0
        assert result.probes_spent >= 1

    def test_refine_ssim_hits_target(self, smooth_field3d):
        comp = get_compressor("sz")
        result = refine(comp, smooth_field3d, SSIMTarget(0.97), probes=3)
        recon, _ = comp.roundtrip(smooth_field3d, result.config)
        assert abs(ssim(smooth_field3d, recon) - 0.97) < 0.03

    def test_zero_probes_never_compresses(self, smooth_field3d, monkeypatch):
        comp = get_compressor("sz")
        calls = []
        original = comp.roundtrip

        def spy(data, config):
            calls.append(config)
            return original(data, config)

        monkeypatch.setattr(comp, "roundtrip", spy)
        result = refine(comp, smooth_field3d, SSIMTarget(0.95), probes=0)
        assert calls == []
        assert result.probes_spent == 0
        assert result.measured is None

    def test_precision_compressor_rejected(self, smooth_field3d):
        comp = get_compressor("fpzip")
        with pytest.raises(InvalidConfiguration):
            refine(comp, smooth_field3d, PSNRTarget(50.0), probes=2)
        with pytest.raises(InvalidConfiguration):
            refine(comp, smooth_field3d, SSIMTarget(0.99), probes=2)


class TestEngineObjectives:
    def test_ratio_objective_is_bit_identical(self, fitted_engine, smooth_field3d):
        legacy = fitted_engine.estimate(smooth_field3d, 10.0)
        via_objective = fitted_engine.estimate(
            smooth_field3d, objective=RatioTarget(10.0)
        )
        assert via_objective.config == legacy.config
        assert via_objective.adjusted_target == legacy.adjusted_target
        assert via_objective.nonconstant == legacy.nonconstant
        assert np.array_equal(via_objective.features, legacy.features)
        assert legacy.objective == RatioTarget(10.0)

    def test_exclusive_targets(self, fitted_engine, smooth_field3d):
        with pytest.raises(InvalidConfiguration):
            fitted_engine.estimate(
                smooth_field3d, 10.0, objective=PSNRTarget(60.0)
            )
        with pytest.raises(InvalidConfiguration):
            fitted_engine.estimate(smooth_field3d)

    def test_quality_estimate(self, fitted_engine, smooth_field3d):
        estimate = fitted_engine.estimate(
            smooth_field3d, objective=PSNRTarget(50.0)
        )
        assert estimate.objective == PSNRTarget(50.0)
        assert estimate.tier in ("analytic", "probe")
        assert estimate.target_ratio == 0.0
        recon, _ = get_compressor("sz").roundtrip(
            smooth_field3d, estimate.config
        )
        assert abs(psnr(smooth_field3d, recon) - 50.0) < 3.0

    def test_canonical_string_accepted(self, fitted_engine, smooth_field3d):
        by_string = fitted_engine.estimate(smooth_field3d, objective="psnr:50")
        by_type = fitted_engine.estimate(
            smooth_field3d, objective=PSNRTarget(50.0)
        )
        assert by_string.config == by_type.config

    def test_frontier_query(self, fitted_engine, smooth_field3d):
        front = fitted_engine.frontier(smooth_field3d, points=8)
        assert len(front) >= 2
        answer = front.query("cr>=4")
        assert answer is not None
        assert answer.ratio >= 4
        ratios = [p.ratio for p in front]
        psnrs = [p.psnr for p in front]
        assert ratios == sorted(ratios)
        assert psnrs == sorted(psnrs, reverse=True)


class TestFrontierPruning:
    def test_dominated_points_dropped(self):
        keep_a = FrontierPoint(config=1e-3, ratio=4.0, psnr=80.0)
        keep_b = FrontierPoint(config=1e-2, ratio=16.0, psnr=60.0)
        dominated = FrontierPoint(config=5e-3, ratio=4.0, psnr=70.0)
        front = ParetoFrontier(points=(keep_b, dominated, keep_a))
        assert front.points == (keep_a, keep_b)

    def test_query_grammar(self):
        front = ParetoFrontier(
            points=(
                FrontierPoint(config=1e-3, ratio=4.0, psnr=80.0),
                FrontierPoint(config=1e-2, ratio=16.0, psnr=60.0),
            )
        )
        assert front.query("cr>=10").psnr == 60.0
        assert front.query("ratio >= 4").psnr == 80.0
        assert front.query("psnr>=70").ratio == 4.0
        assert front.query("cr>=100") is None
        with pytest.raises(InvalidConfiguration):
            front.query("entropy>=3")


class TestMemoShim:
    def test_ctx_path_never_warns(self, smooth_field3d, recwarn):
        import warnings

        from repro.runtime import RuntimeContext

        comp = get_compressor("sz")
        with RuntimeContext() as ctx:
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                refine(
                    comp, smooth_field3d, PSNRTarget(50.0), probes=1, ctx=ctx
                )
