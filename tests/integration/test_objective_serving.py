"""End-to-end tests of quality objectives through the serving stack.

The acceptance path: a PSNR-targeted request flows service -> engine ->
quality model, the measured PSNR lands within the canary margin, the
objective is visible in the trace spans and in the outcome-log rows,
and ratio-mode serving stays bit-identical to direct engine calls.
"""

import numpy as np
import pytest

import repro
from repro import obs
from repro.analysis.distortion import psnr
from repro.compressors import get_compressor
from repro.core.inference import InferenceEngine
from repro.core.objective import PSNRTarget, RatioTarget, SSIMTarget
from repro.errors import InvalidConfiguration
from repro.lifecycle import OutcomeLog, quality_errors, read_outcomes
from repro.serving import EstimateRequest, EstimationService, resolved_objective

from tests.conftest import small_forest_factory

pytestmark = pytest.mark.objective


def _make_fields(n: int, side: int = 20) -> list[np.ndarray]:
    rng = np.random.default_rng(23)
    lin = np.linspace(0, 4 * np.pi, side)
    x, y, _ = np.meshgrid(lin, lin, lin, indexing="ij")
    return [
        (
            np.sin(x + 0.4 * i) * np.cos(y + 0.1 * i)
            + (0.02 + 0.01 * i) * rng.standard_normal((side,) * 3)
        ).astype(np.float32)
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def fitted():
    fields = _make_fields(4)
    config = repro.FXRZConfig(stationary_points=8, augmented_samples=60)
    pipeline = repro.FXRZ(
        get_compressor("sz"), config=config, model_factory=small_forest_factory
    )
    pipeline.fit(fields[:2])
    return pipeline, fields[2:]


class TestResolvedObjective:
    def test_ratio_request_resolves(self, fitted):
        _, probes = fitted
        request = EstimateRequest(data=probes[0], target_ratio=8.0)
        assert resolved_objective(request) == RatioTarget(8.0)

    def test_objective_request_resolves(self, fitted):
        _, probes = fitted
        request = EstimateRequest(data=probes[0], objective="psnr:55")
        assert resolved_objective(request) == PSNRTarget(55.0)

    def test_both_rejected(self, fitted):
        _, probes = fitted
        request = EstimateRequest(
            data=probes[0], target_ratio=8.0, objective="psnr:55"
        )
        with pytest.raises(InvalidConfiguration):
            resolved_objective(request)


class TestServiceObjectives:
    def test_psnr_objective_served_within_margin(self, fitted):
        pipeline, probes = fitted
        target = 50.0
        with EstimationService.for_pipeline(
            pipeline, guarded=False, workers=2
        ) as service:
            served = service.submit(
                EstimateRequest(data=probes[0], objective=f"psnr:{target:g}")
            ).result()
        assert served.estimate.objective == PSNRTarget(target)
        assert served.estimate.tier in ("analytic", "probe")
        recon, _ = pipeline.compressor.roundtrip(
            probes[0], served.estimate.config
        )
        assert abs(psnr(probes[0], recon) - target) < 3.0

    def test_ssim_objective_served(self, fitted):
        pipeline, probes = fitted
        with EstimationService.for_pipeline(
            pipeline, guarded=False, workers=2
        ) as service:
            served = service.submit(
                EstimateRequest(data=probes[0], objective=SSIMTarget(0.97))
            ).result()
        assert served.estimate.objective == SSIMTarget(0.97)
        assert served.estimate.config > 0

    def test_mixed_batch_keeps_ratio_parity(self, fitted):
        """Quality traffic in the queue must not change ratio answers."""
        pipeline, probes = fitted
        engine = InferenceEngine(
            pipeline.model, pipeline.compressor, config=pipeline.config
        )
        requests = [
            EstimateRequest(data=probes[i % 2], target_ratio=float(tcr))
            if i % 3
            else EstimateRequest(data=probes[i % 2], objective="psnr:50")
            for i, tcr in enumerate(np.linspace(3.0, 12.0, 12))
        ]
        with EstimationService.for_pipeline(
            pipeline, guarded=False, workers=3
        ) as service:
            served = service.run_batch(requests)
        for request, result in zip(requests, served):
            if request.objective is not None:
                assert result.estimate.objective == PSNRTarget(50.0)
                continue
            expected = engine.estimate(request.data, request.target_ratio)
            assert result.estimate.config == expected.config
            assert np.array_equal(result.estimate.features, expected.features)

    def test_invalid_objective_rejected_at_submit(self, fitted):
        pipeline, probes = fitted
        with EstimationService.for_pipeline(pipeline, workers=1) as service:
            with pytest.raises(InvalidConfiguration):
                service.submit(
                    EstimateRequest(data=probes[0], objective="vibes:11")
                )


class TestObjectiveObservability:
    def test_objective_rides_trace_spans(self, fitted):
        pipeline, probes = fitted
        tracer = obs.Tracer()
        obs.install(tracer=tracer)
        try:
            with EstimationService.for_pipeline(
                pipeline, guarded=False, workers=1
            ) as service:
                service.submit(
                    EstimateRequest(data=probes[0], objective="psnr:50")
                ).result()
            spans = tracer.drain()
        finally:
            obs.uninstall()
        request_spans = [s for s in spans if s.name == "serving.request"]
        assert request_spans
        assert any(
            s.attributes.get("objective") == "psnr:50" for s in request_spans
        )

    def test_objective_lands_in_outcome_rows(self, fitted, tmp_path):
        pipeline, probes = fitted
        log_path = tmp_path / "outcomes.jsonl"
        log = OutcomeLog(log_path)
        engine = pipeline.guarded(fallback="curve", outcome_log=log)
        engine.estimate(probes[0], dataset_key="probe-0", objective="psnr:50")
        engine.estimate(probes[0], 8.0, dataset_key="probe-0")
        log.close()

        replay = read_outcomes(log_path)
        assert len(replay.records) == 2
        quality = [r for r in replay.records if r.objective_kind == "psnr"]
        ratio = [r for r in replay.records if r.objective_kind == "ratio"]
        assert len(quality) == 1 and len(ratio) == 1
        assert quality[0].objective == "psnr:50"
        assert quality[0].objective_value == 50.0
        if quality[0].measured_psnr is not None:
            # The probe rung measured the truth: within the canary margin.
            misses = quality_errors(replay.records)
            assert misses and misses[0] < 3.0

    def test_compress_to_objective_records_measured_psnr(
        self, fitted, tmp_path
    ):
        pipeline, probes = fitted
        with repro.RuntimeContext(
            outcome_log=str(tmp_path / "o.jsonl")
        ) as ctx:
            scoped = repro.FXRZ(
                get_compressor("sz"), config=pipeline.config, ctx=ctx
            )
            scoped._training = pipeline._training
            result = scoped.compress_to_objective(probes[1], "psnr:50")
        assert result.measured_psnr is not None
        assert abs(result.measured_psnr - 50.0) < 3.0
        assert np.isnan(result.estimation_error)
        replay = read_outcomes(tmp_path / "o.jsonl")
        assert replay.records
        row = replay.records[-1]
        assert row.objective == "psnr:50"
        assert row.measured_psnr == pytest.approx(result.measured_psnr)
