"""Unit tests for outcome-driven retraining and canary promotion."""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

import repro
from repro.compressors import get_compressor
from repro.core.inference import model_config
from repro.errors import InvalidConfiguration
from repro.lifecycle import (
    OutcomeRecord,
    evaluate_canary,
    retrain,
    training_rows_from_outcomes,
)
from repro.lifecycle.promote import invert_model_ratio, replay_errors
from repro.lifecycle.retrain import clone_with_model
from repro.serving import LATEST, ModelRegistry

from tests.conftest import small_forest_factory

pytestmark = pytest.mark.lifecycle


def make_record(
    i: int = 0,
    *,
    measured: float | None = 9.0,
    config: float = 1e-3,
    nonconstant: float = 0.8,
) -> OutcomeRecord:
    return OutcomeRecord(
        dataset_key=f"ds-{i}",
        compressor="sz",
        features=(1.0 + 0.1 * i, 0.5, 0.25, 0.1, 0.9),
        nonconstant=nonconstant,
        target_ratio=10.0,
        adjusted_target=8.0,
        config=config,
        tier="model",
        measured_ratio=measured,
        source="test",
        timestamp=float(i),
    )


@pytest.fixture(scope="module")
def fitted_pipeline():
    rng = np.random.default_rng(7)
    lin = np.linspace(0, 4 * np.pi, 20)
    x, y, _ = np.meshgrid(lin, lin, lin, indexing="ij")
    train = [
        (np.sin(x + 0.3 * i) * np.cos(y) + 0.03 * rng.standard_normal((20,) * 3))
        .astype(np.float32)
        for i in range(2)
    ]
    config = repro.FXRZConfig(stationary_points=8, augmented_samples=60)
    pipeline = repro.FXRZ(
        get_compressor("sz"), config=config, model_factory=small_forest_factory
    )
    pipeline.fit(train)
    return pipeline, train


class TestTrainingRows:
    def test_rows_mirror_training_matrix_convention(self):
        records = [make_record(0, measured=10.0, config=2e-3)]
        x, y, used = training_rows_from_outcomes(records, log_scale=True)
        assert used == 1 and x.shape == (1, 6)
        # ACR column: measured ratio through the non-constant fraction.
        assert x[0, 5] == pytest.approx(10.0 * 0.8)
        # Log-scale target: range-normalized log bound.
        scale = records[0].features[0]
        assert y[0] == pytest.approx(math.log10(2e-3 / scale))

    def test_linear_scale_regresses_raw_config(self):
        records = [make_record(0, measured=10.0, config=2e-3)]
        _, y, _ = training_rows_from_outcomes(records, log_scale=False)
        assert y[0] == pytest.approx(2e-3)

    def test_oversample_replicates_rows(self):
        records = [make_record(i, measured=9.0) for i in range(3)]
        x, y, used = training_rows_from_outcomes(
            records, log_scale=True, oversample=4
        )
        assert used == 3
        assert x.shape == (12, 6) and y.shape == (12,)

    def test_untrainable_records_skipped(self):
        records = [
            make_record(0, measured=None),
            make_record(1, measured=float("nan")),
            make_record(2, measured=9.0),
        ]
        _, _, used = training_rows_from_outcomes(records, log_scale=True)
        assert used == 1

    def test_empty_input_gives_empty_matrix(self):
        x, y, used = training_rows_from_outcomes([], log_scale=True)
        assert used == 0 and x.size == 0 and y.size == 0

    def test_oversample_validated(self):
        with pytest.raises(InvalidConfiguration):
            training_rows_from_outcomes([], log_scale=True, oversample=0)


class _LinearModel:
    """Fake model: config = slope * ACR (monotonic, exactly invertible)."""

    def __init__(self, slope: float):
        self.slope = slope

    def predict(self, rows):
        rows = np.asarray(rows)
        return self.slope * rows[:, -1]


def fake_pipeline(slope: float) -> SimpleNamespace:
    return SimpleNamespace(
        model=_LinearModel(slope),
        compressor=SimpleNamespace(config_scale="linear"),
    )


class TestInvertModelRatio:
    def test_recovers_acr_for_monotonic_model(self):
        pipe = fake_pipeline(1e-3)
        acr = invert_model_ratio(
            pipe.model,
            pipe.compressor,
            np.zeros(5),
            8e-3,
            acr_hi=32.0,
        )
        assert acr == pytest.approx(8.0, rel=1e-6)

    def test_out_of_range_configs_clamp_to_bounds(self):
        pipe = fake_pipeline(1e-3)
        low = invert_model_ratio(
            pipe.model, pipe.compressor, np.zeros(5), 1e-6, acr_hi=32.0
        )
        high = invert_model_ratio(
            pipe.model, pipe.compressor, np.zeros(5), 1.0, acr_hi=32.0
        )
        assert low == 1.0 and high == 32.0

    def test_invalid_config_rejected(self):
        pipe = fake_pipeline(1e-3)
        with pytest.raises(InvalidConfiguration):
            invert_model_ratio(
                pipe.model, pipe.compressor, np.zeros(5), 0.0, acr_hi=32.0
            )


class TestEvaluateCanary:
    #: Records whose configs follow config = 1e-3 * ACR exactly, so the
    #: slope-1e-3 model replays them with zero relative CR error.
    def records(self, n: int = 6) -> list[OutcomeRecord]:
        out = []
        for i in range(n):
            measured = 6.0 + i
            acr = measured * 0.8
            out.append(
                make_record(i, measured=measured, config=1e-3 * acr)
            )
        return out

    def test_calibrated_candidate_beats_miscalibrated_incumbent(self):
        report = evaluate_canary(
            fake_pipeline(2e-3),  # believes configs deliver half the ratio
            fake_pipeline(1e-3),  # exactly calibrated
            self.records(),
        )
        assert report.promote
        assert report.candidate_error == pytest.approx(0.0, abs=1e-6)
        assert report.incumbent_error == pytest.approx(0.5, rel=1e-6)
        assert report.reason.startswith("promoted:")

    def test_worse_candidate_held_back(self):
        report = evaluate_canary(
            fake_pipeline(1e-3), fake_pipeline(2e-3), self.records()
        )
        assert not report.promote
        assert report.reason.startswith("held back:")

    def test_margin_blocks_marginal_wins(self):
        # Candidate at slope 1.1e-3 is ~9% better than slope 1.2e-3 —
        # not enough against a 50% required margin.
        report = evaluate_canary(
            fake_pipeline(1.2e-3),
            fake_pipeline(1.1e-3),
            self.records(),
            margin=0.5,
        )
        assert not report.promote
        assert "margin" in report.reason

    def test_empty_holdout_never_promotes(self):
        report = evaluate_canary(
            fake_pipeline(1e-3), fake_pipeline(1e-3), []
        )
        assert not report.promote and report.n_records == 0

    def test_margin_validated(self):
        with pytest.raises(InvalidConfiguration):
            evaluate_canary(
                fake_pipeline(1e-3), fake_pipeline(1e-3), [], margin=1.0
            )

    def test_replay_errors_skips_untrainable(self):
        records = self.records(3) + [make_record(9, measured=None)]
        errors = replay_errors(fake_pipeline(1e-3), records)
        assert len(errors) == 3


def _one_by_one_errors(pipeline, records) -> list[float]:
    """The replay as one bisection per record: the batched replay's oracle."""
    usable = [record for record in records if record.trainable]
    acr_hi = 4.0 * max(
        max(record.adjusted_target for record in usable),
        max(record.measured_ratio * record.nonconstant for record in usable),
    )
    errors = []
    for record in usable:
        features = np.asarray(record.features, dtype=np.float64)

        def config_at(acr):
            return model_config(pipeline.model, pipeline.compressor, features, acr)

        lo, hi = 1.0, max(acr_hi, 1.0 + 1e-9)
        if config_at(lo) >= record.config:
            acr = lo
        elif config_at(hi) <= record.config:
            acr = hi
        else:
            for _ in range(48):
                mid = 0.5 * (lo + hi)
                if config_at(mid) < record.config:
                    lo = mid
                else:
                    hi = mid
            acr = 0.5 * (lo + hi)
        predicted_ratio = acr / record.nonconstant
        errors.append(
            abs(predicted_ratio - record.measured_ratio) / record.measured_ratio
        )
    return errors


class TestBatchedReplay:
    def test_matches_one_bisection_per_record(self, fitted_pipeline):
        pipeline, _ = fitted_pipeline
        x, _ = pipeline._training.build_training_matrix()
        rng = np.random.default_rng(11)
        records = []
        for i, row in enumerate(x[rng.choice(x.shape[0], 120)]):
            features = row[:5] * rng.uniform(0.9, 1.1, 5)
            # Half the configs are the model's own answer at some ACR: a
            # prediction one bit off flips the bisection on its plateau.
            if i % 2:
                acr = rng.uniform(1.0, 60.0)
                config = model_config(pipeline.model, pipeline.compressor, features, acr)
            else:
                config = float(10.0 ** rng.uniform(-7.0, 1.0))
            records.append(
                dataclasses.replace(
                    make_record(i),
                    features=tuple(features.tolist()),
                    config=config,
                    measured_ratio=float(rng.uniform(2.0, 60.0)),
                    nonconstant=float(rng.uniform(0.3, 1.0)),
                )
            )
        records.append(make_record(999, measured=None))
        expected = _one_by_one_errors(pipeline, records)
        errors = replay_errors(pipeline, records)
        assert np.array(errors).tobytes() == np.array(expected).tobytes()
        assert len(errors) == 120 and len(set(errors)) > 60


class TestCloneWithModel:
    def test_clone_serves_new_model_with_same_corpus(self, fitted_pipeline):
        from repro.core.persistence import pipeline_fingerprint

        pipeline, train = fitted_pipeline
        model = small_forest_factory(123)
        x, y = pipeline._training.build_training_matrix()
        model.fit(x, y)
        clone = clone_with_model(pipeline, model)
        assert clone.model is model
        assert pipeline_fingerprint(clone) == pipeline_fingerprint(pipeline)
        estimate = clone.estimate_config(train[0], 8.0)
        assert estimate.config > 0


class TestRetrainerMetrics:
    def test_skipped_retrain_counts_result_once(self, tmp_path):
        from repro import obs

        metrics = obs.MetricsRegistry()
        result = retrain(
            ModelRegistry(tmp_path / "reg"),
            "sz",
            [make_record(0)],
            metrics=metrics,
        )
        assert result.candidate is None
        text = metrics.render_prometheus()
        assert 'repro_lifecycle_retrains_total{result="skipped"} 1' in text
        assert "repro_lifecycle_promotions_total 0" in text

    def test_failed_retrain_counts_error(self, tmp_path):
        from repro import obs

        metrics = obs.MetricsRegistry()
        # An empty registry has no incumbent to resolve: the attempt
        # fails after it has seen enough trainable records.
        with pytest.raises(InvalidConfiguration, match="no models"):
            retrain(
                ModelRegistry(tmp_path / "reg"),
                "sz",
                [make_record(0), make_record(1)],
                metrics=metrics,
            )
        text = metrics.render_prometheus()
        assert 'repro_lifecycle_retrains_total{result="error"} 1' in text

    def test_completed_retrain_labels_promotion_outcome(
        self, fitted_pipeline, tmp_path
    ):
        from repro import obs

        pipeline, train = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(pipeline)
        records = TestSynchronousRetrain().outcome_records(
            pipeline, train, (6.0, 8.0, 10.0, 12.0)
        )
        metrics = obs.MetricsRegistry()
        result = retrain(
            registry,
            "sz",
            records,
            canary_fraction=0.25,
            n_candidates=1,
            metrics=metrics,
        )
        expected = "promoted" if result.promoted is not None else "held"
        text = metrics.render_prometheus()
        assert (
            f'repro_lifecycle_retrains_total{{result="{expected}"}} 1' in text
        )
        promotions = 1 if result.promoted is not None else 0
        assert f"repro_lifecycle_promotions_total {promotions}" in text


class TestSynchronousRetrain:
    def outcome_records(self, pipeline, fields, targets) -> list[OutcomeRecord]:
        """Measured outcomes where the incumbent is exactly calibrated."""
        records = []
        for i, field in enumerate(fields):
            for target in targets:
                estimate = pipeline.estimate_config(field, target)
                records.append(
                    OutcomeRecord.from_estimate(
                        estimate,
                        dataset_key=f"ds-{i}",
                        compressor="sz",
                        measured_ratio=estimate.adjusted_target
                        / estimate.nonconstant,
                        source="test",
                    )
                )
        return records

    def test_retrain_publishes_unpromoted_candidate_then_canaries(
        self, fitted_pipeline, tmp_path
    ):
        pipeline, train = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        incumbent = registry.publish(pipeline)
        records = self.outcome_records(pipeline, train, (6.0, 8.0, 10.0, 12.0))

        result = retrain(
            registry, "sz", records, canary_fraction=0.25, n_candidates=1
        )

        assert result.trainable == len(records)
        assert result.holdout == 2  # ceil(0.25 * 8)
        assert result.train_rows == len(records) - result.holdout
        # The candidate is always published — promotion is the canary's
        # separate decision, recorded in the manifest either way.
        assert result.candidate.version == incumbent.version + 1
        assert result.report is not None
        latest = registry.resolve("sz", None, LATEST)
        if result.promoted is not None:
            assert latest.version == result.candidate.version
        else:
            assert latest.version == incumbent.version
        history = registry.history("sz")
        assert history[-1 if result.promoted is None else -2]["action"] == (
            "publish"
        )

    def test_too_few_outcomes_is_a_clean_no_op(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        incumbent = registry.publish(pipeline)
        result = retrain(registry, "sz", [make_record(0)])
        assert result.candidate is None and result.promoted is None
        assert "not enough" in result.reason
        assert [e.version for e in registry.entries()] == [incumbent.version]

    def test_options_validated(self, tmp_path):
        registry = ModelRegistry(tmp_path / "reg")
        records = [make_record(0), make_record(1)]
        with pytest.raises(InvalidConfiguration):
            retrain(registry, "sz", records, canary_fraction=1.0)
        with pytest.raises(InvalidConfiguration):
            retrain(registry, "sz", records, n_candidates=0)
