"""End-to-end tests of the online learning loop.

Covers the loop on a drifted workload: its measured outcomes are
logged and replayed, a synchronous retrain fits candidates, the canary
promotes the winner, and the promoted model beats the frozen incumbent
on the held-out outcome slice. Plus the supervision plumbing:
parent-side outcome recording under a shard crash storm must never
tear a JSONL line, and the supervisor's breaker/late-reply state must
surface as ``repro_serving_*`` gauges. And the CLI: ``outcomes-report``
and ``retrain`` on a log, with and without promotion, and a typo'd log
path.
"""

import json
from concurrent.futures import wait

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.compressors import get_compressor
from repro.core.persistence import save_pipeline
from repro.lifecycle import (
    OutcomeLog,
    OutcomeRecord,
    read_outcomes,
    retrain,
)
from repro.robustness.faults import FaultSpec
from repro.runtime import RuntimeContext
from repro.serving import (
    EstimateRequest,
    EstimationService,
    LATEST,
    ModelRegistry,
)

from tests.conftest import small_forest_factory
from tests.integration.test_sharded_serving import (
    _FAST,
    _FAST_CTX,
    _wait_ready,
)

pytestmark = pytest.mark.lifecycle


def _smooth_fields(n: int, side: int = 20) -> list[np.ndarray]:
    rng = np.random.default_rng(7)
    lin = np.linspace(0, 4 * np.pi, side)
    x, y, _ = np.meshgrid(lin, lin, lin, indexing="ij")
    return [
        (np.sin(x + 0.3 * i) * np.cos(y) + 0.03 * rng.standard_normal((side,) * 3))
        .astype(np.float32)
        for i in range(n)
    ]


def _noisy_fields(n: int, side: int = 16) -> list[np.ndarray]:
    """A drifted workload: pure noise, nothing like the training corpus."""
    rng = np.random.default_rng(23)
    return [
        rng.standard_normal((side,) * 3).astype(np.float32) for _ in range(n)
    ]


@pytest.fixture(scope="module")
def fitted():
    fields = _smooth_fields(4)
    config = repro.FXRZConfig(stationary_points=8, augmented_samples=60)
    pipeline = repro.FXRZ(
        get_compressor("sz"), config=config, model_factory=small_forest_factory
    )
    pipeline.fit(fields[:2])
    return pipeline, fields[2:]


@pytest.fixture(scope="module")
def model_path(fitted, tmp_path_factory):
    pipeline, _ = fitted
    path = tmp_path_factory.mktemp("lifecycle") / "model.fxrz"
    save_pipeline(pipeline, path)
    return str(path)


def _measured_outcomes(
    pipeline, fields, targets, *, log=None
) -> list[OutcomeRecord]:
    """Serve each (field, target), measure the true ratio, record it."""
    compressor = pipeline.compressor
    records = []
    for i, field in enumerate(fields):
        for target in targets:
            estimate = pipeline.estimate_config(field, target)
            measured = compressor.compression_ratio(field, estimate.config)
            record = OutcomeRecord.from_estimate(
                estimate,
                dataset_key=f"drift-{i}",
                compressor=compressor.name,
                measured_ratio=measured,
                source="test",
            )
            records.append(record)
            if log is not None:
                log.record(record)
    return records


class TestCanaryEndToEnd:
    def test_drift_retrain_promote_improves(self, fitted, tmp_path):
        pipeline, _ = fitted
        registry = ModelRegistry(tmp_path / "reg")
        incumbent = registry.publish(pipeline)

        log_path = tmp_path / "outcomes.jsonl"
        with OutcomeLog(log_path) as log:
            _measured_outcomes(
                pipeline, _noisy_fields(6), (5.0, 8.0, 11.0), log=log
            )

        replay = read_outcomes(log_path)
        assert replay.torn_lines == 0
        result = retrain(
            registry,
            "sz",
            replay.records,
            canary_fraction=0.25,
            oversample=4,
            n_candidates=2,
        )

        assert result.candidate.version == incumbent.version + 1
        assert result.report.promote, result.report.reason
        assert result.promoted is not None
        assert result.report.candidate_error < result.report.incumbent_error
        latest = registry.resolve("sz", None, LATEST)
        assert latest.version == result.candidate.version
        # The manifest remembers the flip, so rollback can undo it.
        history = registry.history("sz")
        assert history[-1]["action"] == "promote"
        assert history[-1]["previous"] == incumbent.version

    def test_retrained_model_serves_drifted_workload_better(
        self, fitted, tmp_path
    ):
        """Fresh estimates (not just the canary replay) must improve."""
        pipeline, _ = fitted
        registry = ModelRegistry(tmp_path / "reg")
        incumbent = registry.publish(pipeline)
        probes = _noisy_fields(8)
        records = _measured_outcomes(pipeline, probes[:6], (5.0, 8.0, 11.0))

        result = retrain(
            registry, "sz", records, canary_fraction=0.25, oversample=4
        )
        assert result.promoted is not None, result.reason

        frozen = registry.load("sz", incumbent.fingerprint, incumbent.version)
        promoted = registry.load("sz", None, LATEST)

        def median_error(serving) -> float:
            errors = []
            for field in probes[6:]:
                for target in (6.0, 9.0):
                    estimate = serving.estimate_config(field, target)
                    measured = serving.compressor.compression_ratio(
                        field, estimate.config
                    )
                    errors.append(abs(measured - target) / target)
            return float(np.median(errors))

        assert median_error(promoted) < median_error(frozen), (
            "the promoted model must hit drifted targets the frozen "
            "incumbent misses"
        )


@pytest.mark.chaos
class TestSupervisedOutcomeRecording:
    def test_parent_side_log_and_gauges(self, fitted, model_path, tmp_path):
        pipeline, probes = fitted
        log_path = tmp_path / "outcomes.jsonl"
        with RuntimeContext(
            env={},
            metrics=str(tmp_path / "metrics.json"),
            outcome_log=str(log_path),
            **_FAST_CTX,
        ) as ctx:
            with EstimationService.for_pipeline(
                pipeline,
                guarded=True,
                ctx=ctx,
                shards=2,
                model_path=model_path,
                **_FAST,
            ) as service:
                _wait_ready(service)
                requests = [
                    EstimateRequest(data=probe, target_ratio=float(t))
                    for probe in probes
                    for t in (5.0, 8.0)
                ]
                served = service.run_batch(requests, timeout=120.0)
                text = ctx.registry.render_prometheus()
            assert len(served) == len(requests)
            assert 'repro_serving_supervisor_events{event="admitted"}' in text
            assert "repro_serving_late_replies" in text
            assert 'repro_serving_breaker_state{shard="0"} 0' in text
            assert 'repro_serving_shard_ready{shard="1"} 1' in text
        replay = read_outcomes(log_path)
        assert replay.torn_lines == 0
        assert len(replay.records) == len(requests)
        assert {r.source for r in replay.records} == {"shard"}
        assert all(r.compressor == "sz" for r in replay.records)

    def test_crash_storm_never_tears_a_line(self, fitted, model_path, tmp_path):
        """Shards die mid-load; the parent-side log stays line-atomic."""
        pipeline, probes = fitted
        log_path = tmp_path / "outcomes.jsonl"
        faults = FaultSpec(seed=7, worker_crash_prob=0.25)
        with OutcomeLog(log_path) as log, RuntimeContext(
            env={}, **_FAST_CTX
        ) as ctx:
            with EstimationService.for_pipeline(
                pipeline,
                guarded=True,
                ctx=ctx,
                shards=3,
                model_path=model_path,
                faults=faults,
                max_redeliveries=4,
                outcome_log=log,
                **_FAST,
            ) as service:
                _wait_ready(service)
                futures = []
                for i in range(30):
                    futures.append(
                        service.submit(
                            EstimateRequest(
                                data=probes[i % len(probes)],
                                target_ratio=4.0 + 0.25 * (i % 16),
                            )
                        )
                    )
                    if i == 5:
                        service.pool.kill_shard(0)
                    if i == 15:
                        service.pool.kill_shard(1)
                done, not_done = wait(futures, timeout=120.0)
                metrics = service.metrics
        assert not not_done and len(done) == 30
        assert metrics.requests_total == 30 and metrics.requests_failed == 0
        replay = read_outcomes(log_path)
        assert replay.torn_lines == 0, (
            "shard deaths must never tear an outcome line"
        )
        assert len(replay.records) == 30
        for line in log_path.read_text().splitlines():
            json.loads(line)  # every surviving line is complete JSON
        # Requests rescued by the degradation ladder are labeled so.
        assert {r.source for r in replay.records} <= {"shard", "fallback"}


class TestGuardedRecording:
    def test_guarded_engine_records_explicit_log_only(self, fitted, tmp_path):
        pipeline, probes = fitted
        log_path = tmp_path / "guarded.jsonl"
        with OutcomeLog(log_path) as log:
            engine = pipeline.guarded(outcome_log=log)
            estimate = engine.estimate(probes[0], 8.0, dataset_key="probe-0")
        assert estimate.config > 0
        replay = read_outcomes(log_path)
        assert len(replay.records) == 1
        record = replay.records[0]
        assert record.source == "guarded"
        assert record.dataset_key == "probe-0"
        assert record.tier == estimate.tier


class TestLifecycleCLI:
    def test_estimate_and_compress_write_outcome_log(
        self, fitted, model_path, tmp_path
    ):
        """The single-shot CLI paths must honor ``--outcome-log``."""
        _, probes = fitted
        data_path = tmp_path / "probe.npy"
        np.save(data_path, probes[0])
        log_path = tmp_path / "cli.jsonl"
        common = ["--model", model_path, "--outcome-log", str(log_path)]
        assert main(["estimate", str(data_path), "--ratio", "6", *common]) == 0
        assert (
            main(
                [
                    "compress",
                    str(data_path),
                    "--ratio",
                    "6",
                    "--output",
                    str(tmp_path / "probe.fxrz"),
                    *common,
                ]
            )
            == 0
        )
        replay = read_outcomes(log_path)
        assert [r.source for r in replay.records] == ["guarded", "compress"]
        assert all(r.dataset_key == str(data_path) for r in replay.records)
        assert replay.records[0].measured_ratio is None
        assert replay.records[1].trainable

    def test_outcomes_report_and_retrain_roundtrip(
        self, fitted, tmp_path, capsys
    ):
        pipeline, _ = fitted
        registry_root = tmp_path / "reg"
        registry = ModelRegistry(registry_root)
        registry.publish(pipeline)
        log_path = tmp_path / "outcomes.jsonl"
        with OutcomeLog(log_path) as log:
            _measured_outcomes(
                pipeline, _noisy_fields(4), (5.0, 9.0), log=log
            )

        assert main(["outcomes-report", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "8 record(s)" in out
        assert "8 trainable" in out
        assert "median relative CR error" in out

        assert (
            main(
                [
                    "retrain",
                    "--registry",
                    str(registry_root),
                    "--outcomes",
                    str(log_path),
                    "--no-promote",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "candidate: sz/" in out
        # --no-promote: the candidate is published but latest stays put.
        assert registry.resolve("sz", None, LATEST).version == 1
        versions = [e.version for e in registry.entries()]
        assert 2 in versions

    def test_retrain_promotes_and_flips_latest(self, fitted, tmp_path, capsys):
        pipeline, _ = fitted
        registry_root = tmp_path / "reg"
        registry = ModelRegistry(registry_root)
        incumbent = registry.publish(pipeline)
        log_path = tmp_path / "outcomes.jsonl"
        with OutcomeLog(log_path) as log:
            _measured_outcomes(
                pipeline, _noisy_fields(6), (5.0, 8.0, 11.0), log=log
            )

        argv = ["retrain", "--registry", str(registry_root),
                "--outcomes", str(log_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        candidate = incumbent.version + 1
        assert f"promoted v{candidate} to latest" in out
        assert registry.resolve("sz", None, LATEST).version == candidate
        history = registry.history("sz")
        assert history[-1]["action"] == "promote"
        assert history[-1]["previous"] == incumbent.version

    @pytest.mark.parametrize("command", ["outcomes-report", "retrain"])
    def test_missing_outcome_log_is_an_error(self, command, tmp_path, capsys):
        missing = tmp_path / "typo.jsonl"
        if command == "retrain":
            argv = ["retrain", "--registry", str(tmp_path / "reg"),
                    "--outcomes", str(missing)]
        else:
            argv = ["outcomes-report", str(missing)]
        assert main(argv) == 2
        assert f"no outcome log at {missing}" in capsys.readouterr().err
