"""Integration tests of the estimation serving subsystem.

Covers the ISSUE's acceptance criterion end to end: a batch of 64
mixed requests served concurrently must return configurations
identical to sequential :class:`InferenceEngine` calls, with feature
cache hits and per-request latency recorded — plus the guarded-ladder
metrics plumbing and the ``estimate-batch`` CLI round trip.
"""

import gc
import json
import weakref

import numpy as np
import pytest

import repro
from repro import obs
from repro.cli import main
from repro.compressors import get_compressor
from repro.core.inference import InferenceEngine
from repro.core.persistence import save_pipeline
from repro.errors import InvalidConfiguration
from repro.runtime import RuntimeContext
from repro.serving import EstimateRequest, EstimationService, ModelRegistry

from tests.conftest import small_forest_factory

pytestmark = pytest.mark.serving


def _make_fields(n: int, side: int = 20) -> list[np.ndarray]:
    rng = np.random.default_rng(11)
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
    fields = _make_fields(7)
    config = repro.FXRZConfig(stationary_points=8, augmented_samples=60)
    pipeline = repro.FXRZ(
        get_compressor("sz"), config=config, model_factory=small_forest_factory
    )
    pipeline.fit(fields[:3])
    return pipeline, fields[3:]  # pipeline + 4 held-out probe fields


class TestServiceParity:
    def test_batch_of_64_matches_sequential_engine(self, fitted):
        pipeline, probes = fitted
        engine = InferenceEngine(
            pipeline.model, pipeline.compressor, config=pipeline.config
        )
        targets = np.linspace(3.0, 12.0, 16)
        requests = [
            EstimateRequest(data=probe, target_ratio=float(tcr))
            for probe in probes
            for tcr in targets
        ]
        assert len(requests) == 64

        with EstimationService.for_pipeline(
            pipeline, workers=4, max_batch=16
        ) as service:
            served = service.run_batch(requests)
            metrics = service.metrics

        for request, result in zip(requests, served):
            expected = engine.estimate(request.data, request.target_ratio)
            assert result.estimate.config == expected.config
            assert result.estimate.adjusted_target == expected.adjusted_target
            assert result.estimate.nonconstant == expected.nonconstant
            assert np.array_equal(result.estimate.features, expected.features)
            assert result.latency_seconds > 0

        assert metrics.requests_total == 64
        assert metrics.cache_hits > 0, "same-dataset requests must share analysis"
        assert metrics.cache_misses == 4  # one analysis per distinct dataset
        assert metrics.latency_count == 64
        assert metrics.latency_mean_ms > 0
        assert metrics.tier_counts == {"model": 64}
        assert metrics.fallback_count == 0

    def test_submit_returns_future_per_request(self, fitted):
        pipeline, probes = fitted
        with EstimationService.for_pipeline(pipeline, workers=2) as service:
            future = service.submit(
                EstimateRequest(data=probes[0], target_ratio=6.0)
            )
            served = future.result(timeout=30)
        assert served.estimate.config > 0
        assert served.request_id.startswith("req-")
        assert served.batch_size >= 1

    def test_dataset_id_coalesces_without_hashing(self, fitted):
        pipeline, probes = fitted
        requests = [
            EstimateRequest(
                data=probes[0], target_ratio=float(t), dataset_id="snap-0"
            )
            for t in (4.0, 6.0, 8.0)
        ]
        with EstimationService.for_pipeline(pipeline, workers=1) as service:
            served = service.run_batch(requests)
            metrics = service.metrics
        assert {s.dataset_key for s in served} == {"id:snap-0"}
        assert metrics.cache_misses == 1
        assert metrics.cache_hits == 2

    def test_per_request_errors_do_not_poison_the_batch(self, fitted):
        pipeline, probes = fitted
        constant = np.full((16, 16, 16), 3.0, dtype=np.float32)
        requests = [
            EstimateRequest(data=probes[0], target_ratio=6.0),
            EstimateRequest(data=constant, target_ratio=6.0),  # R = 0 -> raises
            EstimateRequest(data=probes[1], target_ratio=6.0),
        ]
        with EstimationService.for_pipeline(pipeline, workers=2) as service:
            futures = service.submit_many(requests)
            good_first = futures[0].result(timeout=30)
            with pytest.raises(InvalidConfiguration, match="entirely constant"):
                futures[1].result(timeout=30)
            good_last = futures[2].result(timeout=30)
            metrics = service.metrics
        assert good_first.estimate.config > 0
        assert good_last.estimate.config > 0
        assert metrics.requests_failed == 1
        assert metrics.requests_total == 3

    def test_estimate_without_a_target_fails_typed(self, fitted):
        pipeline, probes = fitted
        with EstimationService.for_pipeline(pipeline, workers=1) as service:
            with pytest.raises(InvalidConfiguration, match="target_ratio"):
                service.estimate(probes[0])
            with pytest.raises(InvalidConfiguration, match="not both"):
                service.estimate(probes[0], 6.0, objective="psnr:50")
            assert service.metrics.requests_total == 0

    def test_closed_service_rejects_submissions(self, fitted):
        pipeline, probes = fitted
        service = EstimationService.for_pipeline(pipeline, workers=1)
        service.close()
        service.close()  # idempotent
        with pytest.raises(InvalidConfiguration, match="closed"):
            service.submit(EstimateRequest(data=probes[0], target_ratio=5.0))


class TestServiceMetrics:
    """``service.metrics`` reads back the series in the service's registry."""

    def _serve_three(self, service, probe):
        return service.run_batch(
            [EstimateRequest(data=probe, target_ratio=t) for t in (4.0, 6.0, 8.0)]
        )

    def test_metrics_live_in_the_context_registry(self, fitted):
        pipeline, probes = fitted
        registry = obs.MetricsRegistry()
        ctx = RuntimeContext(env={}, registry=registry)
        with EstimationService.for_pipeline(
            pipeline, ctx=ctx, workers=1
        ) as service:
            self._serve_three(service, probes[0])
            metrics = service.metrics
        assert metrics.requests_total == 3
        assert (metrics.cache_misses, metrics.cache_hits) == (1, 2)
        text = registry.render_prometheus()
        assert 'repro_serving_requests_total{outcome="ok"} 3' in text
        assert 'repro_serving_latency_seconds_count{outcome="ok"} 3' in text
        assert "repro_serving_feature_cache_hits 2" in text

    def test_services_sharing_a_registry_share_counts(self, fitted):
        pipeline, probes = fitted
        ctx = RuntimeContext(env={}, registry=obs.MetricsRegistry())
        with EstimationService.for_pipeline(
            pipeline, ctx=ctx, workers=1
        ) as first, EstimationService.for_pipeline(
            pipeline, ctx=ctx, workers=1
        ) as second:
            self._serve_three(first, probes[0])
            assert second.metrics.requests_total == 3
            assert second.metrics.latency_count == 3

    def test_without_a_registry_each_service_gets_its_own(self, fitted):
        pipeline, probes = fitted
        assert obs.get_registry() is None
        ctx = RuntimeContext(env={})
        assert ctx.registry is None
        with EstimationService.for_pipeline(
            pipeline, ctx=ctx, workers=1
        ) as first, EstimationService.for_pipeline(
            pipeline, ctx=ctx, workers=1
        ) as second:
            self._serve_three(first, probes[0])
            assert first.metrics.requests_total == 3
            assert first.metrics.cache_hits == 2
            assert second.metrics.requests_total == 0

    # A scrape endpoint (scrape_port 0) adds the service's SLO tracker
    # exporter, on either lane; sharded, on top of the supervision
    # gauges.
    @pytest.mark.parametrize(
        "shards,scrape_port", [(0, -1), (0, 0), (1, -1), (1, 0)],
        ids=["0", "0-scraped", "1", "1-scraped"],
    )
    def test_closed_services_leave_a_shared_registry(
        self, fitted, shards, scrape_port
    ):
        pipeline, probes = fitted
        registry = obs.MetricsRegistry()
        ctx = RuntimeContext(env={}, registry=registry, scrape_port=scrape_port)
        before = len(registry._collectors)
        caches = []
        for _ in range(5):
            service = EstimationService.for_pipeline(
                pipeline, ctx=ctx, workers=1, shards=shards
            )
            self._serve_three(service, probes[0])
            caches.append(weakref.ref(service.cache))
            service.close()
            service.close()  # idempotent: removes nothing twice
            assert len(registry._collectors) == before
        del service
        gc.collect()
        assert [ref() for ref in caches] == [None] * 5


class TestDeadlinesAndShutdown:
    def test_queued_request_past_deadline_fails_typed(self, fitted):
        from repro.errors import DeadlineExceededError

        pipeline, probes = fitted
        with EstimationService.for_pipeline(pipeline, workers=1) as service:
            # One worker: the doomed request sits queued behind real
            # work until well past its microscopic deadline.
            blockers = service.submit_many(
                [
                    EstimateRequest(data=probe, target_ratio=6.0)
                    for probe in probes[:3]
                ]
            )
            doomed = service.submit(
                EstimateRequest(
                    data=probes[3], target_ratio=6.0, deadline_seconds=1e-05
                )
            )
            with pytest.raises(DeadlineExceededError, match="expired"):
                doomed.result(timeout=30)
            for future in blockers:
                assert future.result(timeout=30).estimate.config > 0
            metrics = service.metrics
        assert metrics.requests_failed == 1

    def test_invalid_deadlines_rejected(self, fitted):
        pipeline, probes = fitted
        with pytest.raises(InvalidConfiguration, match="default_deadline"):
            EstimationService.for_pipeline(
                pipeline, workers=1, default_deadline=-2.0
            )
        with EstimationService.for_pipeline(pipeline, workers=1) as service:
            with pytest.raises(InvalidConfiguration, match="deadline"):
                service.submit(
                    EstimateRequest(
                        data=probes[0], target_ratio=6.0, deadline_seconds=0.0
                    )
                )

    def test_close_without_drain_rejects_queued_work(self, fitted):
        from repro.errors import ServiceClosedError

        pipeline, probes = fitted
        service = EstimationService.for_pipeline(pipeline, workers=1)
        futures = service.submit_many(
            [
                EstimateRequest(
                    data=probes[i % len(probes)], target_ratio=4.0 + 0.2 * i
                )
                for i in range(12)
            ]
        )
        service.close(drain=False)
        assert all(f.done() for f in futures), "no future may be left hanging"
        rejected = sum(
            1
            for f in futures
            if isinstance(f.exception(), ServiceClosedError)
        )
        assert rejected >= 1, "an immediate close must reject queued work"
        with pytest.raises(InvalidConfiguration, match="closed"):
            service.submit(EstimateRequest(data=probes[0], target_ratio=5.0))


class TestGuardedServing:
    def test_degradations_are_counted(self, fitted):
        pipeline, probes = fitted
        polluted = probes[0].copy()
        polluted[0, 0, 0] = np.nan  # validation patches it, confidence drops
        with EstimationService.for_pipeline(
            pipeline,
            guarded=True,
            guard_options={"fallback": "curve", "min_confidence": 0.99},
            workers=2,
        ) as service:
            served = service.estimate(polluted, 6.0)
            metrics = service.metrics
        assert served.estimate.tier != "model"
        assert served.estimate.fallback_reason
        assert metrics.fallback_count == 1
        assert sum(metrics.tier_counts.values()) == 1
        assert "model" not in metrics.tier_counts

    def test_clean_input_stays_on_model_tier(self, fitted):
        pipeline, probes = fitted
        with EstimationService.for_pipeline(
            pipeline,
            guarded=True,
            # The tiny test forest scores low spread-confidence even on
            # clean in-envelope inputs; accept any confidence so the
            # test isolates the clean-path tier accounting.
            guard_options={"min_confidence": 0.0},
            workers=1,
        ) as service:
            served = service.estimate(probes[0], 6.0)
            metrics = service.metrics
        assert served.estimate.tier == "model"
        assert metrics.tier_counts == {"model": 1}
        assert metrics.fallback_count == 0


class TestInProcessTracing:
    def test_served_estimate_carries_request_trace_id(self, fitted):
        pipeline, probes = fitted
        tracer = obs.Tracer()
        obs.install(tracer=tracer)
        try:
            with EstimationService.for_pipeline(pipeline, workers=1) as service:
                served = service.estimate(probes[0], 6.0)
                parent = obs.SpanContext(trace_id=987654321, span_id=12345)
                joined = service.submit(
                    EstimateRequest(
                        data=probes[0], target_ratio=6.0, trace=parent
                    )
                ).result()
            spans = tracer.drain()
        finally:
            obs.uninstall()
        roots = [s for s in spans if s.name == "serving.request"]
        assert len(roots) == 2
        first, second = roots
        assert served.trace_id == served.estimate.trace_id == first.trace_id
        assert served.trace_id != 0
        # An explicit request trace parents the request span.
        assert joined.trace_id == joined.estimate.trace_id == parent.trace_id
        assert second.trace_id == parent.trace_id
        assert second.parent_id == parent.span_id


class TestBatchCLI:
    @pytest.fixture(scope="class")
    def cli_setup(self, fitted, tmp_path_factory):
        pipeline, probes = fitted
        root = tmp_path_factory.mktemp("serve-cli")
        model = root / "model.npz"
        save_pipeline(pipeline, model)
        inputs = []
        for i, probe in enumerate(probes[:2]):
            path = root / f"probe{i}.npy"
            np.save(path, probe)
            inputs.append(str(path))
        requests = root / "requests.jsonl"
        lines = [
            json.dumps({"id": f"r{n}", "input": inp, "ratio": ratio})
            for n, (inp, ratio) in enumerate(
                (inp, ratio)
                for inp in inputs
                for ratio in (4.0, 6.0, 9.0)
            )
        ]
        requests.write_text("\n".join(lines) + "\n")
        return pipeline, root, str(model), str(requests), inputs

    def test_estimate_batch_roundtrip(self, cli_setup, capsys):
        pipeline, root, model, requests, inputs = cli_setup
        out = root / "results.jsonl"
        code = main(
            [
                "estimate-batch",
                requests,
                "--model",
                model,
                "--engine",
                "plain",
                "--output",
                str(out),
                "--stats",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "served 6 request(s) (0 failed) over 2 dataset(s)" in stdout
        assert "-- service stats --" in stdout
        assert "feature cache" in stdout
        assert "supervision" not in stdout  # no shard lane, no line

        code = main(
            [
                "estimate-batch",
                requests,
                "--model",
                model,
                "--shards",
                "1",
                "--output",
                str(root / "sharded.jsonl"),
                "--stats",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "supervision     admitted 6, shed 0, expired 0" in stdout

        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 6
        for record in records:
            expected = pipeline.estimate_config(
                np.load(record["input"]), record["ratio"]
            )
            assert record["config"] == pytest.approx(expected.config)
            assert record["tier"] == "model"
            assert record["latency_ms"] > 0
        assert sum(r["cache_hit"] for r in records) >= 4

    def test_registry_backed_serving(self, cli_setup, capsys):
        pipeline, root, _, requests, _ = cli_setup
        registry_dir = root / "registry"
        ModelRegistry(registry_dir).publish(pipeline)
        code = main(
            [
                "estimate-batch",
                requests,
                "--registry",
                str(registry_dir),
                "--compressor",
                "sz",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 6
        assert all(json.loads(line)["config"] > 0 for line in lines)

    def test_bad_request_file_reports_line(self, cli_setup, capsys, tmp_path):
        _, _, model, _, _ = cli_setup
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"input": "x.npy"}\n')
        code = main(["estimate-batch", str(bad), "--model", model])
        assert code == 2
        assert 'needs "input" and "ratio"' in capsys.readouterr().err

    def test_model_or_registry_required(self, cli_setup, capsys):
        _, _, _, requests, _ = cli_setup
        code = main(["estimate-batch", requests])
        assert code == 2
        assert "--model or --registry" in capsys.readouterr().err
