"""End-to-end distributed-trace propagation through the shard lane.

The acceptance scenario from ``docs/OBSERVABILITY.md``: a request
driven through the shard lane of :class:`EstimationService` — including
one whose shard dies mid-request — must come back with ONE connected
span tree under a stable ``trace_id``: admission, per-generation shard
attempts, redelivery and the in-process rescue all parent back to the
same request root, and that same id is visible on the returned
estimate, in the outcome log and at the embedded ``/spans`` endpoint.
"""

import json
import time
import urllib.request

import numpy as np
import pytest

import repro
from repro import obs
from repro.compressors import get_compressor
from repro.core.persistence import save_pipeline
from repro.lifecycle import OutcomeLog, read_outcomes
from repro.robustness.faults import FaultSpec
from repro.runtime import RuntimeContext
from repro.serving import EstimateRequest, EstimationService

from tests.conftest import small_forest_factory

pytestmark = [pytest.mark.serving, pytest.mark.chaos, pytest.mark.obs]

_FAST = dict(poll_interval=0.01)
_FAST_CTX = dict(
    retry_attempts=5,
    retry_base_delay=0.02,
    breaker_failures=4,
    breaker_reset=0.3,
)


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
    fields = _make_fields(5)
    config = repro.FXRZConfig(stationary_points=8, augmented_samples=60)
    pipeline = repro.FXRZ(
        get_compressor("sz"), config=config, model_factory=small_forest_factory
    )
    pipeline.fit(fields[:3])
    return pipeline, fields[3:]


@pytest.fixture(scope="module")
def model_path(fitted, tmp_path_factory):
    pipeline, _ = fitted
    path = tmp_path_factory.mktemp("tracing") / "model.fxrz"
    save_pipeline(pipeline, path)
    return str(path)


def _wait_ready(service, want: int | None = None, timeout: float = 30.0):
    pool = service.pool
    want = pool.n_shards if want is None else want
    give_up = time.monotonic() + timeout
    while time.monotonic() < give_up:
        states = pool.shard_states()
        if sum(s["state"] == "ready" for s in states) >= want:
            return states
        time.sleep(0.02)
    raise AssertionError(
        f"{want} shard(s) never became ready: {pool.shard_states()}"
    )


def _trace_spans(tracer, trace_id):
    return [s for s in tracer.spans if s.trace_id == trace_id]


def _assert_connected(spans):
    """Every span must parent to another span of the same trace (one
    root excepted) — i.e. the trace is a single connected tree."""
    ids = {s.span_id for s in spans}
    roots = [s for s in spans if s.parent_id is None]
    assert len(roots) == 1, [s.name for s in roots]
    for span in spans:
        if span.parent_id is not None:
            assert span.parent_id in ids, (
                f"{span.name} dangles: parent {span.parent_id} not in trace"
            )
    return roots[0]


class TestHappyPathPropagation:
    def test_shard_spans_reparent_under_request_root(
        self, fitted, model_path, tmp_path
    ):
        pipeline, probes = fitted
        log_path = tmp_path / "outcomes.jsonl"
        with obs.session() as (tracer, _registry):
            with OutcomeLog(log_path) as log:
                with RuntimeContext(
                    env={}, scrape_port=0, **_FAST_CTX
                ) as ctx, EstimationService.for_pipeline(
                    pipeline,
                    guarded=True,
                    ctx=ctx,
                    shards=1,
                    model_path=model_path,
                    outcome_log=log,
                    **_FAST,
                ) as service:
                    _wait_ready(service)
                    served = service.estimate(probes[0], 6.0)
                    scrape = service.pool.scrape_url
                    assert scrape is not None
                    with urllib.request.urlopen(
                        f"{scrape}/spans?trace={served.trace_id}", timeout=5
                    ) as response:
                        exported = [
                            json.loads(line)
                            for line in response.read().decode().splitlines()
                        ]

        # One stable id on every surface of the reply.
        assert served.trace_id != 0
        assert served.estimate.trace_id == served.trace_id

        spans = _trace_spans(tracer, served.trace_id)
        root = _assert_connected(spans)
        assert root.name == "serving.request"
        names = {s.name for s in spans}
        assert {"supervisor.admit", "supervisor.dispatch",
                "shard.serve"} <= names

        # The shard's span crossed the fork boundary: recorded in the
        # child process, re-parented under the supervisor's request.
        shard_span = next(s for s in spans if s.name == "shard.serve")
        assert shard_span.pid != root.pid
        assert shard_span.parent_id == root.span_id
        assert shard_span.attributes["generation"] == 1
        assert shard_span.attributes["tier"] == served.estimate.tier

        # ... and the scrape endpoint serves the very same tree.
        assert {s["span_id"] for s in exported} >= {s.span_id for s in spans}

        # ... and the outcome log carries the id for offline joins.
        replay = read_outcomes(log_path)
        [record] = replay.records
        assert record.trace_id == served.trace_id
        assert record.source == "shard"


class TestChaosTraceSurvivesShardDeath:
    def test_fallback_span_lands_under_original_trace(
        self, fitted, model_path, tmp_path
    ):
        pipeline, probes = fitted
        faults = FaultSpec(seed=11, poison_request_prob=0.4)
        poison_id = next(
            rid
            for rid in (f"poison-{i}" for i in range(64))
            if faults.is_poison(rid)
        )
        log_path = tmp_path / "outcomes.jsonl"
        with obs.session() as (tracer, _registry):
            with OutcomeLog(log_path) as log:
                with RuntimeContext(
                    env={}, **_FAST_CTX
                ) as ctx, EstimationService.for_pipeline(
                    pipeline,
                    guarded=True,
                    ctx=ctx,
                    shards=2,
                    model_path=model_path,
                    faults=faults,
                    max_redeliveries=1,
                    outcome_log=log,
                    **_FAST,
                ) as service:
                    _wait_ready(service)
                    served = service.submit(
                        EstimateRequest(
                            data=probes[0],
                            target_ratio=6.0,
                            request_id=poison_id,
                        )
                    ).result(timeout=120.0)
                    # Let supervision finish the story: the poisoned
                    # shard's death must be followed by a respawn.
                    give_up = time.monotonic() + 30.0
                    while (
                        service.pool.stats.respawns < 1
                        and time.monotonic() < give_up
                    ):
                        time.sleep(0.02)
                    stats = service.pool.stats

        assert served.estimate.config > 0
        assert served.trace_id != 0
        assert stats.redelivered >= 1 and stats.fallbacks >= 1

        spans = _trace_spans(tracer, served.trace_id)
        root = _assert_connected(spans)
        assert root.name == "serving.request"
        assert root.status == "ok"

        # The poison bounced: >= 2 dispatch attempts, distinct
        # (shard, generation) coordinates on each.
        dispatches = [s for s in spans if s.name == "supervisor.dispatch"]
        assert len(dispatches) >= 2
        attempts = {
            (s.attributes["shard"], s.attributes["generation"])
            for s in dispatches
        }
        assert len(attempts) >= 2

        # The redelivery decision is an event in the same trace.
        redelivers = [s for s in spans if s.name == "supervisor.redeliver"]
        assert redelivers
        assert all(s.attributes["generation"] >= 1 for s in redelivers)

        # The rescue ran under the original trace, labelled with the
        # generation of the attempt it rescued.
        fallback = next(
            s for s in spans if s.name == "serving.local"
        )
        assert fallback.parent_id == root.span_id
        assert fallback.attributes["request_id"] == poison_id
        assert fallback.attributes["generation"] >= 1
        assert fallback.attributes["redeliveries"] >= 1

        # Shard deaths show up as supervision events (their own traces:
        # respawns are service-level, not request-level)...
        all_names = {s.name for s in tracer.spans}
        assert "supervisor.respawn" in all_names

        # ...while the outcome log joins the request by the same id.
        replay = read_outcomes(log_path)
        [record] = replay.records
        assert record.trace_id == served.trace_id
        assert record.source == "fallback"
