"""Serving resilience — backpressure shedding and chaos under load.

Two phases against the estimation service's shard lane, both guarding the supervisor's
core invariant: **every admitted request's future resolves**, whatever
dies.

* **Overload** — a burst several times the admission queue's depth hits
  a deliberately undersized service. The bench records how many
  submissions shed (with a positive ``retry_after`` hint) versus
  admitted, and asserts the admitted-request loss rate is exactly 0.
* **Chaos** — a steady load runs over three shards while seeded crash
  faults fire inside the workers and the bench kills two shards
  outright mid-load. Recorded: p50/p99 latency of the served requests,
  supervisor counters (respawns, redeliveries, fallbacks) and, again, a
  loss rate of 0.

Both phases land in the repo-root ``BENCH_serving_resilience.json`` so
a regression in either shedding accounting or crash recovery shows up
as a diff, not a hang.
"""

import json
import pathlib
import time
from concurrent.futures import wait

import numpy as np

from conftest import BENCH_CONFIG
from repro.errors import ServiceOverloadedError
from repro.experiments.corpus import held_out_snapshots
from repro.experiments.harness import get_trained_fxrz
from repro.experiments.tables import render_table
from repro.robustness.faults import FaultSpec
from repro.runtime import RuntimeContext
from repro.serving import EstimateRequest, EstimationService

_RESILIENCE_JSON = (
    pathlib.Path(__file__).resolve().parents[1]
    / "BENCH_serving_resilience.json"
)

#: Supervision knobs tight enough that recovery happens in bench time:
#: the pool's tick, and the context's respawn backoff and breakers.
_FAST = dict(poll_interval=0.01)
_FAST_CTX = dict(
    retry_attempts=6,
    retry_base_delay=0.05,
    breaker_failures=4,
    breaker_reset=0.3,
)


def _merge_json(update: dict) -> None:
    """Merge ``update`` so either phase can run alone without clobbering."""
    existing: dict = {}
    if _RESILIENCE_JSON.is_file():
        try:
            existing = json.loads(_RESILIENCE_JSON.read_text())
        except ValueError:
            existing = {}
    if not isinstance(existing, dict):
        existing = {}
    existing.update(update)
    _RESILIENCE_JSON.write_text(json.dumps(existing, indent=2) + "\n")


def _targets(pipeline, snapshot, n: int) -> np.ndarray:
    lo, hi = pipeline.trained_ratio_range(snapshot.data)
    return np.linspace(lo * 1.05, hi * 0.95, n)


def test_overload_shedding(report):
    pipeline = get_trained_fxrz("hurricane", "TC", "sz", config=BENCH_CONFIG)
    snapshot = held_out_snapshots("hurricane", "TC")[0]
    burst = 160
    queue_depth = 8
    targets = _targets(pipeline, snapshot, burst)

    with RuntimeContext(
        env={}, **_FAST_CTX
    ) as ctx, EstimationService.for_pipeline(
        pipeline,
        guarded=True,
        ctx=ctx,
        shards=2,
        queue_depth=queue_depth,
        max_inflight_per_shard=2,
        **_FAST,
    ) as service:
        futures, hints = [], []
        for tcr in targets:
            try:
                futures.append(
                    service.submit(
                        EstimateRequest(
                            data=snapshot.data,
                            target_ratio=float(tcr),
                            dataset_id=snapshot.name,
                        )
                    )
                )
            except ServiceOverloadedError as exc:
                hints.append(exc.retry_after)
        done, not_done = wait(futures, timeout=300.0)
        stats = service.pool.stats
        metrics = service.metrics

    admitted = len(futures)
    shed = len(hints)
    lost = len(not_done) + sum(1 for f in done if f.exception() is not None)
    loss_rate = lost / max(1, admitted)
    latencies = sorted(
        f.result().latency_seconds for f in done if f.exception() is None
    )
    p50 = float(np.percentile(latencies, 50))
    p99 = float(np.percentile(latencies, 99))

    report(
        render_table(
            ["metric", "value"],
            [
                ["burst size", str(burst)],
                ["queue depth", str(queue_depth)],
                ["admitted", str(admitted)],
                ["shed", str(shed)],
                ["loss rate (admitted)", f"{loss_rate:.4f}"],
                ["retry_after hint (median)", f"{np.median(hints):.3f} s"],
                ["latency p50", f"{p50 * 1e3:.1f} ms"],
                ["latency p99", f"{p99 * 1e3:.1f} ms"],
            ],
            title=(
                "Overload shedding - bounded admission under a "
                f"{burst}-request burst"
            ),
        )
    )

    _merge_json(
        {
            "overload": {
                "burst": burst,
                "queue_depth": queue_depth,
                "admitted": admitted,
                "shed": shed,
                "loss_rate": loss_rate,
                "retry_after_median_seconds": float(np.median(hints)),
                "latency_p50_seconds": p50,
                "latency_p99_seconds": p99,
                "stats": {
                    "completed": metrics.requests_total
                    - metrics.requests_failed,
                    "shed": stats.shed,
                    "failed": metrics.requests_failed,
                },
                "guard": "loss_rate == 0 and shed > 0 with retry_after > 0",
            }
        }
    )

    assert admitted + shed == burst
    assert shed > 0, "a burst 20x the queue depth must shed"
    assert all(hint > 0 for hint in hints)
    assert loss_rate == 0.0, "every admitted request must resolve"
    assert metrics.requests_total == admitted
    assert metrics.requests_failed == 0


def test_chaos_kills_under_load(report):
    pipeline = get_trained_fxrz("hurricane", "TC", "sz", config=BENCH_CONFIG)
    snapshot = held_out_snapshots("hurricane", "TC")[0]
    n_requests = 96
    faults = FaultSpec(seed=7, worker_crash_prob=0.08)
    targets = _targets(pipeline, snapshot, n_requests)

    with RuntimeContext(
        env={}, **_FAST_CTX
    ) as ctx, EstimationService.for_pipeline(
        pipeline,
        guarded=True,
        ctx=ctx,
        shards=3,
        queue_depth=n_requests,
        faults=faults,
        max_redeliveries=4,
        **_FAST,
    ) as service:
        tick = time.perf_counter()
        futures = []
        for i, tcr in enumerate(targets):
            futures.append(
                service.submit(
                    EstimateRequest(
                        data=snapshot.data,
                        target_ratio=float(tcr),
                        dataset_id=snapshot.name,
                    )
                )
            )
            if i == n_requests // 4:
                service.pool.kill_shard(0)  # first mid-load kill
            if i == n_requests // 2:
                service.pool.kill_shard(1)  # second mid-load kill
        done, not_done = wait(futures, timeout=300.0)
        wall = time.perf_counter() - tick
        stats = service.pool.stats

    lost = len(not_done) + sum(1 for f in done if f.exception() is not None)
    loss_rate = lost / max(1, len(futures))
    latencies = sorted(
        f.result().latency_seconds for f in done if f.exception() is None
    )
    p50 = float(np.percentile(latencies, 50))
    p99 = float(np.percentile(latencies, 99))

    report(
        render_table(
            ["metric", "value"],
            [
                ["requests", str(n_requests)],
                ["supervised kills", str(stats.kills)],
                ["respawns", str(stats.respawns)],
                ["redelivered", str(stats.redelivered)],
                ["fallbacks", str(stats.fallbacks)],
                ["loss rate (admitted)", f"{loss_rate:.4f}"],
                ["latency p50", f"{p50 * 1e3:.1f} ms"],
                ["latency p99", f"{p99 * 1e3:.1f} ms"],
                ["throughput", f"{n_requests / wall:.0f} req/s"],
            ],
            title=(
                "Chaos under load - 2 shard kills + seeded crashes, "
                "zero admitted-request loss"
            ),
        )
    )

    _merge_json(
        {
            "chaos": {
                "requests": n_requests,
                "worker_crash_prob": faults.worker_crash_prob,
                "kills": stats.kills,
                "respawns": stats.respawns,
                "redelivered": stats.redelivered,
                "fallbacks": stats.fallbacks,
                "loss_rate": loss_rate,
                "latency_p50_seconds": p50,
                "latency_p99_seconds": p99,
                "wall_seconds": wall,
                "guard": (
                    "loss_rate == 0, respawns >= 2, p99 bounded by the "
                    "300 s wait budget"
                ),
            }
        }
    )

    assert not not_done, "zero hung futures under chaos"
    assert loss_rate == 0.0, "every admitted request must resolve"
    assert stats.kills >= 2, "both mid-load kills must be recorded"
    assert stats.respawns >= 2, "killed shards must come back"
    assert p99 < 300.0, "p99 stays bounded through the crash storm"
