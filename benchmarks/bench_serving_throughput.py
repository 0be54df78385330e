"""Serving throughput — requests/sec and cache amortization by batch size.

The estimation service's claim: once the per-dataset analysis sits in
the feature cache, every further target against that dataset pays only
the adjustment + model query. This bench pushes batches of 1, 16 and
64 same-dataset requests through a fresh service per batch size
(fresh, so batch 1 cannot ride on a previous batch's warm cache) and
reports requests/sec, the cache hit ratio, and the amortized
per-request analysis cost next to the cold single-shot cost.

Asserted: at batch size 16 and up the amortized cost undercuts the
single-shot cost (the ISSUE's acceptance criterion), and the cache hit
ratio matches the coalescing math ((n-1)/n for one shared dataset).

A second bench guards the observability layer's overhead: the same
batch-16 workload with a live tracer + metrics registry must keep at
least 95% of the plain throughput (recorded in the repo-root
``BENCH_obs_overhead.json``), and a third applies the same guard to
the sharded service with end-to-end trace propagation on — spans
recorded in forked shards, shipped home in replies and re-parented —
which must also keep >= 95% of the untraced sharded throughput.
"""

import json
import pathlib
import time

import numpy as np

from conftest import BENCH_CONFIG
from repro import obs
from repro.experiments.corpus import held_out_snapshots
from repro.experiments.harness import get_trained_fxrz
from repro.experiments.tables import render_table
from repro.serving import EstimateRequest, EstimationService

BATCH_SIZES = (1, 16, 64)

_OVERHEAD_JSON = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_obs_overhead.json"
)


def _merge_overhead_json(update: dict) -> None:
    """Merge ``update`` into the repo-root overhead report.

    The tracing guard and the context guard each own a top-level key;
    merging (instead of rewriting) lets either bench run alone without
    clobbering the other's most recent numbers.
    """
    existing: dict = {}
    if _OVERHEAD_JSON.is_file():
        try:
            existing = json.loads(_OVERHEAD_JSON.read_text())
        except ValueError:
            existing = {}
    if not isinstance(existing, dict):
        existing = {}
    existing.update(update)
    _OVERHEAD_JSON.write_text(json.dumps(existing, indent=2) + "\n")


def test_serving_throughput(benchmark, report):
    pipeline = get_trained_fxrz("hurricane", "TC", "sz", config=BENCH_CONFIG)
    snapshot = held_out_snapshots("hurricane", "TC")[0]
    lo, hi = pipeline.trained_ratio_range(snapshot.data)
    targets_for = lambda n: np.linspace(lo * 1.05, hi * 0.95, n)  # noqa: E731

    # Cold baseline: every request pays features + blocks + model query.
    single_shot = float(
        np.mean(
            [
                pipeline.estimate_config(snapshot.data, float(tcr)).analysis_seconds
                for tcr in targets_for(8)
            ]
        )
    )

    rows = []
    amortized_by_batch = {}
    for batch_size in BATCH_SIZES:
        with EstimationService.for_pipeline(
            pipeline, workers=2, max_batch=batch_size
        ) as service:
            requests = [
                EstimateRequest(
                    data=snapshot.data,
                    target_ratio=float(tcr),
                    dataset_id=snapshot.name,
                )
                for tcr in targets_for(batch_size)
            ]
            tick = time.perf_counter()
            served = service.run_batch(requests)
            wall = time.perf_counter() - tick
            metrics = service.metrics
        amortized = float(
            np.mean([s.estimate.analysis_seconds for s in served])
        )
        amortized_by_batch[batch_size] = amortized
        rows.append(
            [
                str(batch_size),
                f"{batch_size / wall:.0f}",
                f"{metrics.cache_hit_ratio:.2f}",
                f"{amortized * 1e3:.3f} ms",
                f"{single_shot * 1e3:.3f} ms",
                f"{single_shot / max(amortized, 1e-12):.2f}x",
            ]
        )
        assert metrics.latency_count == batch_size
        assert metrics.cache_misses >= 1
        if batch_size > 1:
            assert metrics.cache_hits > 0, "coalesced batch must hit the cache"

    report(
        render_table(
            [
                "batch size",
                "req/s",
                "cache hit ratio",
                "amortized analysis",
                "single-shot analysis",
                "speedup",
            ],
            rows,
            title=(
                "Serving throughput - amortized per-request analysis cost "
                "vs the cold single-shot engine"
            ),
        )
    )

    for batch_size in (16, 64):
        assert amortized_by_batch[batch_size] < single_shot, (
            f"batch {batch_size}: amortized analysis must undercut "
            "the single-shot cost"
        )

    with EstimationService.for_pipeline(pipeline, workers=2) as service:
        service.estimate(snapshot.data, float(np.median(targets_for(3))))
        benchmark(
            lambda: service.estimate(
                snapshot.data, float(np.median(targets_for(3)))
            )
        )


def test_objective_mix_throughput_guard(report):
    """Quality traffic in the mix must keep >= 90% of ratio-only req/s.

    The objective refactor threads a typed target through submit,
    coalescing (per-kind pending keys), dispatch and the span/outcome
    plumbing; this guard pins that the machinery itself is free. The
    quality requests run with ``quality_probes=0`` — the analytic tier,
    a closed form — so the measured delta is objective dispatch, not
    compressor time (probe costs are a workload property, not an
    overhead; the resilience bench owns those). Same alternating
    best-of-trials design as the tracing guard: per round each service
    serves one 16-request batch, orders alternating, and the minimum
    trial overhead is guarded at 10%.
    """
    from repro.core.inference import InferenceEngine

    pipeline = get_trained_fxrz("hurricane", "TC", "sz", config=BENCH_CONFIG)
    snapshot = held_out_snapshots("hurricane", "TC")[0]
    lo, hi = pipeline.trained_ratio_range(snapshot.data)
    batch_size, rounds, trials = 16, 40, 3
    targets = np.linspace(lo * 1.05, hi * 0.95, batch_size)
    ratio_batch = [
        EstimateRequest(
            data=snapshot.data,
            target_ratio=float(tcr),
            dataset_id=snapshot.name,
        )
        for tcr in targets
    ]
    # Every 4th request becomes a PSNR objective: 12 ratio + 4 quality.
    mixed_batch = [
        EstimateRequest(
            data=snapshot.data,
            dataset_id=snapshot.name,
            objective=f"psnr:{50 + (i % 3) * 5}",
        )
        if i % 4 == 3
        else request
        for i, request in enumerate(ratio_batch)
    ]
    quality_requests = sum(1 for r in mixed_batch if r.objective is not None)

    def make_service() -> EstimationService:
        engine = InferenceEngine(
            pipeline.model,
            pipeline.compressor,
            config=pipeline.config,
            quality_probes=0,
        )
        return EstimationService(engine, workers=1, max_batch=batch_size)

    service_ratio = make_service()
    service_mixed = make_service()

    def run_ratio() -> float:
        tick = time.perf_counter()
        service_ratio.run_batch(ratio_batch)
        return time.perf_counter() - tick

    def run_mixed() -> float:
        tick = time.perf_counter()
        service_mixed.run_batch(mixed_batch)
        return time.perf_counter() - tick

    def run_trial() -> tuple[float, float]:
        ratio_seconds = mixed_seconds = 0.0
        for round_index in range(rounds):
            if round_index % 2 == 0:
                ratio_seconds += run_ratio()
                mixed_seconds += run_mixed()
            else:
                mixed_seconds += run_mixed()
                ratio_seconds += run_ratio()
        return ratio_seconds, mixed_seconds

    try:
        run_ratio()  # warm caches and both code paths
        served = service_mixed.run_batch(mixed_batch)
        for request, result in zip(mixed_batch, served):
            if request.objective is not None:
                assert result.estimate.tier == "analytic"
        trial_seconds = [run_trial() for _ in range(trials)]
    finally:
        service_ratio.close()
        service_mixed.close()

    total_requests = rounds * batch_size
    ratios = [
        (total_requests / mixed) / (total_requests / ratio)
        for ratio, mixed in trial_seconds
    ]
    best = max(range(trials), key=lambda index: ratios[index])
    ratio_seconds, mixed_seconds = trial_seconds[best]
    rps_ratio = total_requests / ratio_seconds
    rps_mixed = total_requests / mixed_seconds
    ratio = ratios[best]

    report(
        render_table(
            ["variant", "req/s (best trial)", "rounds/trial"],
            [
                ["ratio-only", f"{rps_ratio:.0f}", str(rounds)],
                [
                    f"mixed ({quality_requests}/{batch_size} psnr)",
                    f"{rps_mixed:.0f}",
                    str(rounds),
                ],
                [
                    "throughput ratio per trial",
                    " / ".join(f"{r:.3f}" for r in ratios),
                    "",
                ],
            ],
            title=(
                "Objective-mix throughput - PSNR objectives riding the "
                "ratio serving path (analytic tier)"
            ),
        )
    )

    _merge_overhead_json(
        {
            "objective_mix_throughput": {
                "batch_size": batch_size,
                "quality_requests_per_batch": quality_requests,
                "rounds_per_trial": rounds,
                "trials": trials,
                "requests_per_side_per_trial": total_requests,
                "trial_seconds": [list(pair) for pair in trial_seconds],
                "throughput_ratios": ratios,
                "throughput_ratio_best": ratio,
                "rps_ratio_only_best_trial": rps_ratio,
                "rps_mixed_best_trial": rps_mixed,
                "guard": (
                    "max over trials of (mixed req/s / ratio-only req/s) "
                    ">= 0.9"
                ),
            }
        }
    )

    assert ratio >= 0.9, (
        f"mixed objective round keeps only {ratio:.3f} of the ratio-only "
        f"throughput in the best of {trials} trials; objective dispatch "
        "exceeds its 10% budget"
    )


def test_tracing_overhead_guard(report):
    """Live tracing + metrics must cost < 5% req/s at batch 16.

    The disabled path is a module-global ``None`` check returning a
    shared null span, so the interesting number is the *enabled* cost:
    three spans plus a handful of counter/histogram updates per
    request, a few percent of a ~2 ms request. Resolving that against
    a shared box's load drift needs fine-grained alternation: two
    long-lived warm services — one plain, one built with the registry
    installed and served with the tracer installed (both record their
    metrics: the plain one into a registry of its own) — serve one
    16-request batch each per round, with the
    within-round order alternating. Each timed unit is ~30 ms, so load
    shifts slower than that hit both sides equally; the guarded
    statistic is the *aggregate* req/s over one trial's rounds (total
    requests / total timed seconds per side), which averages the
    residual jitter down. Because a whole trial's mean still drifts by
    a few percent run to run (CPU steal on a shared host moves slower
    than one trial), three independent trials run back to back and the
    *minimum* trial overhead is guarded: interference only has to miss
    one trial to expose the true cost, while a genuine regression
    inflates every trial. Coarser designs — a fresh service per timed
    section, best-of or median per-side statistics — all proved
    noisier than the effect itself.

    The services run one worker each, unlike the throughput bench
    above: with several workers the measurement folds in how the GIL
    schedules the extra pure-Python span code against numpy's
    released-GIL sections, which varies by machine and load. One worker
    attributes the whole delta to the instrumentation itself.

    Each side is timed on this process's CPU clock
    (``time.process_time``), not the wall clock: both services live in
    this process, never run at the same time, and the caller only
    blocks on futures while a batch runs, so each timed delta is that
    side's CPU. Wall-clock req/s on a shared host drifted by more than
    the 5% budget within one trial (per-trial overheads from -9% to
    +29% on unchanged code); CPU time does not count the time another
    tenant holds the core.
    """
    pipeline = get_trained_fxrz("hurricane", "TC", "sz", config=BENCH_CONFIG)
    snapshot = held_out_snapshots("hurricane", "TC")[0]
    lo, hi = pipeline.trained_ratio_range(snapshot.data)
    batch_size, rounds, trials = 16, 40, 3
    batch = [
        EstimateRequest(
            data=snapshot.data,
            target_ratio=float(tcr),
            dataset_id=snapshot.name,
        )
        for tcr in np.linspace(lo * 1.05, hi * 0.95, batch_size)
    ]

    tracer, registry = obs.Tracer(), obs.MetricsRegistry()
    service_plain = EstimationService.for_pipeline(
        pipeline, workers=1, max_batch=batch_size
    )
    obs.install(tracer, registry)
    service_traced = EstimationService.for_pipeline(
        pipeline, workers=1, max_batch=batch_size
    )
    obs.uninstall()

    def run_plain() -> float:
        tick = time.process_time()
        service_plain.run_batch(batch)
        return time.process_time() - tick

    spans_per_round = 0

    def run_traced() -> float:
        nonlocal spans_per_round
        obs.install(tracer, registry)
        tick = time.process_time()
        service_traced.run_batch(batch)
        elapsed = time.process_time() - tick
        obs.uninstall()
        spans_per_round = len(tracer)
        tracer.clear()
        return elapsed

    def run_trial() -> tuple[float, float]:
        plain_seconds = traced_seconds = 0.0
        for round_index in range(rounds):
            if round_index % 2 == 0:
                plain_seconds += run_plain()
                traced_seconds += run_traced()
            else:
                traced_seconds += run_traced()
                plain_seconds += run_plain()
        return plain_seconds, traced_seconds

    try:
        run_plain()  # warm caches, threads and both code paths
        run_traced()
        trial_seconds = [run_trial() for _ in range(trials)]
    finally:
        service_plain.close()
        service_traced.close()

    total_requests = rounds * batch_size
    overheads = [
        1.0 - (total_requests / traced) / (total_requests / plain)
        for plain, traced in trial_seconds
    ]
    best = min(range(trials), key=lambda index: overheads[index])
    plain_seconds, traced_seconds = trial_seconds[best]
    rps_plain = total_requests / plain_seconds
    rps_traced = total_requests / traced_seconds
    overhead = overheads[best]
    assert spans_per_round >= batch_size, (
        "tracer must have seen every request of the round"
    )

    report(
        render_table(
            ["variant", "req per CPU-s (best trial)", "rounds/trial"],
            [
                ["plain", f"{rps_plain:.0f}", str(rounds)],
                ["traced + metrics", f"{rps_traced:.0f}", str(rounds)],
                [
                    "overhead per trial",
                    " / ".join(f"{o * 100:.1f}%" for o in overheads),
                    "",
                ],
            ],
            title=(
                f"Tracing overhead - alternating 16-request batches, "
                f"{spans_per_round} spans per traced round"
            ),
        )
    )

    _merge_overhead_json(
        {
            "tracing_overhead": {
                "batch_size": batch_size,
                "rounds_per_trial": rounds,
                "trials": trials,
                "requests_per_side_per_trial": total_requests,
                "clock": "process_time",
                "trial_seconds": [list(pair) for pair in trial_seconds],
                "overhead_fractions": overheads,
                "overhead_fraction_best": overhead,
                "rps_plain_best_trial": rps_plain,
                "rps_traced_best_trial": rps_traced,
                "spans_per_traced_round": spans_per_round,
                "guard": (
                    "min over trials of aggregate overhead <= 5% "
                    "(rps_traced >= 0.95 * rps_plain)"
                ),
            }
        }
    )

    assert overhead <= 0.05, (
        f"tracing overhead {overhead * 100:.1f}% in the best of {trials} "
        f"trials ({rounds} alternating rounds each) exceeds the 5% "
        "req/s budget"
    )


def test_sharded_tracing_overhead_guard(report, tmp_path):
    """End-to-end tracing across the fork boundary must cost < 5% req/s.

    The sharded path adds costs the in-process guard above cannot see:
    the supervisor's request/admit/dispatch spans, the trace context
    ride-along on every work message, the shard's local tracer, and the
    drained span payloads serialized into every reply. Same design as
    the in-process guard — two long-lived warm services (identical
    except ``RuntimeConfig.trace_sample`` 0.0 vs 1.0, built with the same installed
    tracer + registry so the only delta is per-request tracing),
    alternating one 16-request batch each per round, minimum trial
    overhead guarded at 5% (rps_traced >= 0.95 * rps_plain).
    """
    from repro.core.persistence import save_pipeline
    from repro.runtime import RuntimeContext

    pipeline = get_trained_fxrz("hurricane", "TC", "sz", config=BENCH_CONFIG)
    snapshot = held_out_snapshots("hurricane", "TC")[0]
    lo, hi = pipeline.trained_ratio_range(snapshot.data)
    batch_size, rounds, trials = 16, 12, 3
    batch = [
        EstimateRequest(
            data=snapshot.data,
            target_ratio=float(tcr),
            dataset_id=snapshot.name,
        )
        for tcr in np.linspace(lo * 1.05, hi * 0.95, batch_size)
    ]
    model_path = str(tmp_path / "model.fxrz")
    save_pipeline(pipeline, model_path)

    def _wait_ready(service, timeout: float = 60.0) -> None:
        give_up = time.perf_counter() + timeout
        while time.perf_counter() < give_up:
            states = service.pool.shard_states()
            if all(s["state"] == "ready" for s in states):
                return
            time.sleep(0.02)
        raise AssertionError(
            f"shards never ready: {service.pool.shard_states()}"
        )

    tracer, registry = obs.Tracer(), obs.MetricsRegistry()
    obs.install(tracer, registry)
    spans_per_round = 0
    try:
        service_plain, service_traced = (
            EstimationService.for_pipeline(
                pipeline,
                guarded=True,
                ctx=RuntimeContext(env={}, trace_sample=sample),
                shards=1,
                model_path=model_path,
            )
            for sample in (0.0, 1.0)
        )

        def run_plain() -> float:
            tick = time.perf_counter()
            service_plain.run_batch(batch, timeout=120.0)
            return time.perf_counter() - tick

        def run_traced() -> float:
            nonlocal spans_per_round
            tick = time.perf_counter()
            service_traced.run_batch(batch, timeout=120.0)
            elapsed = time.perf_counter() - tick
            spans_per_round = len(tracer)
            tracer.clear()
            return elapsed

        def run_trial() -> tuple[float, float]:
            plain_seconds = traced_seconds = 0.0
            for round_index in range(rounds):
                if round_index % 2 == 0:
                    plain_seconds += run_plain()
                    traced_seconds += run_traced()
                else:
                    traced_seconds += run_traced()
                    plain_seconds += run_plain()
            return plain_seconds, traced_seconds

        try:
            _wait_ready(service_plain)
            _wait_ready(service_traced)
            run_plain()  # warm shard caches and both code paths
            run_traced()
            trial_seconds = [run_trial() for _ in range(trials)]
        finally:
            service_plain.close()
            service_traced.close()
    finally:
        obs.uninstall()

    total_requests = rounds * batch_size
    ratios = [
        (total_requests / traced) / (total_requests / plain)
        for plain, traced in trial_seconds
    ]
    best = max(range(trials), key=lambda index: ratios[index])
    plain_seconds, traced_seconds = trial_seconds[best]
    rps_plain = total_requests / plain_seconds
    rps_traced = total_requests / traced_seconds
    ratio = ratios[best]
    assert spans_per_round >= batch_size, (
        "the traced service must have shipped every request's spans home"
    )

    report(
        render_table(
            ["variant", "req/s (best trial)", "rounds/trial"],
            [
                ["sharded plain", f"{rps_plain:.0f}", str(rounds)],
                ["sharded traced", f"{rps_traced:.0f}", str(rounds)],
                [
                    "throughput ratio per trial",
                    " / ".join(f"{r:.3f}" for r in ratios),
                    "",
                ],
            ],
            title=(
                f"Sharded tracing overhead - alternating 16-request "
                f"batches, {spans_per_round} spans per traced round"
            ),
        )
    )

    _merge_overhead_json(
        {
            "sharded_tracing_overhead": {
                "batch_size": batch_size,
                "rounds_per_trial": rounds,
                "trials": trials,
                "requests_per_side_per_trial": total_requests,
                "trial_seconds": [list(pair) for pair in trial_seconds],
                "throughput_ratios": ratios,
                "throughput_ratio_best": ratio,
                "rps_plain_best_trial": rps_plain,
                "rps_traced_best_trial": rps_traced,
                "spans_per_traced_round": spans_per_round,
                "guard": (
                    "max over trials of (traced req/s / plain req/s) "
                    ">= 0.95"
                ),
            }
        }
    )

    assert ratio >= 0.95, (
        f"sharded tracing keeps only {ratio:.3f} of plain throughput in "
        f"the best of {trials} trials ({rounds} alternating rounds "
        "each); the end-to-end trace path exceeds its 5% budget"
    )


def test_context_overhead_guard(report):
    """A context-per-request anti-pattern must stay cheap to forgive.

    The runtime layer's sales pitch is one shared session per process,
    but embedders will inevitably build a fresh ``RuntimeContext`` per
    request (web handlers, notebook cells). This guard pins that the
    build + engine wiring + close cycle costs at most ~15% of a ~2 ms
    guarded estimate — i.e. construction stays allocation-cheap with no
    hidden pool spin-up or file I/O on the serial path. The same
    alternating best-of-trials design as the tracing guard absorbs
    shared-host load drift: per round, one side serves a 16-request
    burst drawing every engine from one shared session while the other
    builds (and closes) a context per request, order alternating; the
    minimum trial overhead is guarded.
    """
    from repro.robustness import GuardedInferenceEngine
    from repro.runtime import RuntimeContext

    pipeline = get_trained_fxrz("hurricane", "TC", "sz", config=BENCH_CONFIG)
    snapshot = held_out_snapshots("hurricane", "TC")[0]
    lo, hi = pipeline.trained_ratio_range(snapshot.data)
    burst, rounds, trials = 16, 40, 3
    targets = [float(t) for t in np.linspace(lo * 1.05, hi * 0.95, burst)]
    analysis = pipeline.estimate_config(snapshot.data, targets[0])  # warm features
    del analysis

    shared_ctx = RuntimeContext(env={})

    def run_shared() -> float:
        tick = time.perf_counter()
        for target in targets:
            engine = GuardedInferenceEngine(pipeline, ctx=shared_ctx)
            engine.estimate(snapshot.data, target)
        return time.perf_counter() - tick

    def run_per_request() -> float:
        tick = time.perf_counter()
        for target in targets:
            with RuntimeContext(env={}) as ctx:
                engine = GuardedInferenceEngine(pipeline, ctx=ctx)
                engine.estimate(snapshot.data, target)
        return time.perf_counter() - tick

    def run_trial() -> tuple[float, float]:
        shared_seconds = fresh_seconds = 0.0
        for round_index in range(rounds):
            if round_index % 2 == 0:
                shared_seconds += run_shared()
                fresh_seconds += run_per_request()
            else:
                fresh_seconds += run_per_request()
                shared_seconds += run_shared()
        return shared_seconds, fresh_seconds

    try:
        run_shared()  # warm both code paths
        run_per_request()
        trial_seconds = [run_trial() for _ in range(trials)]
    finally:
        shared_ctx.close()

    total_requests = rounds * burst
    ratios = [shared / fresh for shared, fresh in trial_seconds]
    best = max(range(trials), key=lambda index: ratios[index])
    shared_seconds, fresh_seconds = trial_seconds[best]
    rps_shared = total_requests / shared_seconds
    rps_fresh = total_requests / fresh_seconds
    ratio = ratios[best]

    report(
        render_table(
            ["variant", "req/s (best trial)", "rounds/trial"],
            [
                ["shared context", f"{rps_shared:.0f}", str(rounds)],
                ["context per request", f"{rps_fresh:.0f}", str(rounds)],
                [
                    "throughput ratio per trial",
                    " / ".join(f"{r:.3f}" for r in ratios),
                    "",
                ],
            ],
            title=(
                "RuntimeContext construction overhead - per-request "
                "build/close vs one shared session"
            ),
        )
    )

    _merge_overhead_json(
        {
            "context_overhead": {
                "burst_size": burst,
                "rounds_per_trial": rounds,
                "trials": trials,
                "requests_per_side_per_trial": total_requests,
                "trial_seconds": [list(pair) for pair in trial_seconds],
                "throughput_ratios": ratios,
                "throughput_ratio_best": ratio,
                "rps_shared_best_trial": rps_shared,
                "rps_context_per_request_best_trial": rps_fresh,
                "guard": (
                    "max over trials of (context-per-request req/s / "
                    "shared-context req/s) >= 0.85"
                ),
            }
        }
    )

    assert ratio >= 0.85, (
        f"context-per-request throughput is {ratio:.3f} of the shared-"
        f"session throughput in the best of {trials} trials; context "
        "construction must stay under ~15% of a guarded estimate"
    )
