"""Command-line interface for the FXRZ library.

Commands mirror the library's lifecycle so a shell user can run the
whole fixed-ratio workflow on ``.npy`` files:

* ``repro train``     — fit a pipeline on training arrays, save it.
* ``repro estimate``  — predict the error config for a target ratio,
  PSNR or SSIM (``--target-ratio``/``--target-psnr``/``--target-ssim``),
  or answer a Pareto query (``--frontier "cr>=10"``); see
  ``docs/OBJECTIVES.md``.
* ``repro estimate-batch`` (alias ``serve``) — push a JSONL request
  batch through the estimation service (batched, cached, concurrent);
  ``--stats`` appends the service metrics snapshot. ``--shards N``
  adds the fault-tolerant shard lane of N supervised processes
  (``--queue-depth`` bounds its admission; ``--deadline-ms`` sets the
  per-request deadline; see ``docs/ROBUSTNESS.md``).
* ``repro compress``  — fixed-ratio compress one array to a blob file.
* ``repro decompress``— reconstruct an array from a blob file.
* ``repro search``    — run the FRaZ baseline for comparison.
* ``repro dump``      — simulate a (optionally fault-injected) parallel dump.
* ``repro obs-report``— render a recorded span trace as a per-phase cost tree.
* ``repro outcomes-report`` — summarize a serving outcome log
  (``--outcome-log`` on ``serve``/``estimate``/``compress`` writes one).
* ``repro retrain``   — fit candidate models from a registry entry plus
  an outcome log and canary them against ``latest``
  (see ``docs/LIFECYCLE.md``).
* ``repro datasets``  — list the built-in synthetic dataset catalog.

``train``/``estimate``/``estimate-batch``/``compress``/``search`` share
the runtime session flags (``--jobs``, ``--trace``, ``--metrics``,
``--fallback``, ``--min-confidence``, ``--runtime-profile``) from
:mod:`repro.runtime`; ``main`` builds one
:class:`~repro.runtime.RuntimeContext` per invocation and every
subcommand draws its executor/memo/tracer/registry from it, so teardown
(pool shutdown, trace export, metrics flush) is deterministic even when
the command fails. See ``docs/RUNTIME.md`` and
``docs/OBSERVABILITY.md``.

``estimate`` and ``compress`` run through the guarded inference engine:
``--fallback`` picks the terminal rung of its degradation ladder
(``none`` raises on out-of-distribution inputs, ``curve`` adds
training-curve interpolation, ``fraz`` adds a bounded FRaZ search), and
the output names the tier that produced the configuration.

Blob files are a small self-describing container: a JSON header
(compressor, config, shape, dtype) followed by the compressed payload.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro import obs
from repro.baselines.fraz import FRaZ
from repro.compressors import available_compressors, get_compressor
from repro.compressors.base import CompressedBlob
from repro.config import FXRZConfig
from repro.core.persistence import load_pipeline, save_pipeline
from repro.core.pipeline import FXRZ
from repro.datasets.registry import dataset_catalog
from repro.errors import ReproError, ServiceOverloadedError
from repro.hpc.iosim import DumpScenario, simulate_dump, simulate_faulty_dump
from repro.robustness import FaultSpec, GuardedInferenceEngine, RetryPolicy
from repro.runtime import RuntimeContext, runtime_parent_parser
from repro.serving import EstimateRequest, EstimationService, ModelRegistry

_MAGIC = b"FXRZBLOB"


def _load_array(path: str) -> np.ndarray:
    array = np.load(path)
    if not isinstance(array, np.ndarray):
        raise ReproError(f"{path} does not contain a plain ndarray")
    return array


def write_blob(blob: CompressedBlob, path: str | pathlib.Path) -> None:
    """Serialize a compressed blob with a self-describing header."""
    header = json.dumps(
        {
            "compressor": blob.compressor,
            "config": blob.config,
            "shape": list(blob.original_shape),
            "dtype": blob.original_dtype,
        }
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(len(header).to_bytes(4, "little"))
        f.write(header)
        f.write(blob.data)


def read_blob(path: str | pathlib.Path) -> CompressedBlob:
    """Inverse of :func:`write_blob`."""
    raw = pathlib.Path(path).read_bytes()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ReproError(f"{path} is not an FXRZ blob file")
    header_len = int.from_bytes(raw[8:12], "little")
    header = json.loads(raw[12 : 12 + header_len].decode("utf-8"))
    return CompressedBlob(
        data=raw[12 + header_len :],
        original_shape=tuple(header["shape"]),
        original_dtype=header["dtype"],
        compressor=header["compressor"],
        config=float(header["config"]),
    )


def _cmd_train(args: argparse.Namespace, ctx: RuntimeContext) -> int:
    config = FXRZConfig(
        sampling_stride=args.stride,
        stationary_points=args.stationary_points,
        augmented_samples=args.augmented_samples,
        use_adjustment=not args.no_adjustment,
    )
    pipeline = FXRZ(get_compressor(args.compressor), config=config, ctx=ctx)
    arrays = [_load_array(p) for p in args.inputs]
    with obs.profiled("training.fit", n_datasets=len(arrays)):
        report = pipeline.fit(arrays)
    save_pipeline(pipeline, args.model)
    print(
        f"trained on {report.n_datasets} arrays "
        f"({report.n_samples} samples) in {report.total_seconds:.1f}s; "
        f"saved to {args.model}"
    )
    return 0


def _objective_from_args(args: argparse.Namespace):
    """Resolve the target flags into one Objective (``None`` when absent).

    ``--ratio`` and ``--target-ratio`` are synonyms (the former predates
    objectives); ``--target-psnr``/``--target-ssim`` pick the quality
    kinds. Exactly one target may be given.
    """
    from repro.core.objective import PSNRTarget, RatioTarget, SSIMTarget

    given = [
        (flag, kind, value)
        for flag, kind, value in (
            ("--ratio", RatioTarget, getattr(args, "ratio", None)),
            ("--target-ratio", RatioTarget,
             getattr(args, "target_ratio", None)),
            ("--target-psnr", PSNRTarget, getattr(args, "target_psnr", None)),
            ("--target-ssim", SSIMTarget, getattr(args, "target_ssim", None)),
        )
        if value is not None
    ]
    if len(given) > 1:
        flags = " and ".join(flag for flag, _, _ in given)
        raise ReproError(f"pass exactly one target ({flags} given)")
    if not given:
        return None
    _, kind, value = given[0]
    # Built from the float itself: a "%g" string would round the target.
    return kind(float(value))


def _guarded_estimate(
    args: argparse.Namespace, ctx: RuntimeContext, objective, outcome_log=None
):
    """Shared guarded-inference path of ``estimate`` and ``compress``.

    The guarded engine records only to an *explicit* log (so a service
    wrapping one never double-records); ``estimate`` hands it the
    session's, while ``compress`` records its own measured outcome.
    """
    pipeline = load_pipeline(args.model)
    data = _load_array(args.input)
    engine = GuardedInferenceEngine(pipeline, ctx=ctx, outcome_log=outcome_log)
    estimate = engine.estimate(
        data, dataset_key=args.input, objective=objective
    )
    return pipeline, data, estimate


def _tier_note(estimate) -> str:
    note = f"tier {estimate.tier}, confidence {estimate.confidence:.2f}"
    if estimate.fallback_reason:
        note += f"; {estimate.fallback_reason}"
    return note


def _cmd_estimate(args: argparse.Namespace, ctx: RuntimeContext) -> int:
    if args.frontier:
        return _cmd_frontier(args, ctx)
    objective = _objective_from_args(args)
    if objective is None:
        raise ReproError(
            "estimate needs a target (--ratio, --target-ratio, "
            "--target-psnr or --target-ssim) or a --frontier query"
        )
    _, _, estimate = _guarded_estimate(
        args, ctx, objective, outcome_log=ctx.lifecycle
    )
    if objective.is_quality:
        print(
            f"estimated config: {estimate.config:.6g} "
            f"(objective {objective.canonical}, "
            f"analysis {estimate.analysis_seconds * 1e3:.1f}ms; "
            f"{_tier_note(estimate)})"
        )
    else:
        print(
            f"estimated config: {estimate.config:.6g} "
            f"(ACR {estimate.adjusted_target:.2f}, R {estimate.nonconstant:.2f}, "
            f"analysis {estimate.analysis_seconds * 1e3:.1f}ms; "
            f"{_tier_note(estimate)})"
        )
    return 0


def _cmd_frontier(args: argparse.Namespace, ctx: RuntimeContext) -> int:
    """Answer a Pareto query (``--frontier "cr>=10"``) in one sweep."""
    pipeline = load_pipeline(args.model)
    data = _load_array(args.input)
    front = pipeline.frontier(data, points=args.frontier_points)
    for point in front.points:
        print(
            f"  config {point.config:.6g}: CR {point.ratio:.1f}x, "
            f"PSNR {point.psnr:.1f} dB"
        )
    answer = front.query(args.frontier)
    if answer is None:
        print(f"frontier: no point satisfies {args.frontier!r}")
        return 1
    print(
        f"frontier({args.frontier}): config {answer.config:.6g} -> "
        f"CR {answer.ratio:.1f}x, PSNR {answer.psnr:.1f} dB"
    )
    return 0


def _load_batch_pipeline(args: argparse.Namespace):
    """The model behind ``estimate-batch``: a file or a registry entry."""
    if args.model:
        return load_pipeline(args.model)
    if args.registry:
        registry = ModelRegistry(args.registry)
        return registry.load(
            args.compressor, args.fingerprint or None, args.version
        )
    raise ReproError("estimate-batch needs --model or --registry")


def _read_batch_requests(path: str) -> list[dict]:
    """Parse a JSONL request file: one target per line.

    Each line carries ``"input"`` plus either ``"ratio"`` (the legacy
    grammar) or ``"objective"`` (a canonical objective string such as
    ``"psnr:60"`` — see ``docs/OBJECTIVES.md``).
    """
    specs: list[dict] = []
    for lineno, line in enumerate(
        pathlib.Path(path).read_text().splitlines(), start=1
    ):
        line = line.strip()
        if not line:
            continue
        try:
            spec = json.loads(line)
        except ValueError as exc:
            raise ReproError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if (
            not isinstance(spec, dict)
            or "input" not in spec
            or ("ratio" not in spec and "objective" not in spec)
        ):
            raise ReproError(
                f'{path}:{lineno}: each request needs "input" and '
                f'"ratio" or "objective"'
            )
        if "ratio" in spec and "objective" in spec:
            raise ReproError(
                f'{path}:{lineno}: "ratio" and "objective" are exclusive'
            )
        specs.append(spec)
    if not specs:
        raise ReproError(f"{path} holds no requests")
    return specs


def _submit_with_backpressure(service, request: EstimateRequest):
    """Submit, honoring the service's shed/retry-after backpressure.

    A CLI batch is a cooperative client: when the shard lane sheds
    a request it waits the suggested ``retry_after`` and resubmits
    instead of dropping work on the floor.
    """
    while True:
        try:
            return service.submit(request)
        except ServiceOverloadedError as exc:
            time.sleep(max(exc.retry_after, 0.01))


def _cmd_estimate_batch(args: argparse.Namespace, ctx: RuntimeContext) -> int:
    pipeline = _load_batch_pipeline(args)
    specs = _read_batch_requests(args.requests)
    arrays: dict[str, np.ndarray] = {}
    for spec in specs:
        path = str(spec["input"])
        if path not in arrays:
            arrays[path] = _load_array(path)

    deadline = (args.deadline_ms / 1e3) if args.deadline_ms else None
    service = EstimationService.for_pipeline(
        pipeline,
        guarded=args.engine == "guarded",
        ctx=ctx,
        shards=args.shards,
        workers=args.workers,
        max_batch=args.max_batch,
        default_deadline=deadline,
        queue_depth=args.queue_depth,
    )
    try:
        futures = [
            _submit_with_backpressure(
                service,
                EstimateRequest(
                    data=arrays[str(spec["input"])],
                    target_ratio=(
                        float(spec["ratio"]) if "ratio" in spec else 0.0
                    ),
                    request_id=str(spec.get("id", "")),
                    dataset_id=str(spec["input"]),
                    objective=(
                        str(spec["objective"]) if "objective" in spec else None
                    ),
                ),
            )
            for spec in specs
        ]
        records = []
        failures = 0
        trace_ids: list[int] = []
        for spec, future in zip(specs, futures):
            record = {
                "id": str(spec.get("id", "")),
                "input": str(spec["input"]),
            }
            if "ratio" in spec:
                record["ratio"] = float(spec["ratio"])
            else:
                record["objective"] = str(spec["objective"])
            try:
                served = future.result()
            except Exception as exc:  # noqa: BLE001 — reported per line
                failures += 1
                record["error"] = str(exc)
            else:
                objective = getattr(served.estimate, "objective", None)
                record.update(
                    {
                        "id": served.request_id,
                        "config": served.estimate.config,
                        "objective": objective.canonical if objective else "",
                        "acr": served.estimate.adjusted_target,
                        "nonconstant": served.estimate.nonconstant,
                        "tier": served.estimate.tier,
                        "confidence": served.estimate.confidence,
                        "latency_ms": served.latency_seconds * 1e3,
                        "cache_hit": served.cache_hit,
                        "batch_size": served.batch_size,
                        "trace_id": served.trace_id,
                    }
                )
                if served.trace_id:
                    trace_ids.append(served.trace_id)
            records.append(json.dumps(record))
        snapshot = service.metrics
    finally:
        service.close()

    text = "\n".join(records) + "\n"
    if args.output:
        pathlib.Path(args.output).write_text(text)
        print(
            f"served {len(records)} request(s) ({failures} failed) over "
            f"{len(arrays)} dataset(s); wrote {args.output}"
        )
    else:
        print(text, end="")
    if args.stats:
        print("-- service stats --")
        for line in snapshot.lines():
            print(line)
        if args.shards > 0:
            counts = vars(service.pool.stats).items()
            print("supervision     " + ", ".join(f"{k} {v}" for k, v in counts))
        if trace_ids:
            shown = ", ".join(str(t) for t in trace_ids[:4])
            more = (
                f" (+{len(trace_ids) - 4} more)" if len(trace_ids) > 4 else ""
            )
            print(f"trace ids       {shown}{more}")
    return 0


def _cmd_compress(args: argparse.Namespace, ctx: RuntimeContext) -> int:
    objective = _objective_from_args(args)
    if objective is None:
        raise ReproError(
            "compress needs a target (--ratio, --target-ratio, "
            "--target-psnr or --target-ssim)"
        )
    pipeline, data, estimate = _guarded_estimate(args, ctx, objective)
    blob = pipeline.compressor.compress(data, estimate.config)
    write_blob(blob, args.output)
    measured = blob.compression_ratio
    measured_psnr = None
    reconstruction = None
    if objective.is_quality:
        # Quality targets are verified against the decompressed truth —
        # one extra decompression, no extra compression.
        from repro.analysis.distortion import psnr as measure_psnr

        reconstruction = pipeline.compressor.decompress(blob)
        measured_psnr = float(measure_psnr(data, reconstruction))
    if ctx.lifecycle is not None:
        # Estimate and measured truth meet here — the highest-value
        # record the online learning loop gets.
        ctx.lifecycle.record_estimate(
            estimate,
            dataset_key=args.input,
            compressor=pipeline.compressor.name,
            measured_ratio=measured,
            measured_psnr=measured_psnr,
            source="compress",
        )
    if objective.kind == "psnr":
        miss = abs(measured_psnr - objective.db)
        print(
            f"target {objective.canonical} -> measured "
            f"{measured_psnr:.1f} dB (miss {miss:.1f} dB) at "
            f"{measured:.1f}x ({_tier_note(estimate)}); wrote "
            f"{blob.nbytes} bytes to {args.output}"
        )
    elif objective.kind == "ssim":
        from repro.analysis.distortion import ssim as measure_ssim

        measured_ssim = float(measure_ssim(data, reconstruction))
        print(
            f"target {objective.canonical} -> measured SSIM "
            f"{measured_ssim:.4f} (PSNR {measured_psnr:.1f} dB) at "
            f"{measured:.1f}x ({_tier_note(estimate)}); wrote "
            f"{blob.nbytes} bytes to {args.output}"
        )
    else:
        error = abs(objective.tcr - measured) / objective.tcr
        print(
            f"target {objective.tcr:.1f}x -> measured {measured:.1f}x "
            f"(error {error:.1%}; {_tier_note(estimate)}); wrote "
            f"{blob.nbytes} bytes to {args.output}"
        )
    return 0


def _cmd_decompress(args: argparse.Namespace, ctx: RuntimeContext) -> int:
    blob = read_blob(args.input)
    compressor = get_compressor(blob.compressor)
    array = compressor.decompress(blob)
    np.save(args.output, array)
    print(
        f"reconstructed {array.shape} {array.dtype} array from "
        f"{blob.compressor}@{blob.config:g}; wrote {args.output}"
    )
    return 0


def _cmd_search(args: argparse.Namespace, ctx: RuntimeContext) -> int:
    comp = get_compressor(args.compressor)
    data = _load_array(args.input)
    searcher = FRaZ(comp, max_iterations=args.iterations, ctx=ctx)
    result = searcher.search(data, args.ratio)
    print(
        f"FRaZ({args.iterations}): config {result.config:.6g} -> "
        f"{result.measured_ratio:.1f}x (error {result.estimation_error:.1%}) "
        f"in {result.iterations} compressor runs / {result.search_seconds:.2f}s"
    )
    return 0


def _cmd_dump(args: argparse.Namespace, ctx: RuntimeContext) -> int:
    scenario = DumpScenario(
        n_ranks=args.ranks,
        bytes_per_rank=args.bytes_per_rank,
        compression_ratio=args.ratio,
        compress_throughput=args.throughput,
        analysis_seconds=args.analysis_seconds,
        shared_bandwidth=args.shared_bandwidth,
    )
    faults = FaultSpec(
        seed=args.fault_seed,
        rank_failure_prob=args.fail_prob,
        straggler_prob=args.straggler_prob,
        straggler_slowdown=args.straggler_slowdown,
        write_error_prob=args.write_error_prob,
    )
    if not any((args.fail_prob, args.straggler_prob, args.write_error_prob)):
        breakdown = simulate_dump(scenario)
        print(
            f"fault-free dump of {args.ranks} ranks: {breakdown.total:.1f}s "
            f"(analysis {breakdown.analysis:.1f}s, compression "
            f"{breakdown.compression:.1f}s, write {breakdown.write:.1f}s)"
        )
        return 0
    retry = None if args.no_retry else RetryPolicy(
        max_attempts=args.retries, base_delay=args.base_delay
    )
    report = simulate_faulty_dump(scenario, faults, retry=retry)
    print(
        f"dump of {args.ranks} ranks completed in "
        f"{report.completion_seconds:.1f}s "
        f"({report.overhead:.2f}x the fault-free {report.fault_free_seconds:.1f}s); "
        f"{report.failed_ranks} rank(s) retried, "
        f"{report.total_attempts} attempts total"
    )
    for outcome in report.ranks:
        if outcome.attempts > 1 or outcome.straggler:
            tags = ",".join(outcome.events) or "straggler"
            print(
                f"  rank {outcome.rank:5d}: {outcome.attempts} attempts, "
                f"{outcome.seconds:.1f}s ({tags})"
            )
    return 0


def _cmd_obs_report(args: argparse.Namespace, ctx: RuntimeContext) -> int:
    spans = obs.load_trace(args.input)
    print(obs.render_cost_tree(spans, min_fraction=args.min_fraction))
    errors = sum(1 for span in spans if span.status == "error")
    if errors:
        print(f"({errors} span(s) recorded an error)")
    return 0


def _cmd_obs_top(args: argparse.Namespace, ctx: RuntimeContext) -> int:  # noqa: ARG001
    """Poll a service's scrape endpoint: health, supervision, SLO burn."""
    import urllib.error
    import urllib.request

    base = args.url.rstrip("/")

    def fetch(route: str) -> dict:
        try:
            with urllib.request.urlopen(
                base + route, timeout=args.timeout
            ) as response:
                return json.load(response)
        except (urllib.error.URLError, OSError, ValueError) as exc:
            raise ReproError(f"cannot scrape {base}{route}: {exc}") from None

    for iteration in range(args.iterations):
        if iteration:
            time.sleep(args.interval)
        health = fetch("/healthz")
        slo = fetch("/slo")
        if "shards" in health:
            stats = health.get("stats", {})
            shards = health["shards"]
            ready = sum(1 for s in shards if s.get("state") == "ready")
            lane = (
                f"shards {ready}/{len(shards)} ready; "
                f"admitted {stats.get('admitted', 0)}, "
                f"shed {stats.get('shed', 0)}, "
                f"expired {stats.get('expired', 0)}, "
                f"fallbacks {stats.get('fallbacks', 0)}, "
                f"kills {stats.get('kills', 0)}"
            )
        else:
            lane = "lane in-process"
        print(
            f"[{iteration + 1}/{args.iterations}] "
            f"healthy={health.get('healthy')} {lane}"
        )
        for status in slo.get("slos", []):
            compliance = status.get("compliance")
            burn = status.get("burn_rate")
            print(
                f"  slo {status.get('name', '?'):<14} "
                f"compliance "
                f"{'n/a' if compliance is None else format(compliance, '.4f'):>8} "
                f"burn {'n/a' if burn is None else format(burn, '8.2f')}"
                f"{'  ALERT' if status.get('alerting') else ''}"
            )
    return 0


def _read_outcome_log(path: str):
    """Replay an outcome log the user named; a missing one is an error.

    :func:`~repro.lifecycle.read_outcomes` treats a missing file as an
    empty log (a fresh deployment), but a path typed on the command
    line that matches no file is a mistake, not an empty history.
    """
    from repro.lifecycle import read_outcomes

    replay = read_outcomes(path)
    if not replay.files:
        raise ReproError(f"no outcome log at {path}")
    return replay


def _cmd_outcomes_report(args: argparse.Namespace, ctx: RuntimeContext) -> int:
    replay = _read_outcome_log(args.log)
    records = replay.records
    trainable = replay.trainable
    print(
        f"{args.log}: {len(records)} record(s) across "
        f"{len(replay.files)} file(s), {replay.torn_lines} torn line(s), "
        f"{len(trainable)} trainable"
    )
    if not records:
        return 0
    by_source: dict[str, int] = {}
    by_tier: dict[str, int] = {}
    for record in records:
        by_source[record.source or "unknown"] = (
            by_source.get(record.source or "unknown", 0) + 1
        )
        by_tier[record.tier or "unknown"] = (
            by_tier.get(record.tier or "unknown", 0) + 1
        )
    print(
        "by source: "
        + ", ".join(f"{k}={v}" for k, v in sorted(by_source.items()))
    )
    print(
        "by tier:   "
        + ", ".join(f"{k}={v}" for k, v in sorted(by_tier.items()))
    )
    errors = [
        record.relative_error
        for record in trainable
        if record.relative_error is not None
    ]
    if errors:
        print(
            f"measured records: median relative CR error "
            f"{float(np.median(errors)):.2%} over {len(errors)} record(s)"
        )
    if args.spans or args.trace_id:
        if not args.spans:
            raise ReproError("--trace-id needs --spans SPANS.jsonl to join")
        spans = obs.load_trace(args.spans)
        by_trace: dict[int, list] = {}
        for span in spans:
            by_trace.setdefault(span.trace_id, []).append(span)
        traced = [r for r in records if getattr(r, "trace_id", 0)]
        joined = [r for r in traced if r.trace_id in by_trace]
        print(
            f"traces: {len(traced)} record(s) carry a trace id, "
            f"{len(joined)} joined against {args.spans} "
            f"({len(by_trace)} trace(s) in the file)"
        )
        if args.trace_id:
            tree_spans = by_trace.get(args.trace_id, [])
            if not tree_spans:
                raise ReproError(
                    f"trace {args.trace_id} has no spans in {args.spans}"
                )
            for record in records:
                if getattr(record, "trace_id", 0) == args.trace_id:
                    print(
                        f"trace {args.trace_id}: {record.dataset_key} "
                        f"tier={record.tier} source={record.source}"
                    )
            print(obs.render_cost_tree(tree_spans))
    return 0


def _cmd_retrain(args: argparse.Namespace, ctx: RuntimeContext) -> int:
    from repro.lifecycle import retrain

    replay = _read_outcome_log(args.outcomes)
    if replay.torn_lines:
        print(
            f"note: skipped {replay.torn_lines} torn line(s) in "
            f"{args.outcomes}",
            file=sys.stderr,
        )
    registry = ModelRegistry(args.registry, ctx=ctx)
    try:
        result = retrain(
            registry,
            args.compressor,
            replay.records,
            fingerprint=args.fingerprint or None,
            canary_fraction=args.canary_fraction,
            canary_margin=args.canary_margin,
            oversample=args.oversample,
            auto_promote=not args.no_promote,
            ctx=ctx,
        )
    finally:
        registry.close()
    print(
        f"retrain ({result.trainable} trainable record(s), "
        f"{result.train_rows} trained, {result.holdout} held out) "
        f"in {result.seconds:.1f}s: {result.reason}"
    )
    if result.candidate is not None:
        print(
            f"candidate: {result.candidate.compressor}/"
            f"{result.candidate.fingerprint} v{result.candidate.version}"
        )
    if result.promoted is not None:
        print(f"promoted v{result.promoted.version} to latest")
    elif result.report is not None and result.report.promote:
        print("canary passed; promotion skipped (--no-promote)")
    return 0


def _cmd_datasets(args: argparse.Namespace, ctx: RuntimeContext) -> int:  # noqa: ARG001
    for name, entry in dataset_catalog().items():
        print(
            f"{name:12} {entry['domain']:18} fields={','.join(entry['fields'])} "
            f"tsteps={entry['timesteps']} shape={entry['shape']}"
        )
    return 0


def _cmd_export(args: argparse.Namespace, ctx: RuntimeContext) -> int:
    from repro.datasets.registry import load_series

    series = load_series(args.dataset, args.field)
    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for snap in series:
        path = out_dir / f"{snap.label}.npy"
        np.save(path, snap.data)
        print(f"wrote {path} ({snap.data.shape}, {snap.data.dtype})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="FXRZ fixed-ratio lossy compression"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # One shared parent parser supplies --jobs/--trace/--metrics/
    # --fallback/--min-confidence/--runtime-profile to every subcommand
    # that does real work; main() turns them into a RuntimeContext.
    runtime = runtime_parent_parser()

    train = sub.add_parser(
        "train", parents=[runtime], help="fit a pipeline on .npy arrays"
    )
    train.add_argument("inputs", nargs="+", help="training .npy files")
    train.add_argument("--model", required=True, help="output model .npz")
    train.add_argument("--compressor", default="sz", choices=available_compressors())
    train.add_argument("--stride", type=int, default=4)
    train.add_argument("--stationary-points", type=int, default=25)
    train.add_argument("--augmented-samples", type=int, default=250)
    train.add_argument("--no-adjustment", action="store_true")
    train.set_defaults(func=_cmd_train)

    def add_target_flags(cmd: argparse.ArgumentParser) -> None:
        """The objective flags shared by estimate and compress."""
        cmd.add_argument(
            "--ratio",
            type=float,
            default=None,
            help="target compression ratio (synonym of --target-ratio)",
        )
        cmd.add_argument(
            "--target-ratio",
            type=float,
            default=None,
            help="target compression ratio (TCR)",
        )
        cmd.add_argument(
            "--target-psnr",
            type=float,
            default=None,
            help="target PSNR in dB (quality objective)",
        )
        cmd.add_argument(
            "--target-ssim",
            type=float,
            default=None,
            help="target global SSIM in (0, 1] (quality objective)",
        )

    estimate = sub.add_parser(
        "estimate",
        parents=[runtime],
        help="predict config for a ratio or quality target",
    )
    estimate.add_argument("input", help="data .npy file")
    estimate.add_argument("--model", required=True)
    add_target_flags(estimate)
    estimate.add_argument(
        "--frontier",
        default="",
        help='Pareto query instead of a point estimate, e.g. "cr>=10" '
        'or "psnr>=60" (see docs/OBJECTIVES.md)',
    )
    estimate.add_argument(
        "--frontier-points",
        type=int,
        default=12,
        help="ratio grid size of the frontier sweep",
    )
    estimate.set_defaults(func=_cmd_estimate)

    batch = sub.add_parser(
        "estimate-batch",
        aliases=["serve"],
        parents=[runtime],
        help="serve a JSONL batch of estimation requests",
    )
    batch.add_argument(
        "requests",
        help='JSONL file, one {"input": "x.npy", "ratio": 40.0} or '
        '{"input": "x.npy", "objective": "psnr:60"} per line '
        '(optional "id")',
    )
    batch.add_argument("--model", default="", help="pipeline .npz archive")
    batch.add_argument(
        "--registry", default="", help="model registry root (instead of --model)"
    )
    batch.add_argument(
        "--compressor",
        default="sz",
        choices=available_compressors(),
        help="registry lookup: compressor name",
    )
    batch.add_argument(
        "--fingerprint", default="", help="registry lookup: corpus fingerprint"
    )
    batch.add_argument(
        "--version", default="latest", help='registry lookup: version or "latest"'
    )
    batch.add_argument("--output", default="", help="results JSONL (default stdout)")
    batch.add_argument(
        "--engine",
        choices=("guarded", "plain"),
        default="guarded",
        help="serve through the guarded ladder or the plain model",
    )
    batch.add_argument("--workers", type=int, default=4)
    batch.add_argument("--max-batch", type=int, default=32)
    batch.add_argument(
        "--shards",
        type=int,
        default=0,
        help="add a lane of N supervised worker-process shards "
        "(0 = in-process threads only)",
    )
    batch.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="shard-lane admission-queue bound; beyond it requests shed "
        "with a retry-after hint",
    )
    batch.add_argument(
        "--deadline-ms",
        type=float,
        default=0.0,
        help="per-request deadline in milliseconds (0 = none)",
    )
    batch.add_argument(
        "--stats", action="store_true", help="append the service metrics snapshot"
    )
    batch.set_defaults(func=_cmd_estimate_batch)

    compress = sub.add_parser(
        "compress",
        parents=[runtime],
        help="compress to a ratio or quality target",
    )
    compress.add_argument("input", help="data .npy file")
    compress.add_argument("--model", required=True)
    add_target_flags(compress)
    compress.add_argument("--output", required=True, help="output blob file")
    compress.set_defaults(func=_cmd_compress)

    decompress = sub.add_parser("decompress", help="reconstruct from a blob")
    decompress.add_argument("input", help="blob file")
    decompress.add_argument("--output", required=True, help="output .npy file")
    decompress.set_defaults(func=_cmd_decompress)

    search = sub.add_parser(
        "search", parents=[runtime], help="run the FRaZ baseline"
    )
    search.add_argument("input", help="data .npy file")
    search.add_argument("--compressor", default="sz", choices=available_compressors())
    search.add_argument("--ratio", type=float, required=True)
    search.add_argument("--iterations", type=int, default=15)
    search.set_defaults(func=_cmd_search)

    dump = sub.add_parser(
        "dump", help="simulate a parallel dump, optionally fault-injected"
    )
    dump.add_argument("--ranks", type=int, default=1024)
    dump.add_argument("--bytes-per-rank", type=float, default=512e6)
    dump.add_argument("--ratio", type=float, default=20.0)
    dump.add_argument("--throughput", type=float, default=200e6)
    dump.add_argument("--analysis-seconds", type=float, default=0.5)
    dump.add_argument("--shared-bandwidth", type=float, default=2e9)
    dump.add_argument("--fault-seed", type=int, default=0)
    dump.add_argument("--fail-prob", type=float, default=0.0)
    dump.add_argument("--straggler-prob", type=float, default=0.0)
    dump.add_argument("--straggler-slowdown", type=float, default=4.0)
    dump.add_argument("--write-error-prob", type=float, default=0.0)
    dump.add_argument("--retries", type=int, default=4)
    dump.add_argument(
        "--no-retry", action="store_true", help="any injected fault is terminal"
    )
    dump.add_argument("--base-delay", type=float, default=0.5)
    dump.set_defaults(func=_cmd_dump)

    # The positional is named "input", not "trace": the runtime context
    # reads the --trace *flag* via getattr, and a positional named
    # "trace" would make it install tracing and clobber the file it is
    # reporting on.
    obs_report = sub.add_parser(
        "obs-report", help="render a recorded span trace as a cost tree"
    )
    obs_report.add_argument("input", help="JSONL trace from --trace")
    obs_report.add_argument(
        "--min-fraction",
        type=float,
        default=0.0,
        help="hide phases below this share of total wall time (e.g. 0.01)",
    )
    obs_report.set_defaults(func=_cmd_obs_report)

    outcomes = sub.add_parser(
        "outcomes-report", help="summarize a serving outcome log"
    )
    outcomes.add_argument("log", help="outcome JSONL from --outcome-log")
    outcomes.add_argument(
        "--spans",
        default="",
        help="span JSONL (from --trace or /spans) to join trace ids against",
    )
    outcomes.add_argument(
        "--trace-id",
        type=int,
        default=0,
        help="render the span tree of one trace id (needs --spans)",
    )
    outcomes.set_defaults(func=_cmd_outcomes_report)

    obs_top = sub.add_parser(
        "obs-top",
        help="poll a service scrape endpoint: health, supervision, SLO burn",
    )
    obs_top.add_argument(
        "url", help="scrape base URL, e.g. http://127.0.0.1:9464"
    )
    obs_top.add_argument(
        "--interval", type=float, default=2.0, help="seconds between polls"
    )
    obs_top.add_argument(
        "--iterations", type=int, default=1, help="polls before exiting"
    )
    obs_top.add_argument("--timeout", type=float, default=5.0)
    obs_top.set_defaults(func=_cmd_obs_top)

    retrain = sub.add_parser(
        "retrain",
        parents=[runtime],
        help="retrain a registry model from an outcome log (canary-gated)",
    )
    retrain.add_argument(
        "--registry", required=True, help="model registry root"
    )
    retrain.add_argument(
        "--compressor", default="sz", choices=available_compressors()
    )
    retrain.add_argument(
        "--fingerprint", default="", help="registry entry fingerprint"
    )
    retrain.add_argument(
        "--outcomes", required=True, help="outcome JSONL from --outcome-log"
    )
    retrain.add_argument(
        "--canary-fraction",
        type=float,
        default=0.25,
        help="most-recent fraction of trainable outcomes held out",
    )
    retrain.add_argument(
        "--canary-margin",
        type=float,
        default=0.0,
        help="fractional improvement required to promote",
    )
    retrain.add_argument(
        "--oversample",
        type=int,
        default=4,
        help="outcome-row replication against the augmented base matrix",
    )
    retrain.add_argument(
        "--no-promote",
        action="store_true",
        help="publish the candidate but never flip the latest alias",
    )
    retrain.set_defaults(func=_cmd_retrain)

    datasets = sub.add_parser("datasets", help="list the built-in catalog")
    datasets.set_defaults(func=_cmd_datasets)

    export = sub.add_parser(
        "export", help="materialize a built-in dataset as .npy files"
    )
    export.add_argument("dataset", help="catalog name, e.g. nyx-1")
    export.add_argument("field", help="field name, e.g. baryon_density")
    export.add_argument("--out", required=True, help="output directory")
    export.set_defaults(func=_cmd_export)
    return parser


#: Parser memo for :func:`main` — building the ~15-subcommand parser
#: costs a few ms, which embedders calling ``main`` per request (the
#: smoke examples, services wrapping the CLI) would otherwise pay every
#: time. ``build_parser`` stays un-memoized for callers that customize.
_PARSER: argparse.ArgumentParser | None = None

#: The runtime context of the most recent :func:`main` invocation.
#: Tests assert on it to pin the teardown contract: after main()
#: returns — success or failure — the context is closed, its worker
#: pool is gone and its shared-memory segments are unlinked.
_LAST_CONTEXT: RuntimeContext | None = None


def main(argv: list[str] | None = None) -> int:
    global _PARSER, _LAST_CONTEXT
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    ctx = _LAST_CONTEXT = None
    try:
        # A runtime config that fails to resolve (env, profile or
        # flags) is a usage error like any other.
        ctx = _LAST_CONTEXT = RuntimeContext.from_args(args)
        with ctx:
            with obs.span(f"cli.{args.command}"):
                return args.func(args, ctx)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # ``with ctx`` already closed it on the happy path; this makes
        # teardown unconditional for exits that never entered the
        # block (argparse quirks) and keeps close() idempotent.
        if ctx is not None:
            ctx.close()
            for note in ctx.teardown_notes:
                print(note, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
