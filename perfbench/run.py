"""Run one benchmark workload and print its metrics as one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload estimate-48 --seed 1 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
separate traced pass and prints the per-layer metrics. Times of the
end-to-end metrics are process CPU time, which leaves out the time a
shared host's hypervisor takes the vCPU away (CPU steal), rescaled to
reference host speed: each operation's time is multiplied by the
nominal time of a fixed reference kernel over the kernel's local median
time around that operation (see ``fxbench/speed.py``); set-up is rescaled
by the kernels run before and after it. ``norm_mean_ms`` and
``norm_tail_ms`` are medians over five consecutive slices of the window
of each slice's mean and tail percentile. The raw CPU and wall-clock
figures of the same operations are printed beside them. The line before
the result carries the host and run facts (``{"info": ...}``). The exit
code is 0 only when every output check passed; without the repository's
``src/`` tree next to this directory the command exits 2 and prints no
result.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def pin_to_one_cpu() -> None:
    """Run every thread of this process on one CPU, with one BLAS thread.

    Only one operation is ever in flight, so a second CPU adds nothing
    but migrations, and the reference kernel (in the calling thread)
    must see the same CPU as a service worker running the operation.
    Called before numpy is imported, so its threads inherit both.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


if __name__ == "__main__":
    pin_to_one_cpu()

import numpy as np  # noqa: E402 — after pin_to_one_cpu, see there

ROOT = Path(__file__).resolve().parent.parent

#: Full set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 2

#: Reference kernels timed around each set-up: a fit both streams
#: arrays (compressions in the sweep) and dispatches (tree building).
SETUP_KERNELS = ("dispatch", "stream")

#: Share of the measured operation time the traced layers may leave
#: uncovered (the timing loop's and the root wrapper's own overhead).
LAYER_SUM_SLACK = 0.02


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_steal() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs, or zeros off Linux."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def failed_ops(failures) -> int:
    """Operations with at least one failed check (run-level ones excluded)."""
    return len({f.op for f in failures if f.op is not None})


def plain_run(workload, import_cpu_s):
    from fxbench.stats import (
        CHUNKS,
        chunk_median,
        percentile,
        samples_beyond,
        tail_percentile,
    )

    from fxbench.speed import block_speed, local_speed, reference

    reps, wall_reps, speeds = [], [], []
    for _ in range(SETUP_REPEATS):
        workload.close()
        before = block_speed(SETUP_KERNELS)
        tick, tock = time.perf_counter(), time.process_time()
        workload.setup()
        reps.append(time.process_time() - tock)
        wall_reps.append(time.perf_counter() - tick)
        speeds.append((before + block_speed(SETUP_KERNELS)) / 2)
    norm_reps = [r * f for r, f in zip(reps, speeds)]
    workload.warm()
    gc.collect()
    rss_before = peak_rss_mb()
    steal0, total0 = cpu_steal()
    window = workload.run(reference=reference(workload.speed_kernel))
    steal1, total1 = cpu_steal()
    # Read before the checks below, which compress and decompress.
    rss = peak_rss_mb()
    failures = workload.check(window)
    est_error = workload.est_error(window)
    workload.close()

    good = np.array([not isinstance(out, BaseException) for out in window.outputs])
    speed = local_speed(window.ref, workload.speed_kernel)[good]
    cpu = 1e3 * window.cpu[good]
    wall = 1e3 * window.wall[good]
    norm = cpu * speed
    n = len(cpu)
    chunk_n = n // CHUNKS
    q = tail_percentile(chunk_n, workload.tail_ceiling)
    attempted = len(window.outputs)
    failed = failed_ops(failures)
    metrics = {
        "setup_s": metric(
            import_cpu_s * speeds[0] + statistics.median(norm_reps), "s"
        ),
        "norm_mean_ms": metric(chunk_median(norm, np.mean), "ms"),
        "norm_tail_ms": metric(
            chunk_median(norm, lambda part: percentile(part, q)), "ms"
        ),
        "success_rate": metric(1.0 - failed / attempted, "fraction"),
        "est_error_median": metric(est_error, "fraction"),
        "peak_rss_mb": metric(rss, "MB"),
    }

    def ladder(values):
        return {"mean": float(np.mean(values))} | {
            f"p{c}": percentile(values, c) for c in (50, 75, 90, 95, 99)
        }

    info = {
        "clock": "process CPU time at reference speed (setup_s, norm_*)",
        "samples": {"norm_mean_ms": n, "norm_tail_ms": n, "setup_s": len(reps)},
        # Both norm_* metrics are medians over CHUNKS consecutive slices
        # of the window; the tail percentile is taken within each slice.
        "chunks": CHUNKS,
        "tail_percentile": q,
        "samples_beyond_tail_per_chunk": samples_beyond(chunk_n, q),
        "speed_kernel": workload.speed_kernel,
        # Host speed over reference speed in the window (below 1: slower).
        "speed_factor": ladder(speed),
        "norm_ms": ladder(norm),
        "cpu_ms": ladder(cpu),
        "cpu_ops_per_s": 1e3 * n / cpu.sum(),
        # The same operations on the wall clock, which also counts CPU
        # steal: shown, not gated.
        "wall_ms": ladder(wall),
        "wall_ops_per_s": 1e3 * n / wall.sum(),
        "import_cpu_s": import_cpu_s,
        "setup_reps_cpu_s": reps,
        "setup_reps_norm_s": norm_reps,
        "setup_speed_factors": speeds,
        "setup_reps_wall_s": wall_reps,
        # Share of host CPU time the hypervisor took during the window:
        # a high value explains a slow wall clock.
        "host_steal_frac": (steal1 - steal0) / max(1, total1 - total0),
        "peak_rss_reached_in": "window" if rss > rss_before else "setup",
        "counts": workload.counts(window),
    }
    return metrics, failures, attempted, failed, info


def traced_run(workload):
    from fxbench.trace import Tracer, install, setup_metrics, window_metrics
    from fxbench.workloads import Failure

    tracer = Tracer()
    uninstall = install(tracer)
    workload.setup()
    uninstall()
    workload.warm()
    gc.collect()
    tracer.phase = "untraced"
    plain = workload.run()
    if workload.serving:
        workload.close()
        workload.service = workload.make_service()
        workload.warm()
    uninstall = install(tracer)
    gc.collect()
    tracer.phase = "window"
    try:
        traced = workload.run(tracer)
    finally:
        tracer.phase = "done"
        uninstall()
    failures = workload.check(traced)
    for i, (a, b) in enumerate(
        zip(workload.configs(plain), workload.configs(traced))
    ):
        if a != b:
            failures.append(Failure(
                i, f"op {i}: traced config {b!r} != untraced {a!r}"
            ))
    workload.close()

    n = len(traced.outputs)
    metrics = setup_metrics(tracer)
    metrics.update(window_metrics(tracer, n))
    if not workload.serving:
        # The operation roots' spans (named layers + other_ms) must
        # cover what the loop measured around each call, but for the
        # loop's and the root wrapper's own few microseconds.
        measured = 1e3 * float(traced.wall.mean())
        gap = measured - metrics["trace.op_ms"]
        if not 0.0 <= gap <= LAYER_SUM_SLACK * measured:
            failures.append(Failure(
                None,
                f"layers + other_ms cover {metrics['trace.op_ms']!r} ms per "
                f"operation, the loop measured {measured!r} ms",
            ))
    metrics["trace.overhead_frac"] = float(traced.cpu.mean() / plain.cpu.mean()) - 1.0
    metrics.update(serving_metrics(workload, tracer, traced))
    info = {
        "untraced_cpu_mean_ms": 1e3 * float(plain.cpu.mean()),
        "traced_cpu_mean_ms": 1e3 * float(traced.cpu.mean()),
        "traced_wall_mean_ms": 1e3 * float(traced.wall.mean()),
        "counts": workload.counts(traced),
    }
    return metrics, failures, n, failed_ops(failures), info


def serving_metrics(workload, tracer, window):
    """Guarded-tier shares and the service layer of serve-48."""
    from fxbench.stats import percentile, tail_percentile

    ok = [o for o in window.outputs if not isinstance(o, BaseException)]
    out = {
        "robustness.guarded.tier_model_frac": 0.0,
        "robustness.guarded.tier_curve_frac": 0.0,
        "robustness.guarded.tier_fraz_frac": 0.0,
        "serving.service.queue_wait_p50_ms": 0.0,
        "serving.service.queue_wait_tail_ms": 0.0,
        "serving.service.engine_ms": 0.0,
        "serving.service.batch_size": 0.0,
        "serving.cache.hit_ratio": 0.0,
        "serving.cache.hits": 0.0,
        "serving.cache.misses": 0.0,
    }
    if not workload.serving or not ok:
        return out
    for tier, count in workload.tiers(window).items():
        out[f"robustness.guarded.tier_{tier}_frac"] = count / len(ok)
    first_start: dict[int, float] = {}
    engine: dict[int, float] = {}
    for span in tracer.spans:
        if span.phase != "window" or span.op < 0:
            continue
        first_start[span.op] = min(first_start.get(span.op, span.start), span.start)
        if span.parent is None:
            engine[span.op] = engine.get(span.op, 0.0) + span.duration
    waits = [first_start[i] - window.started[i] for i in first_start]
    q = tail_percentile(len(waits), workload.tail_ceiling)
    hits, misses = window.extra["cache_hits"], window.extra["cache_misses"]
    out.update({
        "serving.service.queue_wait_p50_ms": 1e3 * percentile(waits, 50),
        "serving.service.queue_wait_tail_ms": 1e3 * percentile(waits, q),
        "serving.service.engine_ms": 1e3 * percentile(list(engine.values()), 50),
        "serving.service.batch_size": statistics.fmean(o.batch_size for o in ok),
        "serving.cache.hit_ratio": hits / max(1, hits + misses),
        "serving.cache.hits": hits,
        "serving.cache.misses": misses,
    })
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {src}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from fxbench.workloads import WORKLOADS

    # CPU seconds from process start: interpreter start-up and imports.
    import_cpu_s = time.process_time()
    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    try:
        if args.trace:
            values, failures, attempted, failed, info = traced_run(workload)
            with open(ROOT / "BENCHMARK.json") as handle:
                per_layer = json.load(handle)["per_layer"]
            metrics = {
                m["name"]: metric(values[m["name"]], m["unit"])
                for m in per_layer
            }
        else:
            metrics, failures, attempted, failed, info = plain_run(
                workload, import_cpu_s
            )
    finally:
        workload.close()
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": attempted,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "failures": [f.message for f in failures[:20]],
    })
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
