"""Parallel execution layer — sweep scaling and memo reuse.

Two measurements over the :mod:`repro.parallel` seams:

1. **Sweep scaling** — ``build_curve`` at several ``--jobs`` levels,
   each run twice against one shared memo: the *cold* pass pays every
   compressor run (fanned over the process pool; on a multi-core box
   the wall clock drops with jobs), the *warm* pass answers every
   stationary config from the memo. Both wall clocks, the parallel
   speedup and the memo-warm speedup are recorded — separately and
   honestly labeled, because they come from different mechanisms.
2. **FRaZ memo reuse** — the same field searched twice through one
   memo; the second search must *hit* (the cross-path cache's
   raison d'être) and its compressor-free wall clock is recorded. The
   section runs with a live :class:`~repro.obs.MetricsRegistry`: the
   memo's counters surface as ``repro_memo_*`` gauges and FRaZ's probe
   tally as ``repro_fraz_probes_total``, printed as a third table.

Smoke mode (default) keeps the grid small so the bench lands in
seconds; ``FXRZ_BENCH_PARALLEL_FULL=1`` switches to the ISSUE's
256^3 / 25-point configuration. Results go to stdout, to
``benchmarks/results/``, and machine-readably to the repo-root
``BENCH_parallel_scaling.json``.
"""

import json
import os
import pathlib
import time

import numpy as np

from repro import obs
from repro.compressors import get_compressor
from repro.core.augmentation import build_curve
from repro.baselines.fraz import FRaZ
from repro.experiments.tables import render_table
from repro.parallel import CompressionMemoCache, available_cpus
from repro.runtime import RuntimeContext

FULL = os.environ.get("FXRZ_BENCH_PARALLEL_FULL", "") not in ("", "0")
GRID = 256 if FULL else 64
N_POINTS = 25 if FULL else 8
JOBS_LEVELS = (1, 2, 4, 8) if FULL else (1, 2, 4)
#: Cold sweeps per jobs level; the minimum is the recorded wall clock
#: (standard noise-robust estimator — smoke grids finish in ~100 ms, so
#: a single stray scheduler tick would otherwise dominate the ratio).
COLD_REPS = 1 if FULL else 3

_JSON_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_parallel_scaling.json"


def _field(n: int) -> np.ndarray:
    lin = np.linspace(0, 4 * np.pi, n)
    x, y, z = np.meshgrid(lin, lin, lin, indexing="ij")
    noise = np.random.default_rng(13).standard_normal((n, n, n))
    return (np.sin(x) * np.cos(y) * np.sin(z) + 0.05 * noise).astype(np.float32)


def test_parallel_scaling(benchmark, report):
    sz = get_compressor("sz")
    data = _field(GRID)
    fingerprint = CompressionMemoCache.fingerprint(data)

    # -- 1. sweep scaling: cold (pool) + warm (memo) per jobs level -----------
    sweep_rows = []
    sweep_records = []
    reference = None
    serial_cold = None
    for jobs in JOBS_LEVELS:
        cold = None
        memo = None
        cold_curve = None
        # Each rep gets a fresh context (and so a fresh memo) so every
        # pass really pays the compressor runs; the fat-batch dispatch
        # groups the sweep's probes into one task per worker.
        for _ in range(COLD_REPS):
            cold_ctx = RuntimeContext(env={}, jobs=jobs)
            tick = time.perf_counter()
            cold_curve = build_curve(
                sz, data, n_points=N_POINTS, ctx=cold_ctx, fingerprint=fingerprint
            )
            elapsed = time.perf_counter() - tick
            cold = elapsed if cold is None else min(cold, elapsed)
            memo = cold_ctx.memo
            cold_ctx.close()
        # The warm pass answers from the memo alone: a serial context
        # borrowing the cold session's memo keeps the pool out of the
        # timing (and out of the memo path — hits resolve in-driver).
        warm_ctx = RuntimeContext(env={}, memo=memo)
        tick = time.perf_counter()
        warm_curve = build_curve(
            sz, data, n_points=N_POINTS, ctx=warm_ctx, fingerprint=fingerprint
        )
        warm = time.perf_counter() - tick
        warm_ctx.close()

        if reference is None:
            reference = cold_curve
            serial_cold = cold
        np.testing.assert_array_equal(cold_curve.ratios, reference.ratios)
        np.testing.assert_array_equal(warm_curve.ratios, reference.ratios)
        assert memo.hits >= N_POINTS, "warm sweep must answer from the memo"

        cold_speedup = serial_cold / max(cold, 1e-12)
        warm_speedup = cold / max(warm, 1e-12)
        sweep_rows.append(
            [
                str(jobs),
                f"{cold:.3f} s",
                f"{cold_speedup:.2f}x",
                f"{warm * 1e3:.1f} ms",
                f"{warm_speedup:.1f}x",
                f"{memo.hit_ratio:.2f}",
            ]
        )
        sweep_records.append(
            {
                "jobs": jobs,
                "effective_jobs": min(jobs, available_cpus()),
                "cold_seconds": cold,
                "cold_speedup_vs_serial": cold_speedup,
                "warm_seconds": warm,
                "warm_speedup_vs_cold": warm_speedup,
                "memo_hits": memo.hits,
                "memo_hit_ratio": memo.hit_ratio,
            }
        )

    at4 = next(r for r in sweep_records if r["jobs"] == 4)
    assert at4["warm_speedup_vs_cold"] >= 2.5, (
        "memo-warm sweep at jobs=4 must be at least 2.5x faster than cold"
    )

    # Fat-task cold scaling: batched dispatch must beat serial on real
    # cores. On a single-CPU host the auto backend clamps every jobs
    # level to the in-driver serial path, so there is no fan-out to
    # measure — the level is recorded (speedup ~1.0 by construction)
    # and the floor is skipped with a note.
    cpus = available_cpus()
    if cpus >= 4:
        cold_floor = 1.3
    elif cpus >= 2:
        cold_floor = 1.1
    else:
        cold_floor = None
    if cold_floor is not None:
        assert at4["cold_speedup_vs_serial"] >= cold_floor, (
            f"cold sweep at jobs=4 scaled {at4['cold_speedup_vs_serial']:.2f}x "
            f"on {cpus} CPUs; floor is {cold_floor}x"
        )
    else:
        print(
            "note: single-CPU host - auto backend clamps jobs=4 to the "
            "serial path; cold-scaling floor skipped"
        )

    # -- 2. FRaZ memo reuse: the second search must hit -----------------------
    # Run under a RuntimeContext carrying a live metrics registry: the
    # session memo registers its repro_memo_* gauges on first use, the
    # context makes the registry ambient for FRaZ's probe counters, and
    # both searches draw the same memo from the session.
    registry = obs.MetricsRegistry()
    curve = reference
    target = float(np.sqrt(np.prod(curve.ratio_range)))
    with RuntimeContext(env={}, registry=registry) as ctx:
        memo = ctx.memo
        tick = time.perf_counter()
        first = FRaZ(sz, max_iterations=6, ctx=ctx).search(data, target)
        fraz_first = time.perf_counter() - tick
        hits_before = memo.hits
        tick = time.perf_counter()
        second = FRaZ(sz, max_iterations=6, ctx=ctx).search(data, target)
        fraz_second = time.perf_counter() - tick
    fraz_hits = memo.hits - hits_before
    assert fraz_hits >= 1, "repeat FRaZ search must hit the shared memo"
    assert second.evaluations == first.evaluations
    assert second.search_seconds == first.search_seconds  # recorded, honest

    registry.collect()
    assert registry.get("repro_memo_hits").value() == memo.hits
    assert registry.get("repro_fraz_searches_total").value() == 2
    metric_rows = []
    for name in (
        "repro_memo_hits",
        "repro_memo_misses",
        "repro_memo_evictions",
        "repro_memo_entries",
    ):
        metric_rows.append([name, f"{registry.get(name).value():g}"])
    probes = registry.get("repro_fraz_probes_total")
    for key in probes.labels():
        labels = ",".join(f'{k}="{v}"' for k, v in key)
        metric_rows.append(
            [f"repro_fraz_probes_total{{{labels}}}", f"{probes.value(**dict(key)):g}"]
        )

    report(
        render_table(
            ["jobs", "cold sweep", "vs serial", "warm sweep", "warm vs cold", "hit ratio"],
            sweep_rows,
            title=(
                f"Parallel scaling - {N_POINTS}-point sweep of a "
                f"{GRID}^3 field on {available_cpus()} CPU(s) "
                f"({'full' if FULL else 'smoke'} mode)"
            ),
        )
        + "\n"
        + render_table(
            ["path", "first", "repeat", "note"],
            [
                [
                    "FRaZ search x2 (shared memo)",
                    f"{fraz_first:.3f} s",
                    f"{fraz_second:.3f} s",
                    f"{fraz_hits} memo hit(s) on repeat",
                ],
            ],
            title="FRaZ memo reuse",
        )
        + "\n"
        + render_table(
            ["metric", "value"],
            metric_rows,
            title="Registry view of the FRaZ section (pull-model gauges)",
        )
    )

    _JSON_PATH.write_text(
        json.dumps(
            {
                "mode": "full" if FULL else "smoke",
                "cpus": available_cpus(),
                "grid": [GRID, GRID, GRID],
                "n_points": N_POINTS,
                "cold_reps": COLD_REPS,
                "cold_scaling_floor": {
                    "jobs": 4,
                    "floor": cold_floor,
                    "applied": cold_floor is not None,
                    "note": (
                        "single-CPU host: auto backend clamps to serial"
                        if cold_floor is None
                        else "min-of-reps cold sweep, fat-batched tasks"
                    ),
                },
                "sweep": sweep_records,
                "fraz_memo": {
                    "target_ratio": target,
                    "first_seconds": fraz_first,
                    "second_seconds": fraz_second,
                    "repeat_memo_hits": fraz_hits,
                    "recorded_search_seconds": first.search_seconds,
                },
                "registry": registry.to_dict(),
            },
            indent=2,
        )
        + "\n"
    )

    # The steady-state op the layer optimizes for: a fully memo-warm sweep.
    with RuntimeContext(env={}) as steady_ctx:
        build_curve(
            sz, data, n_points=N_POINTS, ctx=steady_ctx, fingerprint=fingerprint
        )
        benchmark(
            lambda: build_curve(
                sz, data, n_points=N_POINTS, ctx=steady_ctx, fingerprint=fingerprint
            )
        )
