"""Shared experiment engine behind the benchmark suite.

Training a pipeline and probing valid ratio ranges are expensive, so
this module memoizes them per (application, field, compressor) within
the process — one pytest-benchmark session reuses them across benches.

The serving helpers (:func:`get_estimation_service`,
:func:`serving_analysis_cost`) route estimation traffic through
:mod:`repro.serving` so benches can compare the amortized per-request
analysis cost of a cached, batched service against the single-shot
engine Table VIII measures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.distortion import valid_ratio_range
from repro.baselines.fraz import FRaZ
from repro.compressors import get_compressor
from repro.compressors.base import Compressor
from repro.config import FXRZConfig
from repro.core.pipeline import FXRZ
from repro.datasets.base import FieldSnapshot
from repro.experiments.corpus import held_out_snapshots, training_arrays
from repro.runtime import RuntimeContext
from repro.serving import EstimateRequest, EstimationService, MetricsSnapshot

_FXRZ_CACHE: dict[tuple, FXRZ] = {}
_RANGE_CACHE: dict[tuple, tuple[float, float]] = {}
_SERVICE_CACHE: dict[tuple, EstimationService] = {}
# One runtime session for the whole bench suite. Its memo is the
# content-addressed cache every compression the suite triggers shares:
# training sweeps, FRaZ searches at every budget, guarded fallbacks and
# repeated bench rounds (superseding the old per-snapshot FRaZ eval
# dict, which only FRaZ could read).
_RUNTIME: RuntimeContext | None = None


def get_runtime_context() -> RuntimeContext:
    """The suite-wide runtime session (rebuilt after :func:`clear_caches`)."""
    global _RUNTIME
    if _RUNTIME is None or _RUNTIME.closed:
        _RUNTIME = RuntimeContext(env={})
    return _RUNTIME


@dataclass(frozen=True)
class FRaZSummary:
    """FRaZ outcome at one iteration budget."""

    measured_ratio: float
    error: float
    seconds: float
    iterations: int


@dataclass(frozen=True)
class AccuracyRecord:
    """One (snapshot, target ratio) evaluation across strategies."""

    application: str
    field: str
    snapshot: str
    compressor: str
    target_ratio: float
    fxrz_config: float
    fxrz_ratio: float
    fxrz_error: float
    fxrz_seconds: float
    compress_seconds: float
    fraz: dict[int, FRaZSummary] = field(default_factory=dict)


def get_trained_fxrz(
    application: str,
    fld: str,
    compressor_name: str,
    config: FXRZConfig | None = None,
    model_factory=None,
    n_jobs: int | None = None,
) -> FXRZ:
    """A trained FXRZ pipeline, memoized per (app, field, compressor).

    ``n_jobs`` only sets training-time parallelism (the fitted model is
    bit-identical at any worker count), so it is deliberately not part
    of the cache key.
    """
    cfg = config or FXRZConfig()
    key = (application, fld, compressor_name, cfg, id(model_factory))
    if key not in _FXRZ_CACHE:
        ctx = get_runtime_context()
        if n_jobs is not None and n_jobs != 1:
            # A jobs override still shares the suite memo; the extra
            # context only carries the executor configuration.
            ctx = RuntimeContext(env={}, jobs=n_jobs, memo=ctx.memo)
        pipeline = FXRZ(
            get_compressor(compressor_name),
            config=cfg,
            model_factory=model_factory,
            ctx=ctx,
        )
        pipeline.fit(training_arrays(application, fld))
        _FXRZ_CACHE[key] = pipeline
    return _FXRZ_CACHE[key]


def get_estimation_service(
    application: str,
    fld: str,
    compressor_name: str,
    config: FXRZConfig | None = None,
    guarded: bool = False,
    workers: int = 2,
    max_batch: int = 32,
) -> EstimationService:
    """A serving front-end over the memoized trained pipeline.

    Cached per (app, field, compressor, guarded) so one bench session
    reuses a warm service; :func:`clear_caches` closes them.
    """
    cfg = config or FXRZConfig()
    key = (application, fld, compressor_name, cfg, guarded)
    if key not in _SERVICE_CACHE:
        pipeline = get_trained_fxrz(application, fld, compressor_name, config=cfg)
        _SERVICE_CACHE[key] = EstimationService.for_pipeline(
            pipeline,
            guarded=guarded,
            ctx=get_runtime_context(),
            workers=workers,
            max_batch=max_batch,
        )
    return _SERVICE_CACHE[key]


@dataclass(frozen=True)
class ServingCostSummary:
    """Amortized-vs-single-shot analysis cost of one served batch."""

    requests: int
    single_shot_seconds: float
    amortized_seconds: float
    wall_seconds: float
    metrics: MetricsSnapshot

    @property
    def speedup(self) -> float:
        return self.single_shot_seconds / max(self.amortized_seconds, 1e-12)


def serving_analysis_cost(
    application: str,
    fld: str,
    compressor_name: str,
    n_targets: int = 8,
    config: FXRZConfig | None = None,
    max_snapshots: int | None = 1,
) -> ServingCostSummary:
    """Serve ``n_targets`` ratios per held-out snapshot through the service.

    ``single_shot_seconds`` is the mean cost of a cold
    ``estimate_config`` (features + blocks + model, per request);
    ``amortized_seconds`` is the mean engine-reported per-request cost
    once the service's feature cache absorbs the per-dataset analysis.
    """
    pipeline = get_trained_fxrz(application, fld, compressor_name, config=config)
    service = get_estimation_service(
        application, fld, compressor_name, config=config
    )
    snapshots = held_out_snapshots(application, fld)
    if max_snapshots is not None:
        snapshots = snapshots[:max_snapshots]

    requests: list[EstimateRequest] = []
    single_shot: list[float] = []
    for snapshot in snapshots:
        lo, hi = pipeline.trained_ratio_range(snapshot.data)
        targets = np.linspace(lo * 1.05, hi * 0.95, n_targets)
        single_shot.append(
            pipeline.estimate_config(
                snapshot.data, float(np.median(targets))
            ).analysis_seconds
        )
        requests.extend(
            EstimateRequest(
                data=snapshot.data,
                target_ratio=float(tcr),
                dataset_id=snapshot.name,
            )
            for tcr in targets
        )

    tick = time.perf_counter()
    served = service.run_batch(requests)
    wall = time.perf_counter() - tick
    amortized = float(
        np.mean([s.estimate.analysis_seconds for s in served])
    )
    return ServingCostSummary(
        requests=len(served),
        single_shot_seconds=float(np.mean(single_shot)),
        amortized_seconds=amortized,
        wall_seconds=wall,
        metrics=service.metrics,
    )


def target_ratio_grid(
    compressor: Compressor,
    snapshot: FieldSnapshot,
    n_targets: int,
    min_psnr: float = 40.0,
) -> np.ndarray:
    """Valid TCRs for a snapshot (Fig. 11's range, memoized)."""
    key = (compressor.name, getattr(compressor, "mode", ""), snapshot.name, min_psnr)
    if key not in _RANGE_CACHE:
        _RANGE_CACHE[key] = valid_ratio_range(
            compressor, snapshot.data, min_psnr=min_psnr
        )
    lo, hi = _RANGE_CACHE[key]
    return np.linspace(lo * 1.1, hi * 0.9, n_targets)


def accuracy_records(
    application: str,
    fld: str,
    compressor_name: str,
    n_targets: int = 8,
    fraz_budgets: tuple[int, ...] = (6, 15),
    min_psnr: float = 40.0,
    config: FXRZConfig | None = None,
    max_snapshots: int | None = 1,
) -> list[AccuracyRecord]:
    """Evaluate FXRZ and FRaZ over the valid TCR grid of held-out data.

    Args:
        application: one of the four applications.
        fld: the field to train and test on.
        compressor_name: registered compressor name.
        n_targets: TCRs per snapshot (the paper uses ~25; benches use
            fewer to bound runtime).
        fraz_budgets: FRaZ iteration budgets to evaluate (paper: 6, 15).
        min_psnr: distortion floor defining the valid ratio range.
        config: FXRZ configuration override.
        max_snapshots: cap on evaluated test snapshots (None = all).
    """
    pipeline = get_trained_fxrz(application, fld, compressor_name, config=config)
    compressor = pipeline.compressor
    snapshots = held_out_snapshots(application, fld)
    if max_snapshots is not None:
        snapshots = snapshots[:max_snapshots]

    records: list[AccuracyRecord] = []
    for snapshot in snapshots:
        targets = target_ratio_grid(compressor, snapshot, n_targets, min_psnr)
        # Stay inside the pipeline's trained span (the paper tunes
        # per-dataset TCRs to the applicable range, Sec. V-F): asking a
        # regressor outside its training support measures
        # extrapolation, not the method.
        lo_t, hi_t = pipeline.trained_ratio_range(snapshot.data)
        lo = max(float(targets[0]), lo_t)
        hi = min(float(targets[-1]), hi_t * 0.95)
        if hi <= lo:
            hi = lo * 1.5
        targets = np.linspace(lo, hi, n_targets)
        # One reference compression (at a mid-grid config) times the
        # denominator of Table VIII's relative analysis cost.
        mid_estimate = pipeline.estimate_config(
            snapshot.data, float(np.median(targets))
        )
        tick = time.perf_counter()
        compressor.compress(snapshot.data, mid_estimate.config)
        compress_seconds = time.perf_counter() - tick

        for tcr in targets:
            result = pipeline.compress_to_ratio(snapshot.data, float(tcr))
            fraz_outcomes: dict[int, FRaZSummary] = {}
            for budget in fraz_budgets:
                # The suite-wide memo replaces the old per-snapshot eval
                # dict: searches share probes across budgets *and* with
                # the training sweeps, at the same honest-cost
                # accounting (hits charge their recorded seconds).
                searcher = FRaZ(
                    compressor,
                    max_iterations=budget,
                    ctx=get_runtime_context(),
                )
                outcome = searcher.search(snapshot.data, float(tcr))
                fraz_outcomes[budget] = FRaZSummary(
                    measured_ratio=outcome.measured_ratio,
                    error=outcome.estimation_error,
                    seconds=outcome.search_seconds,
                    iterations=outcome.iterations,
                )
            records.append(
                AccuracyRecord(
                    application=application,
                    field=fld,
                    snapshot=snapshot.label,
                    compressor=compressor_name,
                    target_ratio=float(tcr),
                    fxrz_config=result.estimate.config,
                    fxrz_ratio=result.measured_ratio,
                    fxrz_error=result.estimation_error,
                    fxrz_seconds=result.estimate.analysis_seconds,
                    compress_seconds=compress_seconds,
                    fraz=fraz_outcomes,
                )
            )
    return records


def summarize_errors(records: list[AccuracyRecord]) -> dict[str, float]:
    """Mean estimation error per strategy over a record batch."""
    if not records:
        return {}
    out = {"fxrz": float(np.mean([r.fxrz_error for r in records]))}
    budgets = sorted(records[0].fraz)
    for budget in budgets:
        out[f"fraz{budget}"] = float(
            np.mean([r.fraz[budget].error for r in records])
        )
    return out


def clear_caches() -> None:
    """Drop all memoized pipelines/ranges (tests use this for isolation)."""
    global _RUNTIME
    _FXRZ_CACHE.clear()
    _RANGE_CACHE.clear()
    for service in _SERVICE_CACHE.values():
        service.close()
    _SERVICE_CACHE.clear()
    if _RUNTIME is not None:
        _RUNTIME.close()
        _RUNTIME = None
