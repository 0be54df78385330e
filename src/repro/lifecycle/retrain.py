"""Retraining from measured serving outcomes.

A measured outcome is a ground-truth training row: configuration ``c``
really did deliver ratio ``m`` on a dataset with known features, so
``[features..., adjusted_ratio(m, R)] -> c`` is exactly the mapping the
regression model learns — no compressor runs needed to harvest it.
:func:`retrain` combines the incumbent's original training matrix with
those rows (oversampled, so a few dozen measured outcomes are not
drowned by hundreds of augmented curve samples), fits a small pool of
candidate forests — in worker processes when the session's
:class:`~repro.parallel.ParallelExecutor` has them — and publishes the
best candidate **unpromoted**. Promotion is the canary's call (see
:mod:`repro.lifecycle.promote`): the alias flips only when the
candidate beats the incumbent on a held-out slice of the outcome log.

The retrain runs synchronously over a replayed outcome log
(``repro retrain``); whoever serves the incumbent keeps serving it
until the alias flips.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro import obs
from repro.compressors import get_compressor
from repro.core.adjustment import adjusted_ratio
from repro.core.pipeline import FXRZ
from repro.core.training import default_model_factory
from repro.errors import InvalidConfiguration
from repro.lifecycle.promote import (
    CanaryReport,
    canary_report_from_medians,
    replay_errors,
)
from repro.serving.registry import LATEST


def training_rows_from_outcomes(
    records, *, log_scale: bool, oversample: int = 1
) -> tuple[np.ndarray, np.ndarray, int]:
    """Measured outcomes as model rows ``(x, y, records_used)``.

    Mirrors :meth:`~repro.core.training.TrainingEngine.build_training_matrix`
    exactly: the ACR comes from the *measured* ratio through the
    record's non-constant fraction, and log-scale compressors regress
    the range-normalized log bound. ``oversample`` replicates each row
    so a handful of outcomes carries weight against hundreds of
    augmented curve samples.
    """
    if oversample < 1:
        raise InvalidConfiguration("oversample must be >= 1")
    rows: list[np.ndarray] = []
    targets: list[float] = []
    used = 0
    for record in records:
        if not record.trainable:
            continue
        try:
            acr = adjusted_ratio(record.measured_ratio, record.nonconstant)
        except InvalidConfiguration:
            continue
        features = np.asarray(record.features, dtype=np.float64)
        scale = max(float(features[0]), 1e-30)
        target = (
            math.log10(record.config / scale) if log_scale else record.config
        )
        row = np.concatenate((features, [acr]))
        used += 1
        for _ in range(int(oversample)):
            rows.append(row)
            targets.append(target)
    if not rows:
        return np.empty((0, 0)), np.empty(0), 0
    return np.vstack(rows), np.asarray(targets, dtype=np.float64), used


#: Sentinel task: score the shipped incumbent model instead of fitting.
_SCORE_INCUMBENT = -1


def _fit_and_score_task(task, arrays, context):
    """Executor task: fit one candidate and replay it on the holdout.

    Module-level and picklable so process backends can run it. Both the
    forest fit and the canary bisection (hundreds of pure-Python model
    queries) happen here, in the worker. ``task`` is a candidate seed,
    or ``_SCORE_INCUMBENT`` to replay the registry's incumbent without
    fitting anything.
    """
    seed = int(task)
    if seed == _SCORE_INCUMBENT:
        # Load the incumbent from disk HERE rather than shipping the
        # forest through the task context: pickling a forest is a long
        # GIL-held pause in the calling process.
        from repro.serving.registry import ModelRegistry

        registry = ModelRegistry(context["registry_root"])
        model = registry.load(
            context["compressor"],
            context["fingerprint"],
            context["version"],
        ).model
        fitted = None
    else:
        x = np.asarray(arrays["x"], dtype=np.float64)
        y = np.asarray(arrays["y"], dtype=np.float64)
        model = default_model_factory(seed)
        model.fit(x, y)
        fitted = model
    carrier = SimpleNamespace(
        model=model, compressor=get_compressor(context["compressor"])
    )
    errors = replay_errors(carrier, context["holdout"])
    median = float(np.median(errors)) if errors else float("inf")
    return fitted, median


def clone_with_model(base: FXRZ, model) -> FXRZ:
    """A pipeline sharing ``base``'s corpus/config but serving ``model``.

    The clone keeps the training records (so its corpus fingerprint,
    envelope and curves match the entry it will be published into) and
    swaps only the regression model — the same surgery
    :func:`~repro.core.persistence.load_pipeline` performs when
    rebuilding a pipeline from an archive.
    """
    clone = FXRZ(
        base.compressor, config=base.config, ctx=getattr(base, "ctx", None)
    )
    clone._training.records = list(base._training.records)
    clone._training._model = model
    return clone


@dataclass(frozen=True)
class RetrainResult:
    """What one retrain attempt did.

    Attributes:
        trainable: trainable records seen in the replay.
        train_rows: outcome records folded into the candidate fit.
        holdout: records reserved for the canary replay.
        candidate: the published (unpromoted) candidate, if any.
        report: the canary verdict, if the canary ran.
        promoted: the version now serving as ``latest`` (``None`` when
            the candidate was held back or promotion was disabled).
        seconds: wall time of the whole attempt.
        reason: human-readable summary.
    """

    trainable: int
    train_rows: int
    holdout: int
    candidate: object | None
    report: CanaryReport | None
    promoted: object | None
    seconds: float
    reason: str


def retrain(
    registry,
    compressor: str,
    records,
    *,
    fingerprint: str | None = None,
    canary_fraction: float = 0.25,
    canary_margin: float = 0.0,
    oversample: int = 4,
    n_candidates: int = 2,
    auto_promote: bool = True,
    ctx=None,
    metrics=None,
) -> RetrainResult:
    """Fit candidates, publish the best, canary it against ``latest``.

    Args:
        registry: the :class:`~repro.serving.ModelRegistry` holding the
            incumbent (and receiving the candidate).
        compressor: registry entry coordinate.
        records: the replayed outcome history (append order).
        fingerprint: registry entry coordinate (``None`` resolves a
            single-entry compressor).
        canary_fraction: most-recent fraction of the trainable records
            held out for the canary (never trained on).
        canary_margin: fractional improvement the candidate must show.
        oversample: outcome-row replication during the fit.
        n_candidates: candidate seeds fitted; the canary holdout picks
            the best before it faces the incumbent.
        auto_promote: flip the alias when the canary passes; ``False``
            leaves the candidate published-but-unpromoted.
        ctx: a :class:`~repro.runtime.RuntimeContext`; supplies the
            executor the fits run on and the default metrics registry.
        metrics: a :class:`~repro.obs.MetricsRegistry` for the
            ``repro_lifecycle_retrains_total`` /
            ``_promotions_total`` counters (defaults to the context's).

    The attempt runs under a ``lifecycle.retrain`` span (with
    ``lifecycle.fit``/``lifecycle.canary``/``lifecycle.promote``
    children) and lands exactly one
    ``repro_lifecycle_retrains_total{result=...}`` increment:
    ``promoted``, ``held`` (candidate published, canary said no),
    ``skipped`` (nothing trainable) or ``error``.
    """
    if not 0.0 < canary_fraction < 1.0:
        raise InvalidConfiguration("canary_fraction must be in (0, 1)")
    if n_candidates < 1:
        raise InvalidConfiguration("n_candidates must be >= 1")
    if metrics is None and ctx is not None:
        metrics = ctx.registry
    retrains = promotions = None
    if metrics is not None:
        retrains = metrics.counter(
            "repro_lifecycle_retrains_total",
            "completed retrain attempts, by result",
        )
        promotions = metrics.counter(
            "repro_lifecycle_promotions_total",
            "canary promotions (registry alias flips)",
        )
    with obs.span("lifecycle.retrain") as sp:
        try:
            result = _retrain(
                registry,
                compressor,
                fingerprint,
                list(records),
                canary_fraction=canary_fraction,
                canary_margin=canary_margin,
                oversample=oversample,
                n_candidates=n_candidates,
                auto_promote=auto_promote,
                ctx=ctx,
            )
        except Exception:
            if retrains is not None:
                retrains.inc(result="error")
            raise
        if result.promoted is not None:
            outcome = "promoted"
        elif result.candidate is not None:
            outcome = "held"
        else:
            outcome = "skipped"
        sp.set_attributes(result=outcome, reason=result.reason)
    if retrains is not None:
        retrains.inc(result=outcome)
    if promotions is not None and result.promoted is not None:
        promotions.inc()
    return result


def _retrain(
    registry,
    compressor: str,
    fingerprint: str | None,
    records: list,
    *,
    canary_fraction: float,
    canary_margin: float,
    oversample: int,
    n_candidates: int,
    auto_promote: bool,
    ctx,
) -> RetrainResult:
    start = time.perf_counter()
    trainable = [record for record in records if record.trainable]

    def done(reason, candidate=None, report=None, promoted=None,
             train_rows=0, holdout=0) -> RetrainResult:
        return RetrainResult(
            trainable=len(trainable),
            train_rows=train_rows,
            holdout=holdout,
            candidate=candidate,
            report=report,
            promoted=promoted,
            seconds=time.perf_counter() - start,
            reason=reason,
        )

    if len(trainable) < 2:
        return done("not enough measured outcomes to train and canary")
    holdout_n = max(1, int(math.ceil(canary_fraction * len(trainable))))
    holdout_n = min(holdout_n, len(trainable) - 1)
    train_records = trainable[:-holdout_n]
    holdout_records = trainable[-holdout_n:]

    incumbent = registry.resolve(compressor, fingerprint, LATEST)
    base = registry.load(
        incumbent.compressor, incumbent.fingerprint, incumbent.version
    )
    log_scale = base.compressor.config_scale == "log"
    x_outcomes, y_outcomes, used = training_rows_from_outcomes(
        train_records, log_scale=log_scale, oversample=oversample
    )
    if used == 0:
        return done("no outcome rows survived conversion",
                    holdout=len(holdout_records))
    x_base, y_base = base._training.build_training_matrix()
    x = np.vstack((x_base, x_outcomes))
    y = np.concatenate((y_base, y_outcomes))

    seeds = [
        base.config.seed + incumbent.version * 1009 + 17 * k
        for k in range(n_candidates)
    ]
    # One map covers the incumbent's holdout replay and every
    # candidate's fit + replay; with a process executor, all of the
    # GIL-heavy work leaves the calling process.
    tasks = [_SCORE_INCUMBENT, *seeds]
    executor = ctx.executor if ctx is not None else None
    task_context = {
        "compressor": incumbent.compressor,
        "holdout": holdout_records,
        "registry_root": str(registry.root),
        "fingerprint": incumbent.fingerprint,
        "version": incumbent.version,
    }
    with obs.span(
        "lifecycle.fit",
        candidates=n_candidates,
        train_rows=used,
        holdout=len(holdout_records),
    ):
        if executor is not None:
            scored = executor.map(
                _fit_and_score_task,
                tasks,
                shared={"x": x, "y": y},
                context=task_context,
            )
        else:
            scored = [
                _fit_and_score_task(task, {"x": x, "y": y}, task_context)
                for task in tasks
            ]
    incumbent_median = scored[0][1]
    models = [model for model, _ in scored[1:]]
    medians = [median for _, median in scored[1:]]

    # The holdout picks the best candidate seed *before* the
    # incumbent comparison, so one unlucky forest does not sink an
    # otherwise-winning retrain.
    winner = int(np.argmin(medians))
    best = clone_with_model(base, models[winner])

    with obs.span("lifecycle.canary", holdout=len(holdout_records)) as sp:
        published = registry.publish(
            best, incumbent.fingerprint, promote=False
        )
        report = canary_report_from_medians(
            incumbent_median,
            medians[winner],
            len(holdout_records),
            margin=canary_margin,
        )
        sp.set_attributes(
            promote=report.promote,
            incumbent_median=incumbent_median,
            candidate_median=medians[winner],
        )
    promoted = None
    if report.promote and auto_promote:
        with obs.span("lifecycle.promote", version=published.version):
            promoted = registry.promote(
                published.compressor,
                published.fingerprint,
                published.version,
                note=report.reason,
            )
    return done(
        report.reason,
        candidate=published,
        report=report,
        promoted=promoted,
        train_rows=used,
        holdout=len(holdout_records),
    )
