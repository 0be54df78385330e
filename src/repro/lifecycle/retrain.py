"""Background retraining from measured serving outcomes.

A measured outcome is a ground-truth training row: configuration ``c``
really did deliver ratio ``m`` on a dataset with known features, so
``[features..., adjusted_ratio(m, R)] -> c`` is exactly the mapping the
regression model learns — no compressor runs needed to harvest it. The
:class:`BackgroundRetrainer` combines the incumbent's original
training matrix with those rows (oversampled, so a few dozen measured
outcomes are not drowned by hundreds of augmented curve samples), fits
a small pool of candidate forests in worker processes via the
session's :class:`~repro.parallel.ParallelExecutor`, and publishes the
best candidate **unpromoted**. Promotion is the canary's call (see
:mod:`repro.lifecycle.promote`): the alias flips only when the
candidate beats the incumbent on a held-out slice of the outcome log.

The retrain itself runs on a daemon thread (the fit lands in executor
worker processes when the session has one), so the serving path never
blocks on it — the drift detector trips, the retrainer kicks off, and
serving keeps answering with the incumbent until the alias flips.
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro import obs
from repro.compressors import get_compressor
from repro.core.adjustment import adjusted_ratio
from repro.core.pipeline import FXRZ
from repro.core.training import default_model_factory
from repro.errors import InvalidConfiguration, ReproError
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
    queries) happen here, in the worker — the serving process's thread
    only waits on the pipe, so estimate latency stays flat during a
    retrain. ``task`` is a candidate seed, or ``_SCORE_INCUMBENT`` to
    replay the registry's incumbent without fitting anything.

    ``context["nice"]`` (when > 0) drops the worker's scheduling
    priority first — Unix niceness plus, where the platform has it, the
    ``SCHED_IDLE`` class — so on CPU-starved hosts the serving process
    wins every contested time slice and the retrain soaks up idle
    cycles only. The deprioritization sticks to the pooled worker
    process — the retrainer assumes the executor's workers are cheap to
    keep deprioritized (they serve batch work, never a latency path).
    """
    nice = int(context.get("nice", 0))
    if nice > 0:
        try:
            current = os.nice(0)
            if current < nice:
                os.nice(nice - current)
        except OSError:
            pass  # priority is an optimization, never a requirement
        try:
            os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
        except (AttributeError, OSError):
            pass  # idle class is Linux-only; niceness already applied
    seed = int(task)
    if seed == _SCORE_INCUMBENT:
        # Load the incumbent from disk HERE rather than shipping the
        # forest through the task context: pickling a forest is a long
        # GIL-held pause in the serving process.
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
        triggered_by: ``"drift"``, ``"samples"``, or ``"manual"``.
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

    triggered_by: str
    trainable: int
    train_rows: int
    holdout: int
    candidate: object | None
    report: CanaryReport | None
    promoted: object | None
    seconds: float
    reason: str


class BackgroundRetrainer:
    """Drift- or volume-triggered candidate training with canary gating.

    Args:
        registry: the :class:`~repro.serving.ModelRegistry` holding the
            incumbent (and receiving candidates).
        compressor: registry entry coordinate.
        fingerprint: registry entry coordinate (``None`` resolves a
            single-entry compressor).
        detector: a :class:`~repro.lifecycle.drift.DriftDetector`;
            its ``drifting`` state is one of the two triggers.
        min_samples: new trainable outcomes (since the last retrain)
            that trigger a retrain on volume alone.
        canary_fraction: most-recent fraction of the trainable records
            held out for the canary (never trained on).
        canary_margin: fractional improvement the candidate must show.
        oversample: outcome-row replication during the fit.
        n_candidates: candidate seeds fitted per retrain; the canary
            holdout picks the best before it faces the incumbent.
        auto_promote: flip the alias when the canary passes; ``False``
            leaves the candidate published-but-unpromoted.
        nice: scheduling-priority drop applied inside the executor
            workers running the fits (0 disables): Unix niceness, plus
            the ``SCHED_IDLE`` class where the platform supports it.
            On hosts where the serving process and the workers share
            cores, this keeps the retrain out of the serving path's
            time slices.
        ctx: a :class:`~repro.runtime.RuntimeContext`; supplies the
            executor the fits run on and default metric bindings.
        metrics: a :class:`~repro.obs.MetricsRegistry` for the
            ``repro_lifecycle_retrains_total`` /
            ``_promotions_total`` counters (defaults to the context's).
    """

    def __init__(
        self,
        registry,
        compressor: str,
        fingerprint: str | None = None,
        *,
        detector=None,
        min_samples: int = 64,
        canary_fraction: float = 0.25,
        canary_margin: float = 0.0,
        oversample: int = 4,
        n_candidates: int = 2,
        auto_promote: bool = True,
        nice: int = 10,
        ctx=None,
        metrics=None,
    ) -> None:
        if min_samples < 1:
            raise InvalidConfiguration("min_samples must be >= 1")
        if not 0.0 < canary_fraction < 1.0:
            raise InvalidConfiguration("canary_fraction must be in (0, 1)")
        if n_candidates < 1:
            raise InvalidConfiguration("n_candidates must be >= 1")
        if nice < 0:
            raise InvalidConfiguration("nice must be >= 0")
        self.registry = registry
        self.compressor = str(compressor)
        self.fingerprint = fingerprint
        self.detector = detector
        self.min_samples = int(min_samples)
        self.canary_fraction = float(canary_fraction)
        self.canary_margin = float(canary_margin)
        self.oversample = int(oversample)
        self.n_candidates = int(n_candidates)
        self.auto_promote = bool(auto_promote)
        self.nice = int(nice)
        self.ctx = ctx
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None
        self._trained_through = 0
        self.retrains = 0
        self.promotions = 0
        self.last_result: RetrainResult | None = None
        self.last_error: Exception | None = None
        if metrics is None and ctx is not None:
            metrics = ctx.registry
        self._state = "idle"
        self._retrains_counter = None
        self._promotions_counter = None
        self._state_gauge = None
        if metrics is not None:
            self._retrains_counter = metrics.counter(
                "repro_lifecycle_retrains_total",
                "completed retrain attempts, by result",
            )
            self._promotions_counter = metrics.counter(
                "repro_lifecycle_promotions_total",
                "canary promotions (registry alias flips)",
            )
            self._state_gauge = metrics.gauge(
                "repro_lifecycle_retrainer_state",
                "retrainer phase (0 idle, 1 fitting, 2 canary, 3 promoting)",
            )
            self._state_gauge.set(0.0)

    #: Gauge codes of the retrainer phases.
    _STATE_CODES = {"idle": 0.0, "fitting": 1.0, "canary": 2.0,
                    "promoting": 3.0}

    @property
    def state(self) -> str:
        """Current retrainer phase (``idle``/``fitting``/``canary``/
        ``promoting``)."""
        return self._state

    def _set_state(self, state: str) -> None:
        self._state = state
        if self._state_gauge is not None:
            self._state_gauge.set(self._STATE_CODES[state])

    def _count_retrain(self, result: str) -> None:
        if self._retrains_counter is not None:
            self._retrains_counter.inc(result=result)

    # -- triggering ------------------------------------------------------------

    @property
    def busy(self) -> bool:
        with self._lock:
            return self._thread is not None and self._thread.is_alive()

    def maybe_trigger(self, records) -> bool:
        """Start a background retrain if drift tripped or volume crossed.

        ``records`` is the replayed outcome history (append order).
        Returns ``True`` when a retrain thread was started; at most one
        runs at a time.
        """
        records = list(records)
        trainable = sum(1 for record in records if record.trainable)
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                return False
            drifting = self.detector is not None and self.detector.drifting
            fresh = trainable - self._trained_through
            if drifting and trainable > 1:
                trigger = "drift"
            elif fresh >= self.min_samples:
                trigger = "samples"
            else:
                return False
            thread = threading.Thread(
                target=self._run,
                args=(records, trigger),
                daemon=True,
                name="fxrz-retrain",
            )
            self._thread = thread
        thread.start()
        return True

    def wait(self, timeout: float | None = None) -> bool:
        """Join the background retrain; ``True`` when none is running."""
        with self._lock:
            thread = self._thread
        if thread is None:
            return True
        thread.join(timeout=timeout)
        return not thread.is_alive()

    def _run(self, records, trigger: str) -> None:
        try:
            self.last_result = self.retrain(records, triggered_by=trigger)
            self.last_error = None
        except ReproError as exc:
            # A failed retrain must never take the serving process
            # down; the error is kept for inspection and the incumbent
            # keeps serving.
            self.last_error = exc

    # -- the retrain itself ----------------------------------------------------

    def retrain(self, records, *, triggered_by: str = "manual") -> RetrainResult:
        """Fit candidates, publish the best, canary it (synchronous).

        The whole attempt runs under a ``lifecycle.retrain`` span (with
        ``lifecycle.fit``/``lifecycle.canary``/``lifecycle.promote``
        children) and lands exactly one
        ``repro_lifecycle_retrains_total{result=...}`` increment:
        ``promoted``, ``held`` (candidate published, canary said no),
        ``skipped`` (nothing trainable) or ``error``.
        """
        with obs.span("lifecycle.retrain", trigger=triggered_by) as sp:
            try:
                result = self._retrain(records, triggered_by=triggered_by)
            except Exception:
                self._count_retrain("error")
                raise
            finally:
                self._set_state("idle")
            if result.promoted is not None:
                outcome = "promoted"
            elif result.candidate is not None:
                outcome = "held"
            else:
                outcome = "skipped"
            sp.set_attributes(result=outcome, reason=result.reason)
        self._count_retrain(outcome)
        return result

    def _retrain(self, records, *, triggered_by: str) -> RetrainResult:
        start = time.perf_counter()
        records = list(records)
        trainable = [record for record in records if record.trainable]
        with self._lock:
            self._trained_through = len(trainable)
        self.retrains += 1

        def done(reason, candidate=None, report=None, promoted=None,
                 train_rows=0, holdout=0) -> RetrainResult:
            return RetrainResult(
                triggered_by=triggered_by,
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
        self._set_state("fitting")
        holdout_n = max(1, int(math.ceil(self.canary_fraction * len(trainable))))
        holdout_n = min(holdout_n, len(trainable) - 1)
        train_records = trainable[:-holdout_n]
        holdout_records = trainable[-holdout_n:]

        incumbent = self.registry.resolve(
            self.compressor, self.fingerprint, LATEST
        )
        base = self.registry.load(
            incumbent.compressor, incumbent.fingerprint, incumbent.version
        )
        log_scale = base.compressor.config_scale == "log"
        x_outcomes, y_outcomes, used = training_rows_from_outcomes(
            train_records, log_scale=log_scale, oversample=self.oversample
        )
        if used == 0:
            return done("no outcome rows survived conversion",
                        holdout=len(holdout_records))
        x_base, y_base = base._training.build_training_matrix()
        x = np.vstack((x_base, x_outcomes))
        y = np.concatenate((y_base, y_outcomes))

        seeds = [
            base.config.seed + incumbent.version * 1009 + 17 * k
            for k in range(self.n_candidates)
        ]
        # One map covers the incumbent's holdout replay and every
        # candidate's fit + replay; with a process executor, all of the
        # GIL-heavy work leaves the serving process.
        tasks = [_SCORE_INCUMBENT, *seeds]
        executor = self.ctx.executor if self.ctx is not None else None
        task_context = {
            "compressor": incumbent.compressor,
            "holdout": holdout_records,
            "registry_root": str(self.registry.root),
            "fingerprint": incumbent.fingerprint,
            "version": incumbent.version,
            # Inline/thread fits run in this very process; renicing it
            # would slow serving itself. Only process workers drop.
            "nice": (
                self.nice
                if getattr(executor, "backend", "") == "process"
                else 0
            ),
        }
        with obs.span(
            "lifecycle.fit",
            candidates=self.n_candidates,
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

        self._set_state("canary")
        with obs.span("lifecycle.canary", holdout=len(holdout_records)) as sp:
            published = self.registry.publish(
                best, incumbent.fingerprint, promote=False
            )
            report = canary_report_from_medians(
                incumbent_median,
                medians[winner],
                len(holdout_records),
                margin=self.canary_margin,
            )
            sp.set_attributes(
                promote=report.promote,
                incumbent_median=incumbent_median,
                candidate_median=medians[winner],
            )
        promoted = None
        if report.promote and self.auto_promote:
            self._set_state("promoting")
            with obs.span(
                "lifecycle.promote", version=published.version
            ):
                promoted = self.registry.promote(
                    published.compressor,
                    published.fingerprint,
                    published.version,
                    note=report.reason,
                )
            self.promotions += 1
            if self._promotions_counter is not None:
                self._promotions_counter.inc()
        if self.detector is not None:
            # Either way the window must refill before the next trip:
            # it described the pre-retrain model's calibration.
            self.detector.reset()
        return done(
            report.reason,
            candidate=published,
            report=report,
            promoted=promoted,
            train_rows=used,
            holdout=len(holdout_records),
        )
