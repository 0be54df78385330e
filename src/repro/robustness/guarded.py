"""Guarded inference: validate, score confidence, degrade gracefully.

The ladder, from cheapest to most expensive:

1. **model** — the regression forest, accepted only when the input
   passes validation and the confidence score (per-tree spread x
   training-feature envelope) clears ``min_confidence``.
2. **curve** — interpolate the training curve of the nearest training
   dataset (the same curves augmentation built, read backwards). Costs
   nothing extra and cannot return a wild extrapolation, but only
   answers targets inside the anchored ratio range.
3. **fraz** — a bounded FRaZ search (Underwood et al., IPDPS'20): runs
   the actual compressor a handful of times. Slow, but correct by
   construction — the terminal rung of the ladder.

Quality objectives walk the analytic prior, then measured probes. The
walk itself is :class:`~repro.core.inference.InferenceEngine`'s; this
module adds the validation, the confidence gate and the fallback rungs.
Every answer records which tier produced it and why, so a 4,096-rank
dump can log *how* each rank chose its configuration.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.baselines.fraz import FRaZ
# Kept only for the perfbench layer trace, which patches both names here.
from repro.core.adjustment import nonconstant_fraction  # noqa: F401
from repro.core.features import extract_features  # noqa: F401
from repro.core.inference import InferenceEngine, Query
from repro.core.objective import QualityModel, RatioTarget
from repro.errors import (
    FallbackExhaustedError,
    InvalidConfiguration,
    OutOfDistributionError,
)
from repro.robustness.confidence import FeatureEnvelope, score_confidence
from repro.robustness.validation import validate_field

#: Ratio-ladder rungs each ``fallback`` setting may use, in order.
_LADDERS = {
    "none": ("model",),
    "curve": ("model", "curve"),
    "fraz": ("model", "curve", "fraz"),
}

#: Quality objectives use their own two-rung ladder: the analytic prior
#: (compression-free, trusted only for calibrated models or the
#: SZ-style quantizer it is exact for), then measured probe refinement
#: — the quality analogue of the FRaZ rung. ``fallback="none"`` forbids
#: running the compressor, exactly as it forbids the FRaZ rung.
_QUALITY_LADDERS = {
    "none": ("analytic",),
    "curve": ("analytic", "probe"),
    "fraz": ("analytic", "probe"),
}

#: How far (fractionally) outside a curve's anchored ratio range the
#: curve tier will still answer by clamping.
_CURVE_SLACK = 0.25


class GuardedInferenceEngine(InferenceEngine):
    """Drop-in, hardened replacement for the plain inference path.

    Args:
        pipeline: a fitted :class:`~repro.core.pipeline.FXRZ`.
        fallback: terminal rung of the ladder — ``"none"`` (model only;
            raises :class:`OutOfDistributionError` on low confidence),
            ``"curve"``, or ``"fraz"`` (always answers). ``None``
            defers to the runtime context's policy ("fraz" without
            one).
        min_confidence: model-tier acceptance threshold in [0, 1];
            ``None`` defers to the context's policy (0.5 without one).
        envelope_margin: fractional margin of the training envelope.
        fraz_iterations: compressor-run budget of the FRaZ rung.
        ctx: a :class:`~repro.runtime.RuntimeContext` supplying the
            fallback policy plus the memo/executor of the FRaZ rung;
            defaults to the pipeline's own context.
        outcome_log: a :class:`~repro.lifecycle.OutcomeLog`; when given,
            every estimate is recorded (source ``"guarded"``, with the
            FRaZ rung's measured ratio when that rung answered). Only
            an explicit log is used — never the context's — so layered
            callers (services, shards) that record at their own level
            do not double-log.
        quality_model: the :class:`~repro.core.objective.QualityModel`
            answering PSNR/SSIM objectives; an uncalibrated analytic
            prior when not given.
        quality_probes: compressor-run budget of the quality probe rung
            (at least one: the rung always measures).
    """

    def __init__(
        self,
        pipeline,
        fallback: str | None = None,
        min_confidence: float | None = None,
        envelope_margin: float = 0.05,
        fraz_iterations: int = 6,
        *,
        ctx=None,
        outcome_log=None,
        quality_model: QualityModel | None = None,
        quality_probes: int = 2,
    ) -> None:
        if ctx is None:
            ctx = getattr(pipeline, "ctx", None)
        if fallback is None:
            fallback = ctx.config.fallback if ctx is not None else "fraz"
        if min_confidence is None:
            min_confidence = ctx.config.min_confidence if ctx is not None else 0.5
        if fallback not in _LADDERS:
            raise InvalidConfiguration(
                f"fallback must be one of {sorted(_LADDERS)}, got {fallback!r}"
            )
        if not 0.0 <= min_confidence <= 1.0:
            raise InvalidConfiguration("min_confidence must be in [0, 1]")
        self.envelope = FeatureEnvelope.for_pipeline(
            pipeline, margin=envelope_margin
        )
        super().__init__(
            pipeline.model,
            pipeline.compressor,
            pipeline.config,
            ctx=ctx,
            quality=quality_model,
            quality_probes=max(int(quality_probes), 1),
        )
        self.outcome_log = outcome_log
        self.fallback = fallback
        self.min_confidence = min_confidence
        self.fraz_iterations = fraz_iterations
        self.ratio_ladder = _LADDERS[fallback]
        self.quality_ladder = _QUALITY_LADDERS[fallback]
        self._records = list(pipeline._training.records)

    def estimate(
        self,
        data: np.ndarray,
        target_ratio: float | None = None,
        analysis=None,
        *,
        dataset_key: str = "",
        objective=None,
    ):
        """Guarded version of :meth:`InferenceEngine.estimate`.

        Never returns a NaN/Inf/non-positive configuration: low-
        confidence model answers fall through the ladder, and if every
        permitted rung fails, :class:`FallbackExhaustedError` (or
        :class:`OutOfDistributionError` for ``fallback="none"``) is
        raised instead of a bad number.

        ``analysis`` accepts a cached :meth:`analyze` result for
        ``data``; one without a validation report (a plain engine's) is
        recomputed, so the ladder never sees an unvalidated field.
        ``dataset_key`` labels the outcome-log record.
        """
        if analysis is not None and analysis.report is None:
            analysis = None
        try:
            estimate, measured = self._estimate(
                data, target_ratio, analysis, objective
            )
        except (OutOfDistributionError, FallbackExhaustedError):
            registry = obs.get_registry()
            if registry is not None:
                registry.counter(
                    "repro_guarded_exhausted_total",
                    "guarded estimates whose ladder exhausted",
                ).inc()
            raise
        registry = obs.get_registry()
        if registry is not None:
            registry.counter(
                "repro_guarded_tier_total", "guarded answers by tier"
            ).inc(tier=estimate.tier)
            if estimate.tier != "model":
                registry.counter(
                    "repro_guarded_fallbacks_total",
                    "guarded answers produced by a fallback tier",
                ).inc()
        if self.outcome_log is not None:
            ratio = isinstance(estimate.objective, RatioTarget)
            try:
                self.outcome_log.record_estimate(
                    estimate,
                    dataset_key=dataset_key,
                    compressor=self.compressor.name,
                    measured_ratio=measured if ratio else None,
                    measured_psnr=None if ratio else measured,
                    source="guarded",
                )
            except OSError:
                pass  # a full disk must not fail the estimate
        return estimate

    # -- hooks ---------------------------------------------------------------

    def _validate(self, data: np.ndarray):
        with obs.span("inference.validate"):
            return validate_field(data)

    def _confidence(self, analysis, objective, acr) -> tuple[float, str]:
        issues = analysis.report.issues
        doubts = ["field issues: " + ",".join(issues)] if issues else []
        confidence = 1.0
        if isinstance(objective, RatioTarget):
            with obs.span("inference.confidence") as span:
                report = score_confidence(
                    self.model,
                    self.envelope,
                    np.concatenate((analysis.features, [acr])),
                )
                span.set_attribute("score", report.score)
            confidence = report.score
            if report.envelope_violation > 0.0:
                doubts.append(
                    f"outside training envelope by "
                    f"{report.envelope_violation:.2f} spans"
                )
            if not math.isnan(report.tree_std):
                doubts.append(f"tree spread {report.tree_std:.3f}")
        if issues:
            # A patched or degenerate field is evidence the model never
            # saw data like this, independent of where the features land.
            confidence = min(confidence, 0.25)
        return confidence, "; ".join(doubts)

    def _exhausted(self, reasons, error):
        detail = "; ".join(reasons)
        if self.fallback == "none":
            return OutOfDistributionError(f"fallbacks disabled: {detail}")
        return FallbackExhaustedError(
            f"degradation ladder exhausted ({self.fallback}): {detail}"
        )

    # -- rungs ---------------------------------------------------------------

    def _model(self, query: Query):
        if query.confidence < self.min_confidence:
            raise OutOfDistributionError(
                f"confidence {query.confidence:.2f} < "
                f"{self.min_confidence:.2f} ({query.doubts})"
            )
        return super()._model(query)

    def _curve(self, query: Query):
        """Nearest training curve, inverted at the adjusted target."""
        features, acr = query.analysis.features, query.acr
        span = self.envelope.span[: features.size]
        best = min(
            self._records,
            key=lambda rec: float(
                np.sum(((rec.features - features) / span) ** 2)
            ),
        )
        lo, hi = sorted(best.curve.ratio_range)
        if not (lo / (1.0 + _CURVE_SLACK) <= acr <= hi * (1.0 + _CURVE_SLACK)):
            raise InvalidConfiguration(
                "target outside every training curve's range"
            )
        config = best.curve.config_for_ratio(float(np.clip(acr, lo, hi)))
        query_range = float(features[0])
        train_range = float(best.features[0])
        if (
            self.compressor.config_scale == "log"
            and query_range > 0.0
            and train_range > 0.0
        ):
            # Absolute error bounds scale with the data's amplitude;
            # transfer the curve's bound range-normalized, exactly as
            # the model is trained (see TrainingEngine). A degenerate
            # (zero) range on either side makes the ratio meaningless,
            # so the bound transfers unscaled instead.
            config *= query_range / train_range
        return self.compressor.normalize_config(config), "curve", None

    def _fraz(self, query: Query):
        # The search ran the real compressor on the patched field, so
        # its measured ratio is ground truth worth logging.
        search = FRaZ(
            self.compressor, max_iterations=self.fraz_iterations, ctx=self.ctx
        ).search(query.data, query.objective.tcr)
        return float(search.config), "fraz", float(search.measured_ratio)

    def _analytic(self, query: Query):
        # The closed form is only trustworthy without measurement when
        # the field is clean and the model is calibrated (or the
        # quantizer it is exact for).
        if query.analysis.report.issues:
            raise InvalidConfiguration(query.doubts)
        if not self.quality.trusts(self.compressor):
            raise InvalidConfiguration(
                f"prior uncalibrated for {self.compressor.name!r}"
            )
        lo, hi = self.compressor.config_domain(query.data)
        prior = self.quality.analytic_config(query.data, query.objective)
        return float(np.clip(prior, lo, hi)), "analytic", None

