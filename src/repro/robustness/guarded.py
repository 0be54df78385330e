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

Every answer records which tier produced it and why, so a 4,096-rank
dump can log *how* each rank chose its configuration.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.baselines.fraz import FRaZ
from repro.core.adjustment import adjusted_ratio, nonconstant_fraction
from repro.core.features import extract_features
from repro.core.inference import Estimate
from repro.core.objective import (
    Objective,
    QualityModel,
    RatioTarget,
    as_objective,
)
from repro.errors import (
    FallbackExhaustedError,
    InvalidConfiguration,
    NotFittedError,
    OutOfDistributionError,
    ReproError,
)
from repro.robustness.confidence import FeatureEnvelope, score_confidence
from repro.robustness.validation import validate_field

#: Ladder tiers each ``fallback`` setting may use, in order.
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


def _usable(config: float) -> bool:
    return math.isfinite(config) and config > 0.0


@dataclass(frozen=True)
class GuardedAnalysis:
    """Target-independent half of one guarded inference.

    Like :class:`~repro.core.inference.DatasetAnalysis` but carrying the
    validation report too (the FRaZ rung must compress the *patched*
    field, and field issues discount the model's confidence). A serving
    layer caches this per dataset and reuses it across targets.
    """

    report: object  # FieldReport
    features: np.ndarray
    nonconstant: float
    seconds: float


class GuardedInferenceEngine:
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
        quality_probes: compressor-run budget of the quality probe rung.
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
        if not pipeline.is_fitted:
            raise NotFittedError("guarded inference needs a fitted pipeline")
        self.pipeline = pipeline
        self.ctx = ctx
        self.outcome_log = outcome_log
        self.fallback = fallback
        self.min_confidence = min_confidence
        self.fraz_iterations = fraz_iterations
        self.quality = quality_model or QualityModel()
        self.quality_probes = int(quality_probes)
        self.memo = (
            ctx.memo if ctx is not None else getattr(pipeline, "memo", None)
        )
        self.executor = ctx.executor if ctx is not None else None
        self.compressor = pipeline.compressor
        self.config = pipeline.config
        self.model = pipeline.model
        self._records = list(pipeline._training.records)
        self.envelope = FeatureEnvelope(
            self._envelope_rows(), margin=envelope_margin
        )

    def _envelope_rows(self) -> np.ndarray:
        """Training envelope corners: each record at its ACR extremes.

        The augmented training rows for one record share its feature
        vector and sweep ACR over the curve's anchored ratio range, so
        the two extreme rows per record span the exact axis-aligned box
        the model was fitted in.
        """
        rows = []
        for rec in self._records:
            lo, hi = rec.curve.ratio_range
            lo = max(lo, 1.0)
            hi = max(hi, lo)
            for ratio in (lo, hi):
                acr = adjusted_ratio(float(ratio), rec.nonconstant)
                rows.append(np.concatenate((rec.features, [acr])))
        return np.vstack(rows)

    # -- ladder rungs ----------------------------------------------------------

    def _model_config(self, features: np.ndarray, acr: float) -> float:
        """The plain engine's prediction (range-rescaled, normalized)."""
        row = np.concatenate((features, [acr]))[None, :]
        raw = float(self.model.predict(row)[0])
        if self.compressor.config_scale == "log":
            raw = 10.0**raw * max(float(features[0]), 1e-30)
        return float(self.compressor.normalize_config(raw))

    def _curve_config(self, features: np.ndarray, acr: float) -> float | None:
        """Nearest training curve, inverted at ``acr``; None if outside."""
        span = self.envelope.span[: features.size]
        best = min(
            self._records,
            key=lambda rec: float(
                np.sum(((rec.features - features) / span) ** 2)
            ),
        )
        lo, hi = best.curve.ratio_range
        lo, hi = min(lo, hi), max(lo, hi)
        if not (lo / (1.0 + _CURVE_SLACK) <= acr <= hi * (1.0 + _CURVE_SLACK)):
            return None
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
        try:
            config = float(self.compressor.normalize_config(config))
        except InvalidConfiguration:
            return None
        return config if _usable(config) else None

    def _fraz_config(self, data: np.ndarray, target_ratio: float):
        # Hand over the already-resolved resources directly: routing
        # them back through the constructor keywords would trip the
        # deprecation shims the caller never used. Returns the full
        # search result — this rung ran the real compressor, so its
        # measured ratio is ground truth worth logging.
        searcher = FRaZ(self.compressor, max_iterations=self.fraz_iterations)
        searcher.ctx = self.ctx
        searcher.executor = self.executor
        searcher.memo = self.memo
        return searcher.search(data, target_ratio)

    # -- public API ------------------------------------------------------------

    def analyze(self, data: np.ndarray) -> GuardedAnalysis:
        """Validate ``data`` and run the target-independent analysis once."""
        with obs.span("guarded.analyze") as span:
            start = time.perf_counter()
            with obs.span("guarded.validate"):
                report = validate_field(data)
            span.set_attribute("issues", len(report.issues))
            features = extract_features(
                report.data, stride=self.config.sampling_stride
            ).selected()
            if self.config.use_adjustment:
                # Named like the plain engine's phase so obs-report
                # aggregates the adjustment cost across both paths.
                with obs.span(
                    "inference.adjustment",
                    block_size=int(self.config.block_size),
                ):
                    nonconstant = nonconstant_fraction(
                        report.data,
                        block_size=self.config.block_size,
                        lam=self.config.lam,
                    )
            else:
                nonconstant = 1.0
            return GuardedAnalysis(
                report=report,
                features=features,
                nonconstant=nonconstant,
                seconds=time.perf_counter() - start,
            )

    def estimate(
        self,
        data: np.ndarray,
        target_ratio: float | None = None,
        analysis: GuardedAnalysis | None = None,
        *,
        dataset_key: str = "",
        objective: Objective | float | str | None = None,
    ) -> Estimate:
        """Guarded version of :meth:`InferenceEngine.estimate`.

        Never returns a NaN/Inf/non-positive configuration: low-
        confidence model answers fall through the ladder, and if every
        permitted rung fails, :class:`FallbackExhaustedError` (or
        :class:`OutOfDistributionError` for ``fallback="none"``) is
        raised instead of a bad number. Quality objectives walk their
        own ladder (analytic prior, then measured probes — see
        ``_QUALITY_LADDERS``).

        ``analysis`` accepts a cached :meth:`analyze` result for
        ``data``, skipping the validation/feature/block passes.
        ``dataset_key`` labels the outcome-log record when this engine
        carries an :class:`~repro.lifecycle.OutcomeLog`. ``objective``
        (an :class:`~repro.core.objective.Objective`, canonical string
        or bare ratio) is mutually exclusive with ``target_ratio``.
        """
        if objective is not None:
            if target_ratio is not None:
                raise InvalidConfiguration(
                    "pass either target_ratio or objective, not both"
                )
            resolved = as_objective(objective)
        else:
            if target_ratio is None:
                raise InvalidConfiguration(
                    "an estimate needs a target_ratio or an objective"
                )
            try:
                target_ratio = float(target_ratio)
            except (TypeError, ValueError) as exc:
                raise InvalidConfiguration(
                    f"target ratio must be a number: {exc}"
                ) from exc
            if not math.isfinite(target_ratio) or target_ratio <= 0:
                raise InvalidConfiguration(
                    "target ratio must be finite and > 0"
                )
            resolved = RatioTarget(target_ratio)

        if isinstance(resolved, RatioTarget):
            span_attrs = {"target_ratio": resolved.tcr}
        else:
            span_attrs = {"objective": resolved.canonical}
        with obs.span("guarded.estimate", **span_attrs) as span:
            try:
                if isinstance(resolved, RatioTarget):
                    estimate, measured_ratio = self._estimate_body(
                        data, resolved.tcr, analysis
                    )
                    measured_psnr = None
                else:
                    estimate, measured_psnr = self._estimate_quality_body(
                        data, resolved, analysis
                    )
                    measured_ratio = None
            except (OutOfDistributionError, FallbackExhaustedError):
                registry = obs.get_registry()
                if registry is not None:
                    registry.counter(
                        "repro_guarded_exhausted_total",
                        "guarded estimates whose ladder exhausted",
                    ).inc()
                raise
            span.set_attributes(
                tier=estimate.tier,
                confidence=estimate.confidence,
                config=estimate.config,
            )
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
            try:
                self.outcome_log.record_estimate(
                    estimate,
                    dataset_key=dataset_key,
                    compressor=self.compressor.name,
                    measured_ratio=measured_ratio,
                    measured_psnr=measured_psnr,
                    source="guarded",
                )
            except OSError:
                pass  # a full disk must not fail the estimate
        return estimate

    def _estimate_quality_body(
        self,
        data: np.ndarray,
        objective: Objective,
        analysis: GuardedAnalysis | None,
    ) -> tuple[Estimate, float | None]:
        """Walk the quality ladder: analytic prior, then measured probes."""
        start = time.perf_counter()
        if analysis is None:
            analysis = self.analyze(data)
        report = analysis.report
        confidence = 0.25 if report.issues else 1.0

        config: float | None = None
        tier = ""
        fallback_reason = ""
        measured: float | None = None
        for rung in _QUALITY_LADDERS[self.fallback]:
            with obs.span(
                "guarded.tier", tier=rung, accepted=False
            ) as rung_span:
                if rung == "analytic":
                    # The closed form is only trustworthy without
                    # measurement when the field is clean and the model
                    # is calibrated (or the quantizer it is exact for).
                    if report.issues:
                        fallback_reason = (
                            "field issues: " + ",".join(report.issues)
                        )
                        continue
                    if not self.quality.trusts(self.compressor):
                        fallback_reason = (
                            f"analytic prior uncalibrated for "
                            f"{self.compressor.name!r}"
                        )
                        continue
                    try:
                        lo, hi = self.compressor.config_domain(report.data)
                        candidate = float(
                            np.clip(
                                self.quality.analytic_config(
                                    report.data, objective
                                ),
                                lo,
                                hi,
                            )
                        )
                    except ReproError as exc:
                        fallback_reason = f"analytic prior failed: {exc}"
                        continue
                    if not _usable(candidate):
                        fallback_reason = (
                            f"analytic prior produced unusable config "
                            f"{candidate!r}"
                        )
                        continue
                    config, tier = candidate, "analytic"
                    rung_span.set_attribute("accepted", True)
                    break
                if rung == "probe":
                    # Terminal rung: measured refinement on the patched
                    # field — the quality analogue of the FRaZ rung.
                    try:
                        result = self.quality.refine(
                            self.compressor,
                            report.data,
                            objective,
                            probes=max(self.quality_probes, 1),
                            ctx=self.ctx,
                        )
                        candidate = float(result.config)
                    except ReproError as exc:
                        fallback_reason += f"; probe refinement failed: {exc}"
                        continue
                    if not _usable(candidate):
                        fallback_reason += (
                            f"; probe refinement produced unusable config "
                            f"{candidate!r}"
                        )
                        continue
                    config, tier = candidate, "probe"
                    measured = result.measured
                    rung_span.set_attribute("accepted", True)
                    break

        if config is None:
            detail = fallback_reason.lstrip("; ") or "no tier produced a config"
            if self.fallback == "none":
                raise OutOfDistributionError(
                    f"analytic tier rejected and fallbacks disabled: {detail}"
                )
            raise FallbackExhaustedError(
                f"quality ladder exhausted ({self.fallback}): {detail}"
            )

        if objective.kind != "psnr":
            # The outcome log's measured-quality column is PSNR-denominated;
            # an SSIM probe measurement would be apples to oranges there.
            measured = None

        estimate = Estimate(
            config=config,
            target_ratio=0.0,
            adjusted_target=0.0,
            nonconstant=analysis.nonconstant,
            features=analysis.features,
            analysis_seconds=time.perf_counter() - start,
            tier=tier,
            confidence=confidence,
            fallback_reason=fallback_reason.lstrip("; "),
            objective=objective,
        )
        return estimate, measured

    def _estimate_body(
        self,
        data: np.ndarray,
        target_ratio: float,
        analysis: GuardedAnalysis | None,
    ) -> tuple[Estimate, float | None]:
        start = time.perf_counter()
        if analysis is None:
            analysis = self.analyze(data)
        report = analysis.report
        features = analysis.features
        nonconstant = analysis.nonconstant
        acr = adjusted_ratio(float(target_ratio), nonconstant)

        with obs.span("guarded.confidence") as conf_span:
            confidence_report = score_confidence(
                self.model, self.envelope, np.concatenate((features, [acr]))
            )
            conf_span.set_attribute("score", confidence_report.score)
        confidence = confidence_report.score
        if report.issues:
            # A patched or degenerate field is evidence the model never
            # saw data like this, independent of where the features land.
            confidence = min(confidence, 0.25)

        reasons: list[str] = []
        if report.issues:
            reasons.append("field issues: " + ",".join(report.issues))
        if confidence_report.envelope_violation > 0.0:
            reasons.append(
                f"outside training envelope by "
                f"{confidence_report.envelope_violation:.2f} spans"
            )
        if not math.isnan(confidence_report.tree_std):
            reasons.append(f"tree spread {confidence_report.tree_std:.3f}")

        config: float | None = None
        tier = ""
        fallback_reason = ""
        measured_ratio: float | None = None
        for rung in _LADDERS[self.fallback]:
            with obs.span(
                "guarded.tier", tier=rung, accepted=False
            ) as rung_span:
                if rung == "model":
                    if confidence < self.min_confidence:
                        fallback_reason = (
                            f"model confidence {confidence:.2f} < "
                            f"{self.min_confidence:.2f} ({'; '.join(reasons)})"
                        )
                        continue
                    try:
                        candidate = self._model_config(features, acr)
                    except InvalidConfiguration as exc:
                        fallback_reason = f"model produced unusable config ({exc})"
                        continue
                    if not _usable(candidate):
                        fallback_reason = (
                            f"model produced unusable config {candidate!r}"
                        )
                        continue
                    config, tier = candidate, "model"
                    rung_span.set_attribute("accepted", True)
                    break
                if rung == "curve":
                    candidate = self._curve_config(features, acr)
                    if candidate is None:
                        fallback_reason += (
                            "; target outside every training curve's range"
                        )
                        continue
                    config, tier = candidate, "curve"
                    rung_span.set_attribute("accepted", True)
                    break
                if rung == "fraz":
                    try:
                        search = self._fraz_config(
                            report.data, float(target_ratio)
                        )
                        candidate = float(search.config)
                    except ReproError as exc:
                        fallback_reason += f"; FRaZ search failed: {exc}"
                        continue
                    if not _usable(candidate):
                        fallback_reason += (
                            f"; FRaZ produced unusable config {candidate!r}"
                        )
                        continue
                    config, tier = candidate, "fraz"
                    measured_ratio = float(search.measured_ratio)
                    rung_span.set_attribute("accepted", True)
                    break

        if config is None:
            detail = fallback_reason.lstrip("; ") or "no tier produced a config"
            if self.fallback == "none":
                raise OutOfDistributionError(
                    f"model tier rejected and fallbacks disabled: {detail}"
                )
            raise FallbackExhaustedError(
                f"degradation ladder exhausted ({self.fallback}): {detail}"
            )

        elapsed = time.perf_counter() - start
        estimate = Estimate(
            config=config,
            target_ratio=float(target_ratio),
            adjusted_target=acr,
            nonconstant=nonconstant,
            features=features,
            analysis_seconds=elapsed,
            tier=tier,
            confidence=confidence,
            fallback_reason=fallback_reason.lstrip("; "),
        )
        return estimate, measured_ratio
