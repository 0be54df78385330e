"""FXRZ inference engine (paper Fig. 1, steps 9-10).

Given a runtime dataset and an estimation objective, the engine
extracts the same sampled features as training and answers with an
error configuration. Ratio objectives (the paper's TCR) go through the
regression model — compression-free, with the target adjusted by the
non-constant block fraction (CA); quality objectives (PSNR/SSIM, see
:mod:`repro.core.objective`) go through probe refinement, with the
closed forms of :mod:`repro.core.psnr_control` as the analytic prior.
The recorded ``analysis_seconds`` is what Table VIII compares against
FRaZ's iterative search cost.

An estimate walks a ladder of rungs, cheapest first; the first rung
that yields a usable configuration answers, and names the estimate's
``tier``. The plain engine's ladders have one rung each (the model for
ratios, probe refinement for quality targets), so a failing rung raises
its own error. :class:`~repro.robustness.guarded.GuardedInferenceEngine`
walks the same way with validation, a confidence gate on the model rung
and fallback rungs that end in a FRaZ search.

The per-dataset half of that work (validation, feature extraction,
block classification) is independent of the target, so it is split out
as :meth:`InferenceEngine.analyze`: a serving layer can run it once per
dataset and answer many targets from the cached
:class:`DatasetAnalysis` (see :mod:`repro.serving`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro import obs
from repro.compressors.base import Compressor
from repro.config import FXRZConfig
from repro.core.adjustment import adjusted_ratio, nonconstant_fraction
from repro.core.features import extract_features
from repro.core.objective import (
    Objective,
    ParetoFrontier,
    RatioTarget,
    as_objective,
    build_frontier,
    refine,
)
from repro.errors import InvalidConfiguration, ReproError

if TYPE_CHECKING:
    from repro.robustness.validation import FieldReport


def _frozen_array(values: np.ndarray) -> np.ndarray:
    """A read-only float64 copy (or the input, if already locked)."""
    array = np.asarray(values, dtype=np.float64)
    if array.flags.writeable:
        array = array.copy()
        array.flags.writeable = False
    return array


def _field(data, report: FieldReport) -> np.ndarray:
    """The array the rungs work on: the caller's own, or its patched copy."""
    return np.asarray(data) if report.data is None else report.data


@dataclass(frozen=True)
class DatasetAnalysis:
    """The target-independent half of one inference: what the dataset *is*.

    Attributes:
        features: the five adopted model-input features (read-only).
        nonconstant: the non-constant block fraction R (1.0 when CA is
            disabled).
        seconds: wall time spent computing this analysis.
        report: the field's validation report; ``None`` from an engine
            that does not validate (the guarded engine re-analyzes such
            a field). It holds no array of a clean field, so a cached
            analysis never keeps the caller's field alive.
    """

    features: np.ndarray
    nonconstant: float
    seconds: float
    report: FieldReport | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", _frozen_array(self.features))


@dataclass(frozen=True, eq=False)
class Estimate:
    """One inference outcome.

    Attributes:
        config: the estimated error configuration (ready to pass to
            ``compressor.compress``).
        target_ratio: the requested TCR for ratio objectives, ``0.0``
            for quality objectives. Deprecated as an input — read
            ``objective`` instead; this stays a real field so existing
            constructors, pickles and ``replace()`` calls keep working.
        adjusted_target: ACR fed to the model (TCR when CA is off;
            ``0.0`` for quality objectives, which bypass the model).
        nonconstant: the measured non-constant block fraction R.
        features: the five model-input features (stored read-only, so a
            frozen ``Estimate`` cannot be mutated through its array).
        analysis_seconds: end-to-end inference wall time.
        tier: the ladder rung that produced ``config`` — ``"model"``
            for the regression path, ``"curve"`` / ``"fraz"`` when
            guarded inference degraded to a fallback, ``"analytic"`` /
            ``"probe"`` for the quality rungs.
        confidence: the guarded engine's confidence in the *model* tier
            for this input (1.0 for the unguarded engine).
        fallback_reason: why each rung above ``tier`` declined (empty
            when the first rung answered).
        trace_id: the distributed-trace id this estimate was served
            under (0 when untraced). Excluded from equality — two
            estimates from different requests must still compare equal
            when the numbers agree (shard-vs-sequential parity).
        objective: the estimation target this estimate answers. ``None``
            in the constructor is normalized to
            ``RatioTarget(target_ratio)`` so pre-objective call sites
            produce fully-formed estimates.
    """

    config: float
    target_ratio: float
    adjusted_target: float
    nonconstant: float
    features: np.ndarray
    analysis_seconds: float
    tier: str = "model"
    confidence: float = 1.0
    fallback_reason: str = ""
    trace_id: int = 0
    objective: Objective | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", _frozen_array(self.features))
        if self.objective is None and self.target_ratio > 0:
            object.__setattr__(
                self, "objective", RatioTarget(self.target_ratio)
            )

    def __eq__(self, other: object) -> bool:
        # The generated dataclass __eq__ compares the features arrays
        # elementwise and raises on the ambiguous truth value; compare
        # them properly instead.
        if not isinstance(other, Estimate):
            return NotImplemented
        return (
            self.config == other.config
            and self.target_ratio == other.target_ratio
            and self.adjusted_target == other.adjusted_target
            and self.nonconstant == other.nonconstant
            and self.analysis_seconds == other.analysis_seconds
            and self.tier == other.tier
            and self.confidence == other.confidence
            and self.fallback_reason == other.fallback_reason
            and self.objective == other.objective
            and np.array_equal(self.features, other.features)
        )


class Query(NamedTuple):
    """One request as the ladder's rungs see it.

    ``data`` is the field the rungs compress: the caller's own array,
    or its patched copy when validation replaced non-finite values.
    ``acr`` is 0.0 for quality objectives; ``doubts`` says why
    ``confidence`` is below 1. ``prediction`` is the model's raw answer
    at ``acr`` when the confidence step already asked the model for it
    (the guarded forest's per-tree mean), else ``None``.
    """

    data: np.ndarray
    objective: Objective
    analysis: DatasetAnalysis
    acr: float
    confidence: float
    doubts: str
    prediction: float | None = None


def model_config(
    model, compressor: Compressor, features: np.ndarray, acr: float
) -> float:
    """The model's raw (not yet normalized) configuration at ``acr``."""
    row = np.concatenate((features, [acr]))[None, :]
    return predicted_config(compressor, features, float(model.predict(row)[0]))


def predicted_config(
    compressor: Compressor, features: np.ndarray, raw: float
) -> float:
    """The raw configuration a model prediction ``raw`` stands for."""
    if compressor.config_scale == "log":
        # The model predicts the range-normalized bound; rescale by
        # this dataset's own sampled value range.
        raw = 10.0**raw * max(float(features[0]), 1e-30)
    return raw


def resolve_objective(target_ratio, objective) -> Objective:
    """The one objective of an ``estimate(target_ratio, objective=)`` call."""
    if objective is not None:
        if target_ratio is not None:
            raise InvalidConfiguration(
                "pass either target_ratio or objective, not both"
            )
        return as_objective(objective)
    if target_ratio is None:
        raise InvalidConfiguration(
            "an estimate needs a target_ratio or an objective"
        )
    try:
        return RatioTarget(float(target_ratio))
    except (TypeError, ValueError) as exc:
        raise InvalidConfiguration(
            f"target ratio must be a number: {exc}"
        ) from exc


class InferenceEngine:
    """Maps (dataset, objective) -> error configuration.

    ``ctx`` (a :class:`~repro.runtime.RuntimeContext`) is carried for
    API uniformity — ratio inference itself is compression-free, but
    engines hand the context on to the quality probes, the fallback
    rungs and serving layers. PSNR/SSIM objectives are answered by
    :func:`~repro.core.objective.refine` with ``quality_probes`` runs.
    """

    #: Rungs walked for ratio and for quality objectives, in order.
    ratio_ladder: tuple[str, ...] = ("model",)
    quality_ladder: tuple[str, ...] = ("probe",)

    def __init__(
        self,
        model,
        compressor: Compressor,
        config: FXRZConfig | None = None,
        *,
        ctx=None,
        quality_probes: int = 2,
    ) -> None:
        self.model = model
        self.compressor = compressor
        self.config = config or FXRZConfig()
        self.ctx = ctx
        self.quality_probes = int(quality_probes)

    def analyze(self, data: np.ndarray) -> DatasetAnalysis:
        """Run the target-independent dataset analysis once.

        The returned record can be passed to :meth:`estimate` for any
        number of objectives on the *same* dataset, skipping the
        validation/feature/block passes each time.
        """
        with obs.span("inference.analyze") as span:
            start = time.perf_counter()
            report = self._validate(data)
            if report is not None:
                data = _field(data, report)
                span.set_attribute("issues", len(report.issues))
            features = extract_features(
                data, stride=self.config.sampling_stride
            ).selected()
            if self.config.use_adjustment:
                with obs.span(
                    "inference.adjustment",
                    block_size=int(self.config.block_size),
                ):
                    nonconstant = nonconstant_fraction(
                        data,
                        block_size=self.config.block_size,
                        lam=self.config.lam,
                    )
            else:
                nonconstant = 1.0
            span.set_attribute("nonconstant", nonconstant)
            return DatasetAnalysis(
                features=features,
                nonconstant=nonconstant,
                seconds=time.perf_counter() - start,
                report=report,
            )

    def estimate(
        self,
        data: np.ndarray,
        target_ratio: float | None = None,
        analysis: DatasetAnalysis | None = None,
        *,
        objective: Objective | float | str | None = None,
    ) -> Estimate:
        """Predict the error configuration for an objective.

        Args:
            data: the runtime dataset.
            target_ratio: the user's TCR — the pre-objective calling
                convention, equivalent to
                ``objective=RatioTarget(target_ratio)``.
            analysis: a cached :meth:`analyze` result for ``data``; when
                given, the analysis passes are skipped and
                ``analysis_seconds`` covers only the per-request
                remainder (adjustment + the ladder walk).
            objective: a :class:`~repro.core.objective.Objective`, a
                canonical string (``"psnr:60"``) or a bare ratio.
                Mutually exclusive with ``target_ratio``.
        """
        return self._estimate(data, target_ratio, analysis, objective)[0]

    def _estimate(
        self, data, target_ratio, analysis, objective
    ) -> tuple[Estimate, float | None]:
        """:meth:`estimate`, plus what the answering rung measured."""
        objective = resolve_objective(target_ratio, objective)
        is_ratio = isinstance(objective, RatioTarget)
        if is_ratio:
            attributes = {"target_ratio": objective.tcr}
        else:
            attributes = {"objective": objective.canonical}
        with obs.span("inference.estimate", **attributes) as span:
            start = time.perf_counter()
            if analysis is None:
                analysis = self.analyze(data)
            acr = (
                adjusted_ratio(objective.tcr, analysis.nonconstant)
                if is_ratio
                else 0.0
            )
            confidence, doubts, prediction = self._confidence(
                analysis, objective, acr
            )
            if analysis.report is not None:
                data = _field(data, analysis.report)
            config, tier, measured, reason = self._walk(
                self.ratio_ladder if is_ratio else self.quality_ladder,
                Query(
                    data, objective, analysis, acr, confidence, doubts,
                    prediction,
                ),
            )
            span.set_attributes(
                tier=tier, confidence=confidence, config=config
            )
            return Estimate(
                config=config,
                target_ratio=objective.tcr if is_ratio else 0.0,
                adjusted_target=acr,
                nonconstant=analysis.nonconstant,
                features=analysis.features,
                analysis_seconds=time.perf_counter() - start,
                tier=tier,
                confidence=confidence,
                fallback_reason=reason,
                objective=objective,
            ), measured

    def _walk(self, ladder: tuple[str, ...], query: Query):
        """``(config, tier, measured, reason)`` from the first usable rung.

        A rung declines by raising a :class:`~repro.errors.ReproError`;
        ``reason`` joins the declines above the answering rung.
        """
        reasons: list[str] = []
        for rung in ladder:
            with obs.span("inference.tier", tier=rung, accepted=False) as span:
                try:
                    config, tier, measured = getattr(self, f"_{rung}")(query)
                    if not (math.isfinite(config) and config > 0.0):
                        raise InvalidConfiguration(
                            f"unusable config {config!r}"
                        )
                except ReproError as exc:
                    reasons.append(f"{rung}: {exc}")
                    error = exc
                    continue
                span.set_attribute("accepted", True)
                # A kept decline's traceback holds this frame and so the
                # query's field: drop it rather than leave that cycle to
                # the garbage collector.
                error = None
                return config, tier, measured, "; ".join(reasons)
        try:
            raise self._exhausted(reasons, error)
        finally:
            # The raised error's traceback holds this frame too.
            error = None

    # -- hooks the guarded ladder overrides ----------------------------------

    def _validate(self, data: np.ndarray) -> FieldReport | None:
        """The field's validation report; the plain engine trusts its input."""
        return None

    def _confidence(
        self, analysis, objective, acr
    ) -> tuple[float, str, float | None]:
        """``(confidence in the model rung, doubts, prediction)``.

        Ungated here, and the model is not asked: ``prediction`` (the
        model's raw answer at ``acr``, for :attr:`Query.prediction`) is
        ``None``.
        """
        return 1.0, "", None

    def _exhausted(self, reasons: list[str], error: ReproError) -> ReproError:
        """What an exhausted ladder raises: the plain engine's own error."""
        return error

    # -- rungs ---------------------------------------------------------------

    def _model(self, query: Query):
        """The regression model at the adjusted target (paper Sec. IV-D)."""
        features = query.analysis.features
        with obs.span("inference.model_query"):
            if query.prediction is None:
                raw = model_config(
                    self.model, self.compressor, features, query.acr
                )
            else:
                raw = predicted_config(
                    self.compressor, features, query.prediction
                )
        return self.compressor.normalize_config(raw), "model", None

    def _probe(self, query: Query):
        """The analytic prior refined by up to ``quality_probes`` runs."""
        objective = query.objective
        with obs.span(
            "inference.quality_query", objective=objective.canonical
        ):
            result = refine(
                self.compressor,
                query.data,
                objective,
                probes=self.quality_probes,
                ctx=self.ctx,
            )
        # The outcome log's measured-quality column is PSNR-denominated;
        # an SSIM probe measurement would be apples to oranges there.
        measured = result.measured if objective.kind == "psnr" else None
        tier = "probe" if self.quality_probes > 0 else "analytic"
        return float(result.config), tier, measured

    def frontier(
        self,
        data: np.ndarray,
        analysis: DatasetAnalysis | None = None,
        *,
        ratios=None,
        points: int = 12,
    ) -> ParetoFrontier:
        """The learned config -> (CR, PSNR) trade-off for ``data``.

        Sweeps the ratio model over a target grid and predicts the PSNR
        of each resulting config with the analytic prior; the returned
        :class:`~repro.core.objective.ParetoFrontier` answers "best
        quality at CR >= N" (and the converse) in one call.
        """
        return build_frontier(
            self, data, analysis, ratios=ratios, points=points
        )
