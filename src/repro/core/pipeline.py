"""The FXRZ facade: train once, fix ratios forever.

Typical use::

    from repro import FXRZ
    from repro.compressors import get_compressor

    fxrz = FXRZ(get_compressor("sz"))
    fxrz.fit(training_arrays)                  # runs the compressor ~25x/dataset
    result = fxrz.compress_to_ratio(new_data, target_ratio=80.0)
    print(result.measured_ratio, result.estimation_error)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compressors.base import CompressedBlob, Compressor
from repro.config import FXRZConfig
from repro.core.inference import Estimate, InferenceEngine
from repro.core.training import TrainingEngine, TrainingReport
from repro.errors import InvalidConfiguration, NotFittedError


@dataclass(frozen=True)
class FixedRatioResult:
    """Outcome of a fixed-ratio compression request.

    Attributes:
        blob: the compressed payload at the estimated configuration.
        estimate: the inference record (config, ACR, timing, ...).
        measured_ratio: MCR actually achieved.
        compressions: compressor runs spent (1 + refinements used).
        measured_psnr: achieved PSNR in dB, measured by decompressing
            (quality-objective results only; ``None`` on ratio paths,
            which never decompress).
        estimation_error: Formula (5), |TCR - MCR| / TCR (``nan`` for
            quality objectives, which have no TCR).
    """

    blob: CompressedBlob
    estimate: Estimate
    measured_ratio: float
    compressions: int = 1
    measured_psnr: float | None = None

    @property
    def estimation_error(self) -> float:
        if self.estimate.target_ratio <= 0:
            # Quality-objective results have no TCR; Formula (5) is
            # undefined for them (the miss lives in measured_psnr).
            return float("nan")
        return abs(self.estimate.target_ratio - self.measured_ratio) / (
            self.estimate.target_ratio
        )


class FXRZ:
    """Feature-driven fixed-ratio compression framework.

    Args:
        compressor: any registered error-controlled compressor.
        config: framework knobs (sampling stride, CA lambda, ...).
        model_factory: ``seed -> model`` override for the Table III
            model comparison; defaults to the random forest.
        ctx: a :class:`~repro.runtime.RuntimeContext`; supplies the
            training-time sweep executor and the shared compression
            memo. Results are bit-identical at any worker count.
    """

    def __init__(
        self,
        compressor: Compressor,
        config: FXRZConfig | None = None,
        model_factory=None,
        *,
        ctx=None,
    ) -> None:
        self.compressor = compressor
        self.config = config or FXRZConfig()
        self.ctx = ctx
        self.memo = ctx.memo if ctx is not None else None
        self._training = TrainingEngine(
            compressor,
            config=self.config,
            model_factory=model_factory,
            ctx=ctx,
        )

    # -- training --------------------------------------------------------------

    def fit(
        self,
        datasets: list[np.ndarray],
        domains: list[tuple[float, float] | None] | None = None,
    ) -> TrainingReport:
        """Train on a list of arrays; returns the timing report."""
        if not datasets:
            raise InvalidConfiguration("fit needs at least one dataset")
        if domains is None:
            domains = [None] * len(datasets)
        if len(domains) != len(datasets):
            raise InvalidConfiguration("domains must pair with datasets")
        for data, domain in zip(datasets, domains):
            self._training.add_dataset(data, domain=domain)
        self._training.fit()
        return self._training.report

    @property
    def is_fitted(self) -> bool:
        return self._training._model is not None

    @property
    def _engine(self) -> InferenceEngine:
        """The plain engine over the trained model."""
        if not self.is_fitted:
            raise NotFittedError("FXRZ.fit must be called first")
        return InferenceEngine(
            self.model, self.compressor, config=self.config, ctx=self.ctx
        )

    @property
    def training_report(self) -> TrainingReport:
        return self._training.report

    @property
    def curves(self):
        """Anchored compression curves of the training datasets."""
        return [record.curve for record in self._training.records]

    @property
    def model(self):
        return self._training.model

    # -- inference -------------------------------------------------------------

    def trained_ratio_range(self, data: np.ndarray) -> tuple[float, float]:
        """Target-ratio span this pipeline can answer for ``data``.

        The model was fitted on adjusted ratios covering the training
        curves' anchored span; a request maps into that span through
        ``data``'s own non-constant fraction. Requests outside the
        returned range force the regressor to extrapolate and degrade
        accuracy — callers should clamp or warn.
        """
        if not self.is_fitted:
            raise NotFittedError("FXRZ.fit must be called first")
        records = self._training.records
        acr_lo = min(
            max(rec.curve.ratio_range[0] * rec.nonconstant, 1.0)
            for rec in records
        )
        acr_hi = max(
            rec.curve.ratio_range[1] * rec.nonconstant for rec in records
        )
        if self.config.use_adjustment:
            from repro.core.adjustment import nonconstant_fraction

            r = nonconstant_fraction(
                data, block_size=self.config.block_size, lam=self.config.lam
            )
        else:
            r = 1.0
        r = max(r, 1e-6)
        return max(acr_lo / r, 1.0), acr_hi / r

    def estimate_config(
        self,
        data: np.ndarray,
        target_ratio: float | None = None,
        *,
        objective=None,
    ) -> Estimate:
        """Pick the error configuration for a target (no compression for ratio).

        Either ``target_ratio`` (the paper's TCR) or ``objective`` — a
        :class:`~repro.core.objective.Objective`, its canonical string
        form (``"psnr:60"``), or a bare number meaning a ratio target.
        Quality objectives may spend probe compressions; see
        :func:`~repro.core.objective.refine`.
        """
        return self._engine.estimate(data, target_ratio, objective=objective)

    def frontier(self, data: np.ndarray, analysis=None, *, ratios=None, points=12):
        """The (ratio, PSNR) Pareto frontier for ``data``.

        See :meth:`~repro.core.inference.InferenceEngine.frontier`.
        """
        return self._engine.frontier(
            data, analysis, ratios=ratios, points=points
        )

    def guarded(self, fallback: str | None = None, **kwargs):
        """A hardened inference engine over this fitted pipeline.

        Returns a
        :class:`~repro.robustness.guarded.GuardedInferenceEngine` whose
        ``estimate`` validates inputs, scores model confidence, and
        degrades through curve interpolation down to a bounded FRaZ
        search instead of returning a wild extrapolation. ``fallback``
        defaults to the runtime context's policy ("fraz" without one).
        See :mod:`repro.robustness` for the knobs.
        """
        from repro.robustness.guarded import GuardedInferenceEngine

        return GuardedInferenceEngine(self, fallback=fallback, **kwargs)

    def compress_to_ratio(
        self,
        data: np.ndarray,
        target_ratio: float,
        max_refinements: int = 0,
        tolerance: float = 0.05,
    ) -> FixedRatioResult:
        """Estimate the config, compress, and report the achieved ratio.

        With ``max_refinements > 0`` the pipeline spends extra
        compressions to tighten the result (an extension beyond the
        paper, which is compression-free): after measuring the achieved
        ratio, the *model itself* is re-queried with the target scaled
        by the observed miss (``TCR * TCR/MCR``) — a Newton-style step
        through the learned curve. Each refinement costs one
        compression, still far below FRaZ's 6-15.

        Args:
            data: array to compress.
            target_ratio: TCR.
            max_refinements: extra compressor runs allowed (0 = the
                paper's compression-free behaviour).
            tolerance: stop refining once Formula-(5) error is below
                this.
        """
        estimate = self.estimate_config(data, target_ratio)
        blob = self.compressor.compress(data, estimate.config)
        best = FixedRatioResult(
            blob=blob,
            estimate=estimate,
            measured_ratio=blob.compression_ratio,
        )
        scaled_target = target_ratio
        for step in range(max_refinements):
            if best.estimation_error <= tolerance:
                break
            miss = target_ratio / best.measured_ratio
            scaled_target = max(scaled_target * miss, 1.0)
            retry = self.estimate_config(data, scaled_target)
            if retry.config == best.estimate.config:
                break  # the model has no finer answer
            blob = self.compressor.compress(data, retry.config)
            candidate = FixedRatioResult(
                blob=blob,
                estimate=Estimate(
                    config=retry.config,
                    target_ratio=float(target_ratio),
                    adjusted_target=retry.adjusted_target,
                    nonconstant=retry.nonconstant,
                    features=retry.features,
                    analysis_seconds=estimate.analysis_seconds
                    + retry.analysis_seconds,
                ),
                measured_ratio=blob.compression_ratio,
                compressions=step + 2,
            )
            if candidate.estimation_error < best.estimation_error:
                best = candidate
        self._record_outcome(data, best)
        return best

    def compress_to_objective(self, data: np.ndarray, objective) -> FixedRatioResult:
        """Estimate a config for ``objective``, compress, measure the truth.

        Ratio objectives delegate to :meth:`compress_to_ratio` (the
        paper's compression-free path). Quality objectives estimate via
        the analytic prior and its probes, compress once, and measure
        the achieved PSNR by decompressing — the measured value lands in
        ``result.measured_psnr`` and in the outcome log.
        """
        from repro.core.objective import as_objective

        objective = as_objective(objective)
        if objective.kind == "ratio":
            return self.compress_to_ratio(data, objective.value)
        estimate = self.estimate_config(data, objective=objective)
        blob = self.compressor.compress(data, estimate.config)
        from repro.analysis.distortion import psnr as measure_psnr

        reconstruction = self.compressor.decompress(blob)
        measured_psnr = float(measure_psnr(data, reconstruction))
        result = FixedRatioResult(
            blob=blob,
            estimate=estimate,
            measured_ratio=blob.compression_ratio,
            measured_psnr=measured_psnr,
        )
        self._record_outcome(data, result)
        return result

    def _record_outcome(self, data: np.ndarray, result: FixedRatioResult) -> None:
        """Log ``result`` to the context's outcome log, if one is open.

        The one place estimate and measured truth meet in a single call —
        the highest-value record the online learning loop gets (see
        :mod:`repro.lifecycle`).
        """
        if self.ctx is None or self.ctx.closed:
            return
        outcome_log = self.ctx.lifecycle
        if outcome_log is None:
            return
        try:
            from repro.serving.cache import dataset_fingerprint

            outcome_log.record_estimate(
                result.estimate,
                dataset_key=dataset_fingerprint(
                    data, stride=self.config.sampling_stride
                ),
                compressor=self.compressor.name,
                measured_ratio=result.measured_ratio,
                measured_psnr=result.measured_psnr,
                source="compress",
            )
        except OSError:
            pass  # a full disk must not fail the compression
