"""First-class estimation objectives: ratio, PSNR and SSIM targets.

The paper frames fixed-*ratio* as the open problem, but production
requests also arrive as quality targets (ROADMAP item 3): "give me the
error configuration that delivers 60 dB", or "the best quality I can
have at 10x". Ratio and quality are two views of one learned curve
(Ratio-Quality modeling, see PAPERS.md), so the estimation target is a
small closed algebra rather than a bare float:

* :class:`RatioTarget` — the paper's TCR, answered by the regression
  forest (compression-free);
* :class:`PSNRTarget` — answered by the analytic prior
  (:mod:`repro.core.psnr_control`'s closed form) refined by probes;
* :class:`SSIMTarget` — same shape, with a global-SSIM prior derived
  from the uniform-quantization noise model.

Every objective has a canonical string form (``"ratio:10"``,
``"psnr:60"``, ``"ssim:0.99"``) used verbatim in JSONL request files,
outcome-log rows, registry keys and CLI output, so the objective a
request carried is greppable end to end.

The quality side is stateless: :func:`analytic_config` inverts the
noise model, :func:`refine` corrects it with measured probes of the
real compressor (the ratio-quality inversion of Jin et al., PAPERS.md),
and :func:`predict_psnr` is the config -> PSNR axis that
:func:`build_frontier` pairs with the ratio model's config -> CR sweep
to answer Pareto queries like "best PSNR at CR >= 10" in one call.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidConfiguration

_SQRT3 = float(np.sqrt(3.0))

#: Objective kinds with a quality (distortion) semantic, as opposed to
#: the paper's native ratio semantic.
QUALITY_KINDS = ("psnr", "ssim")


@dataclass(frozen=True)
class Objective:
    """Base of the estimation-target algebra.

    Concrete variants carry one ``value`` and a class-level ``kind``;
    the canonical string ``"<kind>:<value>"`` round-trips through
    :func:`parse_objective` and is what rides JSONL files, work
    messages and outcome-log rows.
    """

    value: float

    kind = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", float(self.value))
        self._validate()

    def _validate(self) -> None:
        if not math.isfinite(self.value):
            raise InvalidConfiguration(
                f"{self.kind or 'objective'} target must be finite"
            )

    @property
    def canonical(self) -> str:
        """The wire form, e.g. ``"ratio:10"`` or ``"psnr:60"``."""
        return f"{self.kind}:{self.value:g}"

    @property
    def is_quality(self) -> bool:
        return self.kind in QUALITY_KINDS

    def __str__(self) -> str:
        return self.canonical


@dataclass(frozen=True)
class RatioTarget(Objective):
    """The paper's native target: a compression ratio (TCR)."""

    kind = "ratio"

    def _validate(self) -> None:
        super()._validate()
        if self.value <= 0:
            raise InvalidConfiguration("target ratio must be > 0")

    @property
    def tcr(self) -> float:
        return self.value


@dataclass(frozen=True)
class PSNRTarget(Objective):
    """A reconstruction-quality target in decibels."""

    kind = "psnr"

    def _validate(self) -> None:
        super()._validate()
        if self.value <= 0:
            raise InvalidConfiguration("target PSNR must be > 0 dB")

    @property
    def db(self) -> float:
        return self.value


@dataclass(frozen=True)
class SSIMTarget(Objective):
    """A global structural-similarity target in (0, 1]."""

    kind = "ssim"

    def _validate(self) -> None:
        super()._validate()
        if not 0.0 < self.value <= 1.0:
            raise InvalidConfiguration("target SSIM must be in (0, 1]")

    @property
    def s(self) -> float:
        return self.value


_KINDS: dict[str, type[Objective]] = {
    "ratio": RatioTarget,
    "psnr": PSNRTarget,
    "ssim": SSIMTarget,
}


def parse_objective(spec: str) -> Objective:
    """Parse a canonical objective string (``"psnr:60"``).

    A bare number is accepted as a ratio target — the pre-objective
    JSONL grammar — so existing request files keep parsing.
    """
    text = str(spec).strip()
    if ":" in text:
        kind, _, raw = text.partition(":")
        cls = _KINDS.get(kind.strip().lower())
        if cls is None:
            raise InvalidConfiguration(
                f"unknown objective kind {kind!r}; expected one of "
                f"{sorted(_KINDS)}"
            )
        try:
            return cls(float(raw))
        except ValueError as exc:
            raise InvalidConfiguration(
                f"objective {spec!r} has a non-numeric value"
            ) from exc
    try:
        return RatioTarget(float(text))
    except ValueError as exc:
        raise InvalidConfiguration(
            f"cannot parse objective {spec!r}; expected 'kind:value'"
        ) from exc


def as_objective(value) -> Objective:
    """Coerce an :class:`Objective`, number or canonical string."""
    if isinstance(value, Objective):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return RatioTarget(float(value))
    if isinstance(value, str):
        return parse_objective(value)
    raise InvalidConfiguration(
        f"cannot interpret {value!r} as an objective; pass an Objective, "
        "a ratio number or a 'kind:value' string"
    )


# -- quality model -------------------------------------------------------------


def analytic_bound_for_ssim(data: np.ndarray, target_ssim: float) -> float:
    """Closed-form error bound expected to deliver ``target_ssim``.

    For uniform quantization noise of variance ``eb^2 / 3`` added to a
    signal of variance ``sigma^2``, the global SSIM (with negligible
    stabilizers) is ``2 sigma^2 / (2 sigma^2 + eb^2/3)``; inverting
    gives ``eb = sigma * sqrt(6 (1 - s) / s)``.
    """
    target = SSIMTarget(target_ssim).value
    array = np.asarray(data, dtype=np.float64)
    if not np.all(np.isfinite(array)):
        raise InvalidConfiguration("SSIM targeting requires finite data")
    sigma = float(np.std(array))
    if sigma == 0.0:
        raise InvalidConfiguration("constant data has undefined SSIM")
    if target >= 1.0:
        # The lossless knee: no positive bound delivers exactly 1.0, so
        # ask for the tightest bound the caller's domain clip allows.
        return float(np.finfo(np.float64).tiny)
    return sigma * math.sqrt(6.0 * (1.0 - target) / target)


@dataclass(frozen=True)
class QualityEstimate:
    """One quality-targeted bound selection.

    Attributes:
        config: the chosen error configuration.
        measured: the quality actually measured at the best probe
            (``None`` when no probe ran — pure analytic answer).
        probes_spent: compressor runs consumed by the refinement.
    """

    config: float
    measured: float | None
    probes_spent: int


def predict_psnr(value_range: float, config: float) -> float:
    """PSNR the analytic prior expects at ``config`` for ``value_range``."""
    if config <= 0 or value_range <= 0:
        raise InvalidConfiguration(
            "predict_psnr needs a positive config and value range"
        )
    return 20.0 * math.log10(value_range * _SQRT3 / config)


def analytic_config(data: np.ndarray, objective: Objective) -> float:
    """The analytic prior's bound for a PSNR or SSIM ``objective``.

    The prior is the uniform-quantization noise model, exact for the
    SZ-style quantizer; other compressor families need probes.
    """
    objective = as_objective(objective)
    if isinstance(objective, PSNRTarget):
        from repro.core.psnr_control import analytic_bound_for_psnr

        return float(analytic_bound_for_psnr(data, objective.db))
    if isinstance(objective, SSIMTarget):
        return analytic_bound_for_ssim(data, objective.s)
    raise InvalidConfiguration(
        f"quality model cannot answer a {objective.kind!r} objective"
    )


def refine(
    compressor,
    data: np.ndarray,
    objective: Objective,
    *,
    probes: int,
    ctx=None,
) -> QualityEstimate:
    """Analytic prior refined by probing the real compressor.

    ``probes=0`` returns the domain-clipped analytic answer without
    touching the compressor. PSNR probes share the context's
    compression memo (a bound another caller already measured is
    answered from cache); SSIM probes are always live.
    """
    objective = as_objective(objective)
    if compressor.error_mode != "abs":
        raise InvalidConfiguration(
            "quality targeting requires an absolute-error compressor"
        )
    budget = int(probes)
    if budget < 0:
        raise InvalidConfiguration("probes must be >= 0")
    if isinstance(objective, PSNRTarget):
        from repro.core.psnr_control import probe_search

        memo = ctx.memo if ctx is not None else None
        bound, achieved, spent = probe_search(
            compressor, data, objective.db, budget, memo
        )
        return QualityEstimate(
            config=float(bound), measured=achieved, probes_spent=spent
        )
    if isinstance(objective, SSIMTarget):
        return _refine_ssim(compressor, data, objective, budget)
    raise InvalidConfiguration(
        f"quality model cannot refine a {objective.kind!r} objective"
    )


def _refine_ssim(
    compressor, data: np.ndarray, objective: SSIMTarget, budget: int
) -> QualityEstimate:
    from repro.analysis.distortion import ssim as measure_ssim

    lo, hi = compressor.config_domain(data)
    bound = float(np.clip(analytic_config(data, objective), lo, hi))
    target = objective.s
    best_bound, best_measured = bound, None
    best_miss = math.inf
    spent = 0
    for _ in range(budget):
        recon, _blob = compressor.roundtrip(data, bound)
        spent += 1
        achieved = float(measure_ssim(data, recon))
        miss = achieved - target
        if abs(miss) < abs(best_miss):
            best_miss, best_bound, best_measured = miss, bound, achieved
        if abs(miss) < 0.005 or achieved >= 1.0:
            break
        # Invert the noise model at both points: the bound scales by
        # sqrt(((1-t)/t) / ((1-a)/a)).
        a = min(max(achieved, 1e-9), 1.0 - 1e-9)
        t = min(max(target, 1e-9), 1.0 - 1e-9)
        factor = math.sqrt(((1.0 - t) / t) / ((1.0 - a) / a))
        bound = float(np.clip(bound * factor, lo, hi))
    return QualityEstimate(
        config=best_bound, measured=best_measured, probes_spent=spent
    )


# -- Pareto frontier -----------------------------------------------------------


@dataclass(frozen=True)
class FrontierPoint:
    """One (config, ratio, quality) point on the learned trade-off curve."""

    config: float
    ratio: float
    psnr: float

    def dominates(self, other: "FrontierPoint") -> bool:
        """Pareto dominance: at least as good on both axes, better on one."""
        return (
            self.ratio >= other.ratio
            and self.psnr >= other.psnr
            and (self.ratio > other.ratio or self.psnr > other.psnr)
        )


_QUERY = re.compile(
    r"^\s*(cr|ratio|psnr)\s*>=\s*([0-9]+(?:\.[0-9]+)?)\s*$", re.IGNORECASE
)


@dataclass(frozen=True)
class ParetoFrontier:
    """A non-dominated, CR-monotone set of :class:`FrontierPoint`\\ s.

    Construction prunes dominated points and sorts by ascending ratio,
    so iterating the frontier walks the trade-off curve from "barely
    compressed, best quality" to "most compressed, worst quality";
    PSNR is strictly decreasing along it by the dominance filter.
    """

    points: tuple[FrontierPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", _prune(self.points))

    def __iter__(self):
        return iter(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def best_quality_at(self, min_ratio: float) -> FrontierPoint | None:
        """Highest-PSNR point achieving at least ``min_ratio`` (one call)."""
        eligible = [p for p in self.points if p.ratio >= float(min_ratio)]
        return max(eligible, key=lambda p: p.psnr) if eligible else None

    def best_ratio_at(self, min_psnr: float) -> FrontierPoint | None:
        """Highest-ratio point keeping at least ``min_psnr`` dB."""
        eligible = [p for p in self.points if p.psnr >= float(min_psnr)]
        return max(eligible, key=lambda p: p.ratio) if eligible else None

    def query(self, expr: str) -> FrontierPoint | None:
        """Answer a constraint query: ``"cr>=10"`` or ``"psnr>=60"``.

        ``cr>=N`` (alias ``ratio>=N``) returns the best quality at
        ratio >= N; ``psnr>=N`` returns the best ratio at quality >= N.
        """
        match = _QUERY.match(str(expr))
        if match is None:
            raise InvalidConfiguration(
                f"cannot parse frontier query {expr!r}; expected "
                "'cr>=N' or 'psnr>=N'"
            )
        axis, threshold = match.group(1).lower(), float(match.group(2))
        if axis in ("cr", "ratio"):
            return self.best_quality_at(threshold)
        return self.best_ratio_at(threshold)


def _prune(points) -> tuple[FrontierPoint, ...]:
    """Non-dominated subset, ratio-ascending (ties keep the best point)."""
    ordered = sorted(points, key=lambda p: (p.ratio, p.psnr))
    kept: list[FrontierPoint] = []
    best_psnr = -math.inf
    for point in reversed(ordered):  # descending ratio
        if point.psnr > best_psnr:
            kept.append(point)
            best_psnr = point.psnr
    kept.reverse()
    return tuple(kept)


def build_frontier(
    engine,
    data: np.ndarray,
    analysis=None,
    *,
    ratios=None,
    points: int = 12,
) -> ParetoFrontier:
    """Sweep the ratio model over a target grid into a Pareto frontier.

    For each target ratio the engine's (compression-free) estimate
    yields a config; the analytic prior predicts the PSNR that config
    delivers on this dataset. The joint sweep is the learned
    config -> (CR, PSNR) curve — dominated points (model noise) are
    pruned and the result answers "best quality at CR >= N" in one
    :meth:`ParetoFrontier.best_quality_at` call.

    Args:
        engine: anything exposing ``analyze(data)`` and
            ``estimate(data, ratio, analysis=...)`` plus a
            ``compressor`` — the plain or the guarded engine.
        data: the runtime dataset.
        analysis: a cached ``analyze`` result to reuse across the grid.
        ratios: explicit target-ratio grid; defaults to ``points``
            log-spaced targets in [2, 64].
        points: grid size when ``ratios`` is not given.
    """
    compressor = getattr(engine, "compressor", None)
    if compressor is None or compressor.error_mode != "abs":
        raise InvalidConfiguration(
            "frontier needs an absolute-error compressor"
        )
    if ratios is None:
        if points < 2:
            raise InvalidConfiguration("frontier needs at least 2 points")
        ratios = np.geomspace(2.0, 64.0, int(points))
    if analysis is None:
        analysis = engine.analyze(data)
    value_range = float(analysis.features[0])
    if value_range <= 0:
        raise InvalidConfiguration(
            "frontier is undefined for constant data"
        )
    swept: list[FrontierPoint] = []
    for ratio in ratios:
        estimate = engine.estimate(data, float(ratio), analysis=analysis)
        if estimate.config <= 0 or not math.isfinite(estimate.config):
            continue
        swept.append(
            FrontierPoint(
                config=float(estimate.config),
                ratio=float(ratio),
                psnr=predict_psnr(value_range, float(estimate.config)),
            )
        )
    if not swept:
        raise InvalidConfiguration(
            "no target in the grid produced a usable configuration"
        )
    return ParetoFrontier(points=tuple(swept))
