"""Canary evaluation: promote a candidate only if it beats ``latest``.

The canary replays a held-out slice of the outcome log through both
models *without running the compressor*: each trainable record says
"configuration ``c`` actually measured ratio ``m`` on this dataset".
Inverting a model over the adjusted ratio answers the question "what
ratio does this model *believe* configuration ``c`` delivers here?" —
and the gap between that belief and the measured ``m`` is exactly the
relative CR error the model would have made serving this request. The
inversion is a bisection over model queries (microseconds each), so a
canary over hundreds of records costs milliseconds.

The promotion contract: the candidate's **median** relative CR error
over the holdout must beat the incumbent's by at least
``margin`` (fractionally) for the registry alias to flip. Every flip
records the previous version in the manifest history, so
:meth:`~repro.serving.registry.ModelRegistry.rollback` can restore it
with one call.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.core.inference import model_config
from repro.errors import InvalidConfiguration
from repro.serving.registry import LATEST

#: Bisection budget of one model inversion.
_INVERT_ITERATIONS = 48

#: How far past the largest observed ACR the inversion may search.
_ACR_HEADROOM = 4.0


@dataclass(frozen=True)
class CanaryReport:
    """Outcome of one canary evaluation.

    Attributes:
        n_records: holdout records actually replayed.
        incumbent_error: incumbent's median relative CR error.
        candidate_error: candidate's median relative CR error.
        margin: fractional improvement the candidate had to show.
        promote: whether the candidate won.
        reason: human-readable verdict.
        quality_records: holdout records carrying a PSNR objective and
            a measured PSNR (evaluated under the quality contract, not
            the CR one).
        quality_error: median absolute dB miss over those records
            (``nan`` when there are none). Informational: the ratio
            contract gates promotion — quality answers come from the
            quality model, which versions independently (see
            :meth:`~repro.serving.registry.ModelRegistry.publish_quality`).
    """

    n_records: int
    incumbent_error: float
    candidate_error: float
    margin: float
    promote: bool
    reason: str
    quality_records: int = 0
    quality_error: float = float("nan")


def invert_model_ratio(
    model,
    compressor,
    features: np.ndarray,
    config: float,
    *,
    acr_hi: float,
) -> float:
    """The ACR at which ``model`` predicts ``config`` for ``features``.

    Error-controlled compressors trade ratio for error bound
    monotonically, so the learned config(ACR) map is (noisily)
    increasing; a bisection over ``[1, acr_hi]`` recovers the ratio the
    model associates with a configuration. Out-of-range answers clamp
    to the search bounds — a model that cannot reach ``config`` at any
    ratio it knows is *maximally* wrong about this record, and the
    clamp charges it accordingly.
    """
    if config <= 0 or not np.isfinite(config):
        raise InvalidConfiguration("config must be finite and > 0")
    lo, hi = 1.0, max(float(acr_hi), 1.0 + 1e-9)
    if model_config(model, compressor, features, lo) >= config:
        return lo
    if model_config(model, compressor, features, hi) <= config:
        return hi
    for _ in range(_INVERT_ITERATIONS):
        mid = 0.5 * (lo + hi)
        if model_config(model, compressor, features, mid) < config:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def replay_errors(pipeline, records) -> list[float]:
    """Per-record relative CR error of ``pipeline``'s model on ``records``.

    Only trainable records (measured ratio present and usable) are
    replayed; the list is ordered like the surviving records.
    """
    usable = [record for record in records if record.trainable]
    if not usable:
        return []
    acr_hi = _ACR_HEADROOM * max(
        max(record.adjusted_target for record in usable),
        max(
            record.measured_ratio * record.nonconstant for record in usable
        ),
    )
    model = pipeline.model
    compressor = pipeline.compressor
    errors: list[float] = []
    for record in usable:
        features = np.asarray(record.features, dtype=np.float64)
        acr = invert_model_ratio(
            model, compressor, features, record.config, acr_hi=acr_hi
        )
        predicted_ratio = acr / record.nonconstant
        errors.append(
            abs(predicted_ratio - record.measured_ratio)
            / record.measured_ratio
        )
    return errors


def quality_errors(records) -> list[float]:
    """Per-record absolute dB miss of PSNR-objective holdout records.

    The quality contract is evaluated per objective kind: a PSNR
    request's ground truth is the measured PSNR, and the miss is
    ``|measured - target|`` in dB. Records without a PSNR objective or
    a measured PSNR (including every pre-objective row) are skipped.
    """
    misses: list[float] = []
    for record in records:
        if record.objective_kind != "psnr":
            continue
        measured = record.measured_psnr
        if measured is None or not np.isfinite(measured):
            continue
        target = record.objective_value
        if target <= 0:
            continue
        misses.append(abs(float(measured) - float(target)))
    return misses


def evaluate_canary(
    incumbent, candidate, records, *, margin: float = 0.0
) -> CanaryReport:
    """Replay ``records`` through both pipelines; verdict by median error.

    Ratio-objective records gate the verdict (the ratio model is what a
    promotion flips); PSNR-objective records are summarized into the
    report's ``quality_*`` fields under their own contract.
    """
    records = list(records)
    incumbent_errors = replay_errors(incumbent, records)
    candidate_errors = replay_errors(candidate, records)
    n_records = len(candidate_errors)
    medians = (
        (float(np.median(incumbent_errors)), float(np.median(candidate_errors)))
        if n_records
        else (float("nan"), float("nan"))
    )
    report = canary_report_from_medians(*medians, n_records, margin=margin)
    misses = quality_errors(records)
    if misses:
        report = dataclasses.replace(
            report,
            quality_records=len(misses),
            quality_error=float(np.median(misses)),
        )
    return report


def canary_report_from_medians(
    incumbent_median: float,
    candidate_median: float,
    n_records: int,
    *,
    margin: float = 0.0,
) -> CanaryReport:
    """The promotion verdict from already-computed median errors.

    The replays themselves may have run anywhere (e.g. in executor
    worker processes, where the bisection's model queries do not
    contend with the serving thread for the GIL); the verdict logic
    stays in one place.
    """
    if not 0.0 <= margin < 1.0:
        raise InvalidConfiguration("margin must be in [0, 1)")
    if n_records == 0:
        return CanaryReport(
            n_records=0,
            incumbent_error=float("nan"),
            candidate_error=float("nan"),
            margin=float(margin),
            promote=False,
            reason="no measured holdout records to replay",
        )
    wins = candidate_median < incumbent_median * (1.0 - margin)
    verdict = (
        f"candidate median {candidate_median:.4f} vs incumbent "
        f"{incumbent_median:.4f} over {n_records} record(s)"
    )
    if margin > 0:
        verdict += f" (required margin {margin:.0%})"
    return CanaryReport(
        n_records=n_records,
        incumbent_error=incumbent_median,
        candidate_error=candidate_median,
        margin=float(margin),
        promote=bool(wins),
        reason=("promoted: " if wins else "held back: ") + verdict,
    )


def run_canary(
    registry,
    compressor: str,
    fingerprint: str | None,
    candidate_version: int,
    records,
    *,
    margin: float = 0.0,
    note: str = "",
):
    """Canary ``candidate_version`` against ``latest`` and maybe promote.

    Returns ``(report, promoted)`` where ``promoted`` is the
    :class:`~repro.serving.registry.ModelVersion` now serving as
    ``latest`` (``None`` when the candidate was held back).
    """
    coordinate = registry.resolve(compressor, fingerprint, LATEST)
    if coordinate.version == int(candidate_version):
        raise InvalidConfiguration(
            f"candidate v{candidate_version} already is the latest version"
        )
    incumbent = registry.load(
        coordinate.compressor, coordinate.fingerprint, coordinate.version
    )
    candidate = registry.load(
        coordinate.compressor, coordinate.fingerprint, int(candidate_version)
    )
    report = evaluate_canary(incumbent, candidate, records, margin=margin)
    if not report.promote:
        return report, None
    promoted = registry.promote(
        coordinate.compressor,
        coordinate.fingerprint,
        int(candidate_version),
        note=note or report.reason,
    )
    return report, promoted
