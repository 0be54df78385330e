"""PSNR-targeted error-bound selection (the related-work capability).

Tao et al. (cited in the paper's Sec. II) pick error bounds from a
target PSNR instead of a target ratio. For uniform quantization with
bin width ``2*eb``, quantization errors are ~uniform in ``[-eb, eb]``,
so

    RMSE ~ eb / sqrt(3)  =>  PSNR ~ -20 log10(eb / (range * sqrt(3)))

which inverts in closed form. The analytic estimate is exact only for
SZ-style quantizers; :func:`probe_search` therefore also offers a
measured refinement that probes the compressor a couple of times
(still far cheaper than a full search).

This module complements FXRZ: ratio-targeted control needs learning
because ratios depend on data statistics; PSNR-targeted control is
nearly closed-form — exactly why the paper frames fixed-*ratio* as the
open problem. Objective-driven callers reach it through
:func:`repro.core.objective.refine`, whose PSNR rung starts from the
closed form as its analytic prior.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.analysis.distortion import psnr
from repro.compressors.base import Compressor
from repro.errors import InvalidConfiguration

_SQRT3 = float(np.sqrt(3.0))


def analytic_bound_for_psnr(data: np.ndarray, target_psnr: float) -> float:
    """Closed-form error bound expected to deliver ``target_psnr``.

    Assumes uniform quantization error in ``[-eb, eb]`` (the SZ-style
    quantizer); other compressor families over- or under-deliver and
    should use :func:`probe_search`.
    """
    if target_psnr <= 0:
        raise InvalidConfiguration("target PSNR must be > 0 dB")
    array = np.asarray(data)
    if not np.all(np.isfinite(array)):
        # np.ptp would silently propagate NaN/inf into the bound.
        raise InvalidConfiguration(
            "PSNR targeting requires finite data (found NaN or inf)"
        )
    value_range = float(np.ptp(array))
    if value_range == 0:
        raise InvalidConfiguration("constant data has undefined PSNR")
    return value_range * _SQRT3 * 10.0 ** (-target_psnr / 20.0)


def probe_search(
    compressor: Compressor,
    data: np.ndarray,
    target_psnr: float,
    probes: int,
    memo,
) -> tuple[float, float | None, int]:
    """Analytic estimate refined by measuring the compressor's PSNR.

    Each probe compresses once, measures the achieved PSNR, and scales
    the bound by the dB miss (PSNR is ~linear in ``-20 log10(eb)``);
    ``probes=0`` is the domain-clipped closed form. ``memo`` (a
    :class:`~repro.parallel.memo.CompressionMemoCache` or ``None``)
    answers probes an earlier caller already measured and records
    fresh ones. Returns ``(bound, achieved, probes_spent)`` where
    ``achieved`` is the PSNR measured at the returned bound (``None``
    when no probe ran, or the probe came from the memo with an
    infinite/lossless result). :func:`repro.core.objective.refine` is
    the objective-level entry point.
    """
    if compressor.error_mode != "abs":
        raise InvalidConfiguration(
            "PSNR targeting requires an absolute-error compressor"
        )
    if probes < 0:
        raise InvalidConfiguration("probes must be >= 0")
    bound = analytic_bound_for_psnr(data, target_psnr)
    lo, hi = compressor.config_domain(data)
    bound = float(np.clip(bound, lo, hi))
    # Stairstep compressors (ZFP) have no config for every PSNR, so the
    # multiplicative correction can oscillate around the target; keep
    # the closest bound seen rather than the last.
    best_bound = bound
    best_achieved: float | None = None
    best_miss = np.inf
    spent = 0
    fingerprint = memo.fingerprint(data) if memo is not None else None
    for _ in range(probes):
        achieved = None
        key = None
        if memo is not None:
            key = memo.key(fingerprint, compressor, bound)
            record = memo.get(key)
            if record is not None and record.psnr is not None:
                achieved = record.psnr
        if achieved is None:
            tick = perf_counter()
            recon, blob = compressor.roundtrip(data, bound)
            seconds = perf_counter() - tick
            spent += 1
            achieved = psnr(data, recon)
            if memo is not None:
                from repro.parallel.memo import MemoRecord

                memo.put(
                    key,
                    MemoRecord(
                        ratio=blob.compression_ratio,
                        seconds=seconds,
                        psnr=float(achieved) if np.isfinite(achieved) else None,
                    ),
                )
        if not np.isfinite(achieved):
            # Lossless already; cannot miss the target from above.
            return bound, None, spent
        miss_db = achieved - target_psnr
        if abs(miss_db) < abs(best_miss):
            best_miss = miss_db
            best_bound = bound
            best_achieved = float(achieved)
        if abs(miss_db) < 0.5:
            break
        # One dB of excess quality <=> the bound may grow by 10**(1/20).
        bound = float(np.clip(bound * 10.0 ** (miss_db / 20.0), lo, hi))
    return best_bound, best_achieved, spent
