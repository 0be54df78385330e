"""Data augmentation by curve interpolation (paper Sec. IV-B, Fig. 2).

Running a compressor is expensive, so FXRZ runs it at only ~25
"stationary" error configurations per training dataset and linearly
interpolates the resulting (config -> compression ratio) curve. The
interpolated curve then supplies arbitrarily many (ratio, config)
training pairs, and — read backwards — an error configuration for any
target ratio inside the anchored range.

Absolute-error compressors are interpolated in log-config space (their
useful bounds span decades); precision compressors in linear space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.compressors.base import Compressor
from repro.errors import InvalidConfiguration
from repro.parallel.memo import measure_ratios


@dataclass(frozen=True)
class CompressionCurve:
    """Interpolated (error configuration -> compression ratio) curve.

    Attributes:
        configs: stationary configs, ascending.
        ratios: measured compression ratios at those configs.
        log_config: whether interpolation runs in log10(config) space.
        build_seconds: wall time spent running the compressor.
    """

    configs: np.ndarray
    ratios: np.ndarray
    log_config: bool
    build_seconds: float

    def __post_init__(self) -> None:
        if self.configs.size != self.ratios.size or self.configs.size < 2:
            raise InvalidConfiguration("curve needs >= 2 stationary points")
        if np.any(np.diff(self.configs) <= 0):
            raise InvalidConfiguration("stationary configs must be ascending")

    @property
    def ratio_range(self) -> tuple[float, float]:
        """Valid (min, max) compression ratios covered by the anchors."""
        return float(self.ratios.min()), float(self.ratios.max())

    def _config_axis(self) -> np.ndarray:
        return np.log10(self.configs) if self.log_config else self.configs

    def ratio_for_config(self, config: float) -> float:
        """Interpolate the compression ratio at ``config`` (clamped)."""
        axis = self._config_axis()
        x = np.log10(config) if self.log_config else config
        return float(np.interp(x, axis, self.ratios))

    def _inversion_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The (monotone ratios, config axis) table ``np.interp`` inverts."""
        axis = self._config_axis()
        ratios = self.ratios
        if ratios[0] > ratios[-1]:
            # Ratio decreases along the config axis: flip so the
            # envelope/interp below sees an ascending curve.
            axis = axis[::-1]
            ratios = ratios[::-1]
        monotone = np.maximum.accumulate(ratios)
        # np.interp needs strictly usable x: collapse duplicate ratios
        # to their first (cheapest) config.
        keep = np.concatenate(([True], np.diff(monotone) > 0))
        return monotone[keep], axis[keep]

    def config_for_ratio(self, ratio: float) -> float:
        """Interpolate the config expected to reach ``ratio`` (clamped).

        The measured ratio curve is made monotone (isotonic envelope)
        before inversion, which resolves the flat steps of stairwise
        compressors like ZFP to the cheapest config achieving each
        ratio. Curves whose ratio *falls* with the config axis —
        precision compressors like FPZIP — are inverted by traversing
        the axis in reverse.
        """
        return float(self.configs_for_ratios(np.asarray([ratio]))[0])

    def configs_for_ratios(self, ratios: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`config_for_ratio` over a ratio array.

        The inversion table is built once and every ratio goes through
        one ``np.interp`` call, so sampling hundreds of augmented pairs
        costs one pass instead of one envelope build per ratio.
        """
        monotone, axis = self._inversion_table()
        x = np.interp(np.asarray(ratios, dtype=np.float64), monotone, axis)
        return np.power(10.0, x) if self.log_config else x

    def sample(
        self, n_samples: int, seed: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``n_samples`` augmented (ratio, config) training pairs.

        Ratios are spread log-uniformly over the anchored range (with
        tiny jitter when seeded) and mapped through
        :meth:`config_for_ratio`. Log spacing matters: achievable
        ratios span decades while users request targets from the low
        decades, so uniform spacing would starve exactly the region
        the model is queried in.
        """
        if n_samples < 1:
            raise InvalidConfiguration("n_samples must be >= 1")
        lo, hi = self.ratio_range
        lo = max(lo, 1.0)
        hi = max(hi, lo * (1.0 + 1e-9))
        log_lo, log_hi = np.log(lo), np.log(hi)
        log_ratios = np.linspace(log_lo, log_hi, n_samples)
        if seed is not None and n_samples > 2:
            rng = np.random.default_rng(seed)
            span = (log_hi - log_lo) / max(n_samples - 1, 1)
            log_ratios[1:-1] += rng.uniform(-0.25, 0.25, n_samples - 2) * span
        ratios = np.exp(log_ratios)
        return ratios, self.configs_for_ratios(ratios)


def stationary_configs(
    compressor: Compressor,
    data: np.ndarray,
    n_points: int,
    domain: tuple[float, float] | None = None,
) -> np.ndarray:
    """Uniformly spanned error configurations (log or linear space)."""
    if n_points < 2:
        raise InvalidConfiguration("n_points must be >= 2")
    lo, hi = domain if domain is not None else compressor.config_domain(data)
    if lo >= hi:
        raise InvalidConfiguration("empty config domain")
    if compressor.config_scale == "log":
        configs = np.logspace(np.log10(lo), np.log10(hi), n_points)
    else:
        configs = np.unique(
            np.round(np.linspace(lo, hi, n_points)).astype(np.int64)
        ).astype(np.float64)
    return configs


def build_curve(
    compressor: Compressor,
    data: np.ndarray,
    n_points: int = 25,
    domain: tuple[float, float] | None = None,
    *,
    ctx=None,
    fingerprint: str | None = None,
) -> CompressionCurve:
    """Run the compressor at the stationary configs and anchor a curve.

    The sweep is the only place the whole framework pays for compressor
    runs (Table VI's dominant offline cost), and its ~25 evaluations are
    independent, so two accelerations apply through ``ctx`` (a
    :class:`~repro.runtime.RuntimeContext`):

    * the context's executor fans the evaluations over workers in
      fat batches; the field ships to process workers once via shared
      memory. Results are assembled in config order, so the curve is
      bit-identical to the serial one.
    * the context's memo answers already-paid evaluations before
      anything is submitted and records the rest, so repeated sweeps
      (re-training, benchmarks) skip the compressor entirely.
      ``fingerprint`` optionally supplies the precomputed content hash
      of ``data``.

    Both go through :func:`repro.parallel.memo.measure_ratios`, the
    probe path FRaZ shares.

    ``build_seconds`` totals the *compressor* time of the evaluations
    (memo hits charge their recorded time), which is the quantity
    Table VI accounts — under a parallel executor the wall clock is
    lower.
    """
    configs = stationary_configs(compressor, data, n_points, domain)
    with obs.span(
        "augmentation.build_curve",
        compressor=compressor.name,
        n_points=int(configs.size),
    ) as span:
        measured = measure_ratios(
            compressor,
            data,
            configs,
            memo=ctx.memo if ctx is not None else None,
            executor=ctx.executor if ctx is not None else None,
            fingerprint=fingerprint,
        )
        hits = sum(hit for _, _, hit in measured)
        span.set_attributes(
            memo_hits=hits, evaluated=int(configs.size) - hits
        )
        return CompressionCurve(
            configs=configs,
            ratios=np.array([ratio for ratio, _, _ in measured]),
            log_config=compressor.config_scale == "log",
            build_seconds=float(
                np.sum([seconds for _, seconds, _ in measured])
            ),
        )
