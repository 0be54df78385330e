"""FXRZ training engine (paper Fig. 1, steps 1-8).

For every training dataset the engine:

1. extracts the five adopted features on a stride-K subsample,
2. measures the non-constant block fraction R,
3. anchors a compression curve at ~25 stationary error configurations
   (the only compressor runs in the whole framework),
4. augments the curve into hundreds of (adjusted ratio, config) pairs,

then fits the regression model on rows
``[value_range, mean_value, MND, MLD, MSD, ACR] -> config`` (log-space
config for absolute-error compressors). The per-phase timing breakdown
feeds Table VI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.compressors.base import Compressor
from repro.config import FXRZConfig
from repro.core.adjustment import adjusted_ratio, nonconstant_fraction
from repro.core.augmentation import CompressionCurve, build_curve
from repro.core.features import extract_features
from repro.errors import InvalidConfiguration, NotFittedError
from repro.ml.forest import RandomForestRegressor


@dataclass
class TrainingReport:
    """Timing/size breakdown of one training run (Table VI)."""

    n_datasets: int = 0
    n_samples: int = 0
    stationary_seconds: float = 0.0
    augmentation_seconds: float = 0.0
    fit_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return self.stationary_seconds + self.augmentation_seconds + self.fit_seconds


@dataclass
class _DatasetRecord:
    """Cached per-dataset artifacts."""

    features: np.ndarray
    nonconstant: float
    curve: CompressionCurve


def default_model_factory(seed: int):
    """The model FXRZ adopts: a random forest regressor (Sec. IV-D)."""
    return RandomForestRegressor(
        n_estimators=40,
        max_depth=None,
        min_samples_leaf=2,
        max_features=None,
        random_state=seed,
    )


class TrainingEngine:
    """Accumulates training datasets and fits the error-config model.

    Args:
        compressor: the error-controlled compressor being modeled.
        config: framework knobs.
        model_factory: ``seed -> model`` override.
        ctx: a :class:`~repro.runtime.RuntimeContext`; supplies the
            sweep executor and the shared compression memo.
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
        self.model_factory = model_factory or default_model_factory
        self.ctx = ctx
        self.executor = ctx.executor if ctx is not None else None
        self.memo = ctx.memo if ctx is not None else None
        self.records: list[_DatasetRecord] = []
        self.report = TrainingReport()
        self._model = None

    def add_dataset(
        self,
        data: np.ndarray,
        domain: tuple[float, float] | None = None,
    ) -> CompressionCurve:
        """Ingest one training dataset; returns its anchored curve."""
        features = extract_features(
            data, stride=self.config.sampling_stride
        ).selected()
        nonconstant = (
            nonconstant_fraction(
                data, block_size=self.config.block_size, lam=self.config.lam
            )
            if self.config.use_adjustment
            else 1.0
        )
        curve = build_curve(
            self.compressor,
            data,
            n_points=self.config.stationary_points,
            domain=domain,
            ctx=self.ctx,
        )
        self.records.append(
            _DatasetRecord(features=features, nonconstant=nonconstant, curve=curve)
        )
        self.report.n_datasets += 1
        self.report.stationary_seconds += curve.build_seconds
        return curve

    def build_training_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """Augment every curve into the model's (X, y) matrix."""
        if not self.records:
            raise InvalidConfiguration("no training datasets added")
        start = time.perf_counter()
        rows: list[np.ndarray] = []
        targets: list[float] = []
        log_target = self.compressor.config_scale == "log"
        for i, record in enumerate(self.records):
            ratios, configs = record.curve.sample(
                self.config.augmented_samples, seed=self.config.seed + i
            )
            # Absolute error bounds scale with the data's amplitude;
            # regressing the *range-normalized* bound lets one model
            # serve datasets whose value ranges differ by decades
            # (cross-scope training, Fig. 14).
            scale = max(float(record.features[0]), 1e-30)
            for ratio, cfg in zip(ratios, configs):
                acr = adjusted_ratio(float(ratio), record.nonconstant)
                rows.append(np.concatenate((record.features, [acr])))
                targets.append(np.log10(cfg / scale) if log_target else cfg)
        self.report.augmentation_seconds += time.perf_counter() - start
        x = np.vstack(rows)
        y = np.array(targets)
        self.report.n_samples = y.size
        return x, y

    def fit(self):
        """Train the regression model; returns it."""
        x, y = self.build_training_matrix()
        start = time.perf_counter()
        model = self.model_factory(self.config.seed)
        model.fit(x, y)
        self.report.fit_seconds += time.perf_counter() - start
        self._model = model
        return model

    @property
    def model(self):
        if self._model is None:
            raise NotFittedError("TrainingEngine.fit has not been called")
        return self._model
