"""Drift detection over the serving-outcome stream.

Two independent signals, evaluated over a rolling window of
:class:`~repro.lifecycle.outcomes.OutcomeRecord`\\ s:

* **Feature OOD rate** — the fraction of recent requests whose
  ``[features..., ACR]`` row falls outside the model's training
  :class:`~repro.robustness.confidence.FeatureEnvelope`. A model can
  only answer the distribution it saw; traffic migrating out of the
  envelope is drift even before any error is measured.
* **Calibration error EWMA** — an exponentially weighted average of
  the relative CR error of *measured* outcomes (|TCR - MCR| / TCR).
  This catches the opposite failure: traffic that looks in-envelope
  but whose ratio-config relationship has shifted (e.g. a smooth field
  turned noisy at similar amplitude).

Either signal crossing its threshold makes an observation "hot";
``hysteresis`` consecutive hot observations trip the detector to
``drifting``, and the same count of cool observations returns it to
``stable`` — one bad batch cannot flap the state. The detector is the
trigger side of the retrain loop: the
:class:`~repro.lifecycle.retrain.BackgroundRetrainer` polls it via
``maybe_trigger``.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.errors import InvalidConfiguration
from repro.lifecycle.outcomes import OutcomeRecord

STABLE = "stable"
DRIFTING = "drifting"

_BREAKER_CODES = {STABLE: 0.0, DRIFTING: 1.0}


@dataclass(frozen=True)
class DriftSnapshot:
    """Frozen view of the detector after one observation.

    Attributes:
        state: ``"stable"`` or ``"drifting"``.
        samples: observations currently in the rolling window.
        ood_rate: fraction of the window outside the envelope.
        error_ewma: calibration-error EWMA (``None`` until a measured
            outcome arrives).
        hot_streak: consecutive hot observations so far.
        cool_streak: consecutive cool observations so far.
        trips: stable -> drifting transitions since construction.
    """

    state: str
    samples: int
    ood_rate: float
    error_ewma: float | None
    hot_streak: int
    cool_streak: int
    trips: int


class DriftDetector:
    """Hysteretic drift detector over a rolling outcome window.

    Args:
        envelope: the model's training
            :class:`~repro.robustness.confidence.FeatureEnvelope`
            (features + ACR dimensions).
        window: rolling window length (observations).
        ood_threshold: window OOD fraction at or above which an
            observation is hot.
        error_threshold: calibration-error EWMA at or above which an
            observation is hot.
        hysteresis: consecutive hot (cool) observations required to
            enter (leave) ``drifting``.
        min_samples: observations required before the detector may
            trip at all (a two-request window is noise, not evidence).
        error_alpha: EWMA smoothing factor in (0, 1].
        registry: a :class:`~repro.obs.MetricsRegistry`; when given the
            detector exports ``repro_lifecycle_drift_state`` /
            ``_drift_ood_rate`` / ``_drift_error_ewma`` gauges and a
            ``repro_lifecycle_drift_trips_total`` counter.
    """

    def __init__(
        self,
        envelope,
        *,
        window: int = 256,
        ood_threshold: float = 0.5,
        error_threshold: float = 0.25,
        hysteresis: int = 3,
        min_samples: int = 16,
        error_alpha: float = 0.2,
        registry=None,
    ) -> None:
        if window < 1:
            raise InvalidConfiguration("window must be >= 1")
        if not 0.0 < ood_threshold <= 1.0:
            raise InvalidConfiguration("ood_threshold must be in (0, 1]")
        if error_threshold <= 0.0:
            raise InvalidConfiguration("error_threshold must be > 0")
        if hysteresis < 1:
            raise InvalidConfiguration("hysteresis must be >= 1")
        if min_samples < 1:
            raise InvalidConfiguration("min_samples must be >= 1")
        if not 0.0 < error_alpha <= 1.0:
            raise InvalidConfiguration("error_alpha must be in (0, 1]")
        self.envelope = envelope
        self.window = int(window)
        self.ood_threshold = float(ood_threshold)
        self.error_threshold = float(error_threshold)
        self.hysteresis = int(hysteresis)
        self.min_samples = int(min_samples)
        self.error_alpha = float(error_alpha)
        self._lock = threading.Lock()
        self._ood: deque[bool] = deque(maxlen=self.window)
        self._error_ewma: float | None = None
        self._hot_streak = 0
        self._cool_streak = 0
        self._state = STABLE
        self._trips = 0
        self._trips_counter = None
        self._remove_collector = lambda: None
        if registry is not None:
            self._bind_metrics(registry)

    @classmethod
    def for_pipeline(
        cls, pipeline, *, envelope_margin: float = 0.05, **options
    ) -> "DriftDetector":
        """A detector over a fitted pipeline's training envelope."""
        from repro.robustness.confidence import FeatureEnvelope

        return cls(
            FeatureEnvelope.for_pipeline(pipeline, margin=envelope_margin),
            **options,
        )

    # -- observation -----------------------------------------------------------

    def observe(self, record: OutcomeRecord) -> DriftSnapshot:
        """Fold one outcome into the window; returns the new state."""
        row = np.concatenate(
            (np.asarray(record.features, dtype=np.float64),
             [float(record.adjusted_target)])
        )
        violation = float(self.envelope.violation(row))
        relative_error = record.relative_error
        with self._lock:
            self._ood.append(violation > 0.0)
            if relative_error is not None:
                if self._error_ewma is None:
                    self._error_ewma = float(relative_error)
                else:
                    self._error_ewma = (
                        (1.0 - self.error_alpha) * self._error_ewma
                        + self.error_alpha * float(relative_error)
                    )
            ood_rate = sum(self._ood) / len(self._ood)
            hot = len(self._ood) >= self.min_samples and (
                ood_rate >= self.ood_threshold
                or (
                    self._error_ewma is not None
                    and self._error_ewma >= self.error_threshold
                )
            )
            if hot:
                self._hot_streak += 1
                self._cool_streak = 0
                if (
                    self._state == STABLE
                    and self._hot_streak >= self.hysteresis
                ):
                    self._state = DRIFTING
                    self._trips += 1
                    tripped = True
                else:
                    tripped = False
            else:
                self._cool_streak += 1
                self._hot_streak = 0
                tripped = False
                if (
                    self._state == DRIFTING
                    and self._cool_streak >= self.hysteresis
                ):
                    self._state = STABLE
            snapshot = self._snapshot_locked(ood_rate)
        if tripped:
            if self._trips_counter is not None:
                self._trips_counter.inc()
            # A zero-duration event span marking the trip, so retrain
            # traces can be lined up against what set them off.
            with obs.span(
                "lifecycle.drift_trip",
                ood_rate=snapshot.ood_rate,
                error_ewma=snapshot.error_ewma,
                samples=snapshot.samples,
            ):
                pass
        return snapshot

    def observe_all(self, records) -> DriftSnapshot:
        """Fold a batch of outcomes; returns the final state."""
        snapshot = self.snapshot
        for record in records:
            snapshot = self.observe(record)
        return snapshot

    # -- state -----------------------------------------------------------------

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def drifting(self) -> bool:
        return self.state == DRIFTING

    @property
    def trips(self) -> int:
        with self._lock:
            return self._trips

    @property
    def snapshot(self) -> DriftSnapshot:
        with self._lock:
            rate = sum(self._ood) / len(self._ood) if self._ood else 0.0
            return self._snapshot_locked(rate)

    def _snapshot_locked(self, ood_rate: float) -> DriftSnapshot:
        return DriftSnapshot(
            state=self._state,
            samples=len(self._ood),
            ood_rate=float(ood_rate),
            error_ewma=self._error_ewma,
            hot_streak=self._hot_streak,
            cool_streak=self._cool_streak,
            trips=self._trips,
        )

    def reset(self) -> None:
        """Clear the window and return to ``stable`` (keeps ``trips``).

        The retrainer calls this after a promotion: the old window
        described the *previous* model's calibration, and judging the
        fresh model by it would re-trip immediately.
        """
        with self._lock:
            self._ood.clear()
            self._error_ewma = None
            self._hot_streak = 0
            self._cool_streak = 0
            self._state = STABLE

    # -- metrics ---------------------------------------------------------------

    def _bind_metrics(self, registry) -> None:
        self._trips_counter = registry.counter(
            "repro_lifecycle_drift_trips_total",
            "stable -> drifting transitions",
        )
        state_gauge = registry.gauge(
            "repro_lifecycle_drift_state",
            "drift detector state (0 stable, 1 drifting)",
        )
        ood_gauge = registry.gauge(
            "repro_lifecycle_drift_ood_rate",
            "fraction of the rolling window outside the training envelope",
        )
        error_gauge = registry.gauge(
            "repro_lifecycle_drift_error_ewma",
            "calibration-error EWMA of measured outcomes",
        )

        def collect() -> None:
            snapshot = self.snapshot
            state_gauge.set(_BREAKER_CODES.get(snapshot.state, -1.0))
            ood_gauge.set(snapshot.ood_rate)
            if snapshot.error_ewma is not None:
                error_gauge.set(snapshot.error_ewma)

        self._remove_collector = registry.register_collector(collect)

    def close(self) -> None:
        """Stop exporting the drift gauges: remove the collector (idempotent).

        The collector closes over this detector, so until it is removed
        the metrics registry keeps the detector alive.
        """
        self._remove_collector()
