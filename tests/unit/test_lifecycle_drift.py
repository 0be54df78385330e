"""Unit tests for the drift detector."""

import dataclasses

import numpy as np
import pytest

from repro.errors import InvalidConfiguration
from repro.lifecycle import DriftDetector, OutcomeRecord
from repro.robustness.confidence import FeatureEnvelope

pytestmark = pytest.mark.lifecycle

#: 6-dim envelope: five features in [0, 1], ACR in [2, 20].
ENVELOPE = FeatureEnvelope(
    np.array(
        [
            [0.0, 0.0, 0.0, 0.0, 0.0, 2.0],
            [1.0, 1.0, 1.0, 1.0, 1.0, 20.0],
        ]
    ),
    margin=0.0,
)


def record(
    *, inside: bool = True, measured: float | None = None, target: float = 10.0
) -> OutcomeRecord:
    features = (0.5,) * 5 if inside else (5.0,) * 5
    return OutcomeRecord(
        dataset_key="k",
        compressor="sz",
        features=features,
        nonconstant=0.8,
        target_ratio=target,
        adjusted_target=8.0,
        config=1e-3,
        measured_ratio=measured,
        source="test",
    )


def detector(**options) -> DriftDetector:
    options.setdefault("window", 32)
    options.setdefault("min_samples", 4)
    options.setdefault("hysteresis", 3)
    return DriftDetector(ENVELOPE, **options)


class TestSignals:
    def test_stable_on_in_envelope_traffic(self):
        det = detector()
        for _ in range(20):
            det.observe(record(inside=True))
        assert det.state == "stable"
        assert det.snapshot.ood_rate == 0.0

    def test_ood_traffic_trips_after_hysteresis(self):
        det = detector()
        snapshots = [det.observe(record(inside=False)) for _ in range(8)]
        # min_samples=4 gates the first hot observations; 3 consecutive
        # hot ones past that trip the detector.
        assert snapshots[2].state == "stable"
        assert det.state == "drifting"
        assert det.trips == 1

    def test_non_finite_features_count_as_ood(self):
        det = detector()
        nan_row = dataclasses.replace(
            record(inside=True), features=(0.5, float("nan"), 0.5, 0.5, 0.5)
        )
        det.observe(record(inside=True))
        det.observe(nan_row)
        assert det.snapshot.ood_rate == 0.5

    def test_calibration_error_alone_trips(self):
        det = detector(error_threshold=0.2, error_alpha=1.0)
        # In-envelope traffic whose measured ratio is 40% off target.
        for _ in range(8):
            det.observe(record(inside=True, measured=6.0, target=10.0))
        assert det.state == "drifting"
        assert det.snapshot.error_ewma == pytest.approx(0.4)

    def test_estimate_only_records_leave_ewma_unset(self):
        det = detector()
        det.observe(record(inside=True))
        assert det.snapshot.error_ewma is None

    def test_hysteresis_blocks_flapping(self):
        det = detector()
        for _ in range(10):
            det.observe(record(inside=False))
        assert det.state == "drifting"
        # Two cool observations are not enough to leave drifting...
        window_flush = [record(inside=True)] * 2
        det.observe_all(window_flush)
        assert det.state == "drifting"
        # ...but the OOD rate must also fall below threshold to cool;
        # flush the window with in-envelope traffic.
        for _ in range(40):
            det.observe(record(inside=True))
        assert det.state == "stable"
        assert det.trips == 1  # the recovery is not a new trip

    def test_reset_returns_to_stable_but_keeps_trips(self):
        det = detector()
        for _ in range(10):
            det.observe(record(inside=False))
        assert det.drifting
        det.reset()
        assert det.state == "stable"
        assert det.snapshot.samples == 0
        assert det.trips == 1

    def test_validates_options(self):
        with pytest.raises(InvalidConfiguration):
            detector(window=0)
        with pytest.raises(InvalidConfiguration):
            detector(ood_threshold=0.0)
        with pytest.raises(InvalidConfiguration):
            detector(error_threshold=0.0)
        with pytest.raises(InvalidConfiguration):
            detector(hysteresis=0)
        with pytest.raises(InvalidConfiguration):
            detector(error_alpha=1.5)

    def test_metrics_exported_through_collector(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        det = DriftDetector(
            ENVELOPE, window=32, min_samples=4, hysteresis=1, registry=registry
        )
        for _ in range(6):
            det.observe(record(inside=False))
        text = registry.render_prometheus()
        assert "repro_lifecycle_drift_state 1" in text
        assert "repro_lifecycle_drift_ood_rate 1" in text
        assert "repro_lifecycle_drift_trips_total 1" in text
