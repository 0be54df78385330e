"""The two serving SLOs, evaluated over a rolling window.

:class:`SLOTracker` watches the serving recorder's two request series
(:mod:`repro.serving.metrics`) and holds them to two fixed objectives:

* ``availability`` -- the ``outcome="ok"`` share of
  ``repro_serving_requests_total`` stays at or above ``availability``;
* ``latency_p99`` -- 99% of ``repro_serving_latency_seconds``
  observations finish within ``p99_seconds``.

**Burn rate** is the operator-facing number: the ratio of the error
rate actually observed in the window to the error rate the objective
*allows* (``1 - objective``). Burn 1.0 means the error budget is being
spent exactly as fast as it accrues; burn 10 means a 30-day budget is
gone in 3 days; burn 0 means no errors. An objective alerts once its
burn rate reaches 1.0.

The registry is a *point-in-time* store: counters answer "what is the
value now", never "what was it 30 seconds ago", and an SLO is a ratio
of *increases* over the window. So the tracker keeps a bounded ring of
small frames, one per :meth:`~SLOTracker.sample` (its daemon thread
samples once a second after :meth:`~SLOTracker.start`; tests sample by
hand). A frame is ``(unix, ok, total, latency bucket counts, latency
count)``, each summed over label sets; sampling reads those two series
and runs no collectors. Evaluation compares the newest frame with the
oldest one inside the window and exports ``repro_slo_compliance{slo=}``,
``repro_slo_burn_rate{slo=}`` and ``repro_slo_alert{slo=}`` gauges via
a pull-model collector, so any scrape of the registry re-evaluates.

**No data means no alert**: a window with zero events is compliant
(compliance 1.0, burn 0.0). An idle service is not in violation.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import asdict, dataclass

from repro.errors import InvalidConfiguration
from repro.obs.metrics import MetricsRegistry, bucket_interpolate

#: Cadence of the tracker's sampler thread, seconds.
_SAMPLE_INTERVAL = 1.0

_REQUESTS = "repro_serving_requests_total"
_LATENCY = "repro_serving_latency_seconds"

#: Share of requests that must finish within ``p99_seconds``.
_LATENCY_OBJECTIVE = 0.99


@dataclass(frozen=True)
class SLOStatus:
    """One evaluation result."""

    name: str
    kind: str
    objective: float
    window_seconds: float
    compliance: float
    burn_rate: float
    alerting: bool
    events: float
    detail: str = ""


def _status(name, kind, objective, window, good, events, detail) -> SLOStatus:
    if events <= 0:
        compliance, events, detail = 1.0, 0.0, "no traffic in window"
    else:
        compliance = good / events
    allowed = 1.0 - objective
    error_rate = 1.0 - compliance
    if error_rate <= 0.0:
        burn = 0.0
    elif allowed <= 0.0:
        burn = float("inf")  # a 100% objective has zero budget
    else:
        burn = error_rate / allowed
    return SLOStatus(
        name=name,
        kind=kind,
        objective=objective,
        window_seconds=window,
        compliance=compliance,
        burn_rate=burn,
        alerting=burn >= 1.0,
        events=events,
        detail=detail,
    )


class SLOTracker:
    """Samples the serving series, evaluates the two serving SLOs and
    exports ``repro_slo_*`` gauges.

    Args:
        registry: the registry to sample and to export to. The exporter
            is a pull-model collector, so every ``render_prometheus()``
            re-evaluates until :meth:`close` removes it.
        availability: required ``outcome="ok"`` share, in (0, 1].
        p99_seconds: the latency 99% of requests must finish within
            (exact on a bucket bound, interpolated within its bucket
            otherwise).
        window: rolling evaluation window, seconds.

    The ring keeps one frame per second across the window, plus a
    minute of slack so the window never outruns it (at least 120
    frames).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        availability: float,
        p99_seconds: float,
        window: float,
    ) -> None:
        if not 0.0 < availability <= 1.0:
            raise InvalidConfiguration(
                f"SLO availability must be in (0, 1], got {availability}"
            )
        if p99_seconds <= 0:
            raise InvalidConfiguration(
                f"SLO p99_seconds must be positive, got {p99_seconds}"
            )
        if window <= 0:
            raise InvalidConfiguration(
                f"SLO window must be positive, got {window}"
            )
        self.registry = registry
        self.availability = float(availability)
        self.p99_seconds = float(p99_seconds)
        self.window = float(window)
        self._frames: deque[tuple] = deque(maxlen=max(int(window) + 60, 120))
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._compliance = registry.gauge(
            "repro_slo_compliance", "good-event fraction in the SLO window"
        )
        self._burn = registry.gauge(
            "repro_slo_burn_rate",
            "error-budget burn rate (1 = spending budget as it accrues)",
        )
        self._alert = registry.gauge(
            "repro_slo_alert", "1 when the SLO burn rate is over its alert"
        )
        self._remove_collector = registry.register_collector(self._export)

    # -- sampling --------------------------------------------------------------

    def sample(self, unix: float | None = None) -> None:
        """Retain one frame of the two serving series (no collectors run)."""
        ok = total = 0.0
        counts, count = [], 0
        requests = self.registry.get(_REQUESTS)
        if requests is not None:
            for key in requests.labels():
                value = requests.value(**dict(key))
                total += value
                if ("outcome", "ok") in key:
                    ok += value
        latency = self.registry.get(_LATENCY)
        if latency is not None:
            counts = [0] * len(latency.buckets)
            for key in latency.labels():
                snapshot = latency.snapshot(**dict(key))
                counts = [a + b for a, b in zip(counts, snapshot["counts"])]
                count += snapshot["count"]
        frame = (
            time.time() if unix is None else float(unix), ok, total,
            counts, count,
        )
        with self._lock:
            self._frames.append(frame)

    def start(self) -> None:
        """Take a baseline frame, so increases exist after the first
        tick, and start the daemon sampler thread."""
        self.sample()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="fxrz-slo-sampler"
        )
        self._thread.start()

    def close(self, timeout: float = 5.0) -> None:
        """Stop the sampler thread and remove the collector (idempotent)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
        self._remove_collector()

    def _run(self) -> None:
        while not self._stop.wait(_SAMPLE_INTERVAL):
            try:
                self.sample()
            except Exception:  # noqa: BLE001 — a sampler must not die
                continue

    # -- evaluation and export -------------------------------------------------

    def evaluate(self) -> list[SLOStatus]:
        """Both SLOs over the trailing window: availability, then
        latency_p99."""
        ok = total = within = count = 0.0
        first = last = None
        with self._lock:
            if self._frames:
                last = self._frames[-1]
                cutoff = last[0] - self.window
                first = next(f for f in self._frames if f[0] >= cutoff)
        # Fewer than two frames in the window leaves every count at 0.
        if first is not last:
            ok, total = last[1] - first[1], last[2] - first[2]
            count = float(last[4] - first[4])
            if count > 0:
                old = first[3] or [0] * len(last[3])
                within = bucket_interpolate(
                    self.registry.get(_LATENCY).buckets,
                    [new - was for new, was in zip(last[3], old)],
                    value=self.p99_seconds,
                )
        return [
            _status(
                "availability", "availability", self.availability,
                self.window, ok, total, f"{ok:g}/{total:g} good",
            ),
            _status(
                "latency_p99", "latency", _LATENCY_OBJECTIVE, self.window,
                within, count,
                f"{within:g}/{count:g} under {self.p99_seconds:g}s",
            ),
        ]

    def _export(self) -> None:
        for status in self.evaluate():
            burn = status.burn_rate
            self._compliance.set(status.compliance, slo=status.name)
            self._burn.set(
                burn if burn != float("inf") else 1e12, slo=status.name
            )
            self._alert.set(1.0 if status.alerting else 0.0, slo=status.name)

    def report(self) -> dict:
        """JSON-friendly burn report (the ``/slo`` endpoint body)."""
        statuses = self.evaluate()
        with self._lock:
            frames = len(self._frames)
        return {
            "slos": [asdict(status) for status in statuses],
            "alerting": sorted(s.name for s in statuses if s.alerting),
            "frames_sampled": frames,
        }
