"""Declarative SLOs with rolling error-budget burn-rate evaluation.

An :class:`SLO` states an objective over a rolling window — "99.9% of
requests succeed", "99% of requests finish under 250 ms" — and is
evaluated against the history an :class:`SLOTracker` samples from its
registry.

**Burn rate** is the operator-facing number: the ratio of the error
rate actually observed in the window to the error rate the objective
*allows* (``1 - objective``). Burn 1.0 means the error budget is being
spent exactly as fast as it accrues; burn 10 means a 30-day budget is
gone in 3 days; burn 0 means no errors. An SLO alerts when its burn
rate crosses ``alert_burn_rate`` (default 1.0).

:class:`SLOTracker` owns a set of SLOs and the history they read. The
registry is a *point-in-time* store: counters answer "what is the value
now", never "what was it 30 seconds ago", and an availability SLO is a
ratio of counter *deltas* over a rolling window. So the tracker keeps a
bounded ring of registry snapshots, one frame per
:meth:`~SLOTracker.sample` (its daemon thread samples once a second
after :meth:`~SLOTracker.start`; tests sample by hand). It evaluates
the SLOs against that ring on demand and exports the results as
``repro_slo_compliance{slo=}``, ``repro_slo_burn_rate{slo=}`` and
``repro_slo_alert{slo=}`` gauges via a pull-model collector, so any
scrape of the registry re-evaluates. Sampling runs the registry's
collectors, exactly like an export, and touches no hot path.

**No data means no alert**: a window with zero events is compliant
(compliance 1.0, burn 0.0). An idle service is not in violation.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

from repro.errors import InvalidConfiguration
from repro.obs.metrics import Histogram, MetricsRegistry, bucket_interpolate

#: Cadence of the tracker's sampler thread, seconds.
_SAMPLE_INTERVAL = 1.0


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

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "window_seconds": self.window_seconds,
            "compliance": self.compliance,
            "burn_rate": self.burn_rate,
            "alerting": self.alerting,
            "events": self.events,
            "detail": self.detail,
        }


class SLO:
    """Base: a named objective over a rolling window.

    Args:
        name: identifier used in the ``slo=`` metric label.
        objective: required good-event fraction, in (0, 1].
        window: rolling evaluation window, seconds.
        alert_burn_rate: burn rate at which :attr:`SLOStatus.alerting`
            flips on (1.0 = budget spent as fast as it accrues).
    """

    kind = "slo"

    def __init__(
        self,
        name: str,
        *,
        objective: float,
        window: float,
        alert_burn_rate: float = 1.0,
    ) -> None:
        if not name:
            raise InvalidConfiguration("an SLO needs a non-empty name")
        if not 0.0 < objective <= 1.0:
            raise InvalidConfiguration(
                f"SLO {name}: objective must be in (0, 1], got {objective}"
            )
        if window <= 0:
            raise InvalidConfiguration(
                f"SLO {name}: window must be positive, got {window}"
            )
        if alert_burn_rate <= 0:
            raise InvalidConfiguration(
                f"SLO {name}: alert_burn_rate must be positive"
            )
        self.name = name
        self.objective = float(objective)
        self.window = float(window)
        self.alert_burn_rate = float(alert_burn_rate)

    # subclasses return (compliance, events, detail)
    def _measure(
        self, tracker: "SLOTracker"
    ) -> tuple[float, float, str]:  # pragma: no cover - abstract
        raise NotImplementedError

    def evaluate(self, tracker: "SLOTracker") -> SLOStatus:
        compliance, events, detail = self._measure(tracker)
        allowed = 1.0 - self.objective
        error_rate = 1.0 - compliance
        if error_rate <= 0.0:
            burn = 0.0
        elif allowed <= 0.0:
            burn = float("inf")  # a 100% objective has zero budget
        else:
            burn = error_rate / allowed
        return SLOStatus(
            name=self.name,
            kind=self.kind,
            objective=self.objective,
            window_seconds=self.window,
            compliance=compliance,
            burn_rate=burn,
            alerting=burn >= self.alert_burn_rate,
            events=events,
            detail=detail,
        )


class AvailabilitySLO(SLO):
    """Good-outcome fraction of a labelled request counter.

    Over the window, ``good = sum(delta(counter{label=v}))`` for ``v``
    in ``good_values``; compliance is ``good / total``. The default
    wiring reads ``repro_serving_requests_total{outcome=...}`` where
    the serving recorder writes ``outcome="ok"`` / ``outcome="error"``.
    """

    kind = "availability"

    def __init__(
        self,
        name: str = "availability",
        *,
        objective: float = 0.999,
        window: float = 300.0,
        counter: str = "repro_serving_requests_total",
        label: str = "outcome",
        good_values: tuple = ("ok",),
        alert_burn_rate: float = 1.0,
    ) -> None:
        super().__init__(
            name,
            objective=objective,
            window=window,
            alert_burn_rate=alert_burn_rate,
        )
        self.counter = counter
        self.label = label
        self.good_values = tuple(good_values)

    def _measure(self, tracker: "SLOTracker") -> tuple[float, float, str]:
        total = tracker.delta(self.counter, self.window)
        if total <= 0:
            return 1.0, 0.0, "no traffic in window"
        good = sum(
            tracker.delta(
                self.counter, self.window, labels={self.label: value}
            )
            for value in self.good_values
        )
        return good / total, total, f"{good:g}/{total:g} good"


class LatencySLO(SLO):
    """Fraction of requests under a latency threshold, from a histogram.

    Compliance is the fraction of window events at or below
    ``threshold_seconds``, read from the window's bucket counts by
    :func:`~repro.obs.metrics.bucket_interpolate`: exact when the
    threshold is a bucket bound (0.25 s is one on the default grid),
    interpolated within its bucket otherwise. An objective of 0.99 with
    a 0.25 s threshold reads as "p99 latency stays under 250 ms".
    """

    kind = "latency"

    def __init__(
        self,
        name: str = "latency_p99",
        *,
        objective: float = 0.99,
        window: float = 300.0,
        threshold_seconds: float = 0.25,
        histogram: str = "repro_serving_latency_seconds",
        alert_burn_rate: float = 1.0,
    ) -> None:
        super().__init__(
            name,
            objective=objective,
            window=window,
            alert_burn_rate=alert_burn_rate,
        )
        if threshold_seconds <= 0:
            raise InvalidConfiguration(
                f"SLO {name}: threshold_seconds must be positive"
            )
        self.threshold_seconds = float(threshold_seconds)
        self.histogram = histogram

    def _measure(self, tracker: "SLOTracker") -> tuple[float, float, str]:
        delta = tracker.histogram_delta(self.histogram, self.window)
        if delta is None or delta["count"] <= 0:
            return 1.0, 0.0, "no traffic in window"
        metric = tracker.registry.get(self.histogram)
        bounds = getattr(metric, "buckets", None)
        if not bounds:
            return 1.0, 0.0, "histogram has no bucket bounds"
        within = bucket_interpolate(
            bounds, delta["counts"], value=self.threshold_seconds
        )
        total = delta["count"]
        return (
            within / total,
            total,
            f"{within:g}/{total:g} under {self.threshold_seconds:g}s",
        )


@dataclass(frozen=True)
class _Frame:
    """One full registry snapshot.

    ``scalars`` maps ``(metric_name, label_key)`` to the counter/gauge
    value; ``histograms`` maps the same key to a
    ``{"counts": [...], "sum": s, "count": n}`` snapshot. Label keys
    are the registry's canonical sorted tuples.
    """

    unix: float
    scalars: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class SLOTracker:
    """Samples a registry's history, evaluates a set of SLOs against it
    and exports ``repro_slo_*`` gauges.

    Args:
        registry: the registry to sample and to export to. The exporter
            is a pull-model collector, so every ``render_prometheus()``
            re-evaluates until :meth:`close` removes it.
        slos: the SLO set (:func:`default_serving_slos` gives the stock
            one).

    The ring keeps one frame per second across the longest SLO window,
    plus a minute of slack so the window never outruns it (at least
    120 frames).
    """

    def __init__(
        self, registry: MetricsRegistry, slos: list[SLO] | None = None
    ) -> None:
        self.registry = registry
        self.slos = list(slos) if slos is not None else []
        names = [slo.name for slo in self.slos]
        if len(set(names)) != len(names):
            raise InvalidConfiguration(
                f"SLO names must be unique, got {names}"
            )
        window = max((slo.window for slo in self.slos), default=0.0)
        self._frames: deque[_Frame] = deque(maxlen=max(int(window) + 60, 120))
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
        """Snapshot every series into one frame and retain it.

        Every other collector refreshes its gauges first. The tracker's
        own is skipped: no SLO reads the ``repro_slo_*`` gauges, and
        the next export re-evaluates them anyway.
        """
        self.registry.collect(skip=self._export)
        frame = _Frame(unix=time.time() if unix is None else float(unix))
        for metric in self.registry.metrics():
            if isinstance(metric, Histogram):
                for key in metric.labels():
                    frame.histograms[(metric.name, key)] = metric.snapshot(
                        **dict(key)
                    )
            else:
                for key in metric.labels():
                    frame.scalars[(metric.name, key)] = metric.value(
                        **dict(key)
                    )
        with self._lock:
            self._frames.append(frame)

    def start(self) -> None:
        """Take a baseline frame, so deltas exist after the first tick,
        and start the daemon sampler thread."""
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

    # -- reading the history ---------------------------------------------------

    def _window(self, seconds: float) -> list[_Frame]:
        """Frames no older than ``seconds`` before the newest frame."""
        with self._lock:
            if not self._frames:
                return []
            cutoff = self._frames[-1].unix - float(seconds)
            return [f for f in self._frames if f.unix >= cutoff]

    def delta(
        self, name: str, seconds: float, labels: dict | None = None
    ) -> float:
        """Counter increase over the trailing window (0 without history).

        Sums the increase across *all* label sets of ``name`` when
        ``labels`` is ``None`` — the natural shape for an availability
        SLO over ``repro_serving_requests_total{outcome=...}``.
        """
        frames = self._window(seconds)
        if len(frames) < 2:
            return 0.0
        first, last = frames[0], frames[-1]
        if labels is None:
            keys = {
                key
                for metric_name, key in last.scalars
                if metric_name == name
            }
        else:
            keys = {_label_key(labels)}
        total = 0.0
        for key in keys:
            newest = last.scalars.get((name, key), 0.0)
            oldest = first.scalars.get((name, key), 0.0)
            # A counter that resets (process restart) shows a drop;
            # count the post-reset value rather than a negative delta.
            total += newest - oldest if newest >= oldest else newest
        return total

    def histogram_delta(self, name: str, seconds: float) -> dict | None:
        """Bucket-count / sum / count increases over the trailing window.

        Aggregated across label sets; ``None`` when the metric never
        appeared or fewer than two frames cover the window.
        """
        frames = self._window(seconds)
        if len(frames) < 2:
            return None
        first, last = frames[0], frames[-1]
        keys = {
            key for metric_name, key in last.histograms if metric_name == name
        }
        if not keys:
            return None
        counts: list[float] | None = None
        total_sum = 0.0
        total_count = 0.0
        for key in keys:
            newest = last.histograms.get((name, key))
            oldest = first.histograms.get(
                (name, key),
                {"counts": [0] * len(newest["counts"]), "sum": 0.0, "count": 0},
            )
            if newest["count"] < oldest["count"]:  # reset mid-window
                oldest = {
                    "counts": [0] * len(newest["counts"]),
                    "sum": 0.0,
                    "count": 0,
                }
            if counts is None:
                counts = [0.0] * len(newest["counts"])
            for index, (new, old) in enumerate(
                zip(newest["counts"], oldest["counts"])
            ):
                counts[index] += new - old
            total_sum += newest["sum"] - oldest["sum"]
            total_count += newest["count"] - oldest["count"]
        return {"counts": counts, "sum": total_sum, "count": total_count}

    # -- evaluation and export -------------------------------------------------

    def evaluate(self) -> list[SLOStatus]:
        """Evaluate every SLO against the history, in declaration order."""
        return [slo.evaluate(self) for slo in self.slos]

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
            "slos": [status.to_dict() for status in statuses],
            "alerting": sorted(s.name for s in statuses if s.alerting),
            "frames_sampled": frames,
        }


def default_serving_slos(
    *,
    availability: float = 0.999,
    p99_seconds: float = 0.25,
    window: float = 300.0,
) -> list[SLO]:
    """The stock serving SLO set, shaped by the ``slo_*`` config knobs.

    Availability and p99 latency both read the serving recorder's
    metrics.
    """
    return [
        AvailabilitySLO(objective=availability, window=window),
        LatencySLO(
            objective=0.99, threshold_seconds=p99_seconds, window=window
        ),
    ]
