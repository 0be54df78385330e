"""Telemetry-plane unit tests: SLO tracker history, SLO burn, scrape
server.

Covers the :class:`SLOTracker`'s frame ring (capacity eviction, window
cut-off, label-set sums, overflow observations, the sampler thread and
its collector-free sampling), the two serving SLOs (availability and
p99 latency) with burn-rate/alerting semantics and the ``repro_slo_*``
collector export, the pinned ``/slo`` body and exposition under
scripted traffic, and the embedded scrape endpoint's four routes.
"""

from __future__ import annotations

import json
import pathlib
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.errors import InvalidConfiguration
from repro.runtime import RuntimeConfig
from repro.serving.metrics import MetricsRecorder

pytestmark = pytest.mark.obs

_CONTRACT = json.loads(
    (pathlib.Path(__file__).parent / "data" / "slo_contract.json").read_text()
)


@pytest.fixture()
def registry():
    return obs.MetricsRegistry()


def _fetch(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read().decode("utf-8")


def _tracker(registry, **overrides):
    """A tracker shaped like the service's: the ``slo_*`` defaults of
    :class:`RuntimeConfig`, with ``overrides`` on top."""
    config = RuntimeConfig()
    options = {
        "availability": config.slo_availability,
        "p99_seconds": config.slo_p99_ms / 1000.0,
        "window": config.slo_window,
    }
    options.update(overrides)
    return obs.SLOTracker(registry, **options)


def _requests(registry):
    return registry.counter("repro_serving_requests_total")


def _latency(registry, **options):
    return registry.histogram("repro_serving_latency_seconds", **options)


class TestTimeSeriesBuffer:
    """The SLO tracker's own time series: frame ring, windowed increases
    and the sampler thread."""

    def test_capacity_evicts_oldest(self, registry):
        # The ring holds the window in 1 s frames plus a minute of
        # slack: 160 frames for a 100 s window, never fewer than 120.
        requests = _requests(registry)
        tracker = _tracker(registry, window=100.0)
        for _ in range(170):
            requests.inc(outcome="ok")
            tracker.sample(unix=0.0)
        report = tracker.report()
        assert report["frames_sampled"] == 160
        # One timestamp puts the whole ring in the window: its oldest
        # frame, the 11th sample, is the baseline.
        assert report["slos"][0]["events"] == 159.0
        small = _tracker(registry, window=30.0)
        assert small.report()["frames_sampled"] == 0
        for _ in range(130):
            small.sample(unix=0.0)
        assert small.report()["frames_sampled"] == 120

    def test_delta_aggregates_label_sets(self, registry):
        requests = _requests(registry)
        latency = _latency(registry)
        tracker = _tracker(registry, window=60.0)
        requests.inc(3, outcome="ok")
        tracker.sample(unix=100.0)
        requests.inc(2, outcome="ok")
        requests.inc(1, outcome="error")
        latency.observe(0.1, outcome="ok")
        latency.observe(0.5, outcome="error")
        tracker.sample(unix=101.0)
        availability, p99 = tracker.evaluate()
        assert availability.events == 3.0
        assert availability.detail == "2/3 good"
        assert p99.events == 2.0
        assert p99.detail == "1/2 under 0.25s"

    def test_delta_without_history_is_zero(self, registry):
        tracker = _tracker(registry)
        for status in tracker.evaluate():
            assert (status.events, status.compliance) == (0.0, 1.0)
        _requests(registry).inc(4, outcome="error")
        _latency(registry).observe(9.0, outcome="error")
        tracker.sample(unix=0.0)
        # One frame has no baseline: nothing has happened in the window.
        for status in tracker.evaluate():
            assert (status.events, status.compliance) == (0.0, 1.0)
            assert status.detail == "no traffic in window"

    def test_histogram_delta(self, registry):
        latency = _latency(registry, buckets=(0.1, 1.0))
        tracker = _tracker(registry, p99_seconds=1.0)
        latency.observe(0.05, outcome="ok")
        tracker.sample(unix=0.0)
        latency.observe(0.5, outcome="ok")
        latency.observe(5.0, outcome="ok")  # overflow: only in count
        tracker.sample(unix=1.0)
        p99 = tracker.evaluate()[1]
        assert p99.events == 2.0
        assert p99.compliance == 0.5
        assert p99.detail == "1/2 under 1s"

    def test_window_and_series(self, registry):
        requests = _requests(registry)
        tracker = _tracker(registry, window=20.0)
        for i in range(5):
            requests.inc(outcome="ok")
            tracker.sample(unix=float(i * 10))
        # The 20 s window holds unix 20, 30, 40: two requests since 20.
        assert tracker.evaluate()[0].events == 2.0

    def test_sampler_thread_runs_and_stops(self, registry, monkeypatch):
        from repro.obs import slo as slo_module

        monkeypatch.setattr(slo_module, "_SAMPLE_INTERVAL", 0.01)
        _requests(registry).inc(outcome="ok")
        before = len(registry._collectors)
        tracker = _tracker(registry)
        tracker.start()
        try:
            # start() takes the baseline frame before the first tick.
            assert tracker.report()["frames_sampled"] >= 1
            give_up = time.monotonic() + 5.0
            while (tracker.report()["frames_sampled"] < 3
                   and time.monotonic() < give_up):
                time.sleep(0.01)
            assert tracker.report()["frames_sampled"] >= 3
        finally:
            tracker.close()
        assert not tracker._thread.is_alive()
        assert len(registry._collectors) == before
        tracker.close()  # idempotent

    def test_sample_runs_no_collector(self, registry):
        calls = []
        registry.register_collector(lambda: calls.append(1))
        tracker = _tracker(registry)
        for second in range(3):
            tracker.sample(unix=float(second))
        assert calls == []
        registry.render_prometheus()
        assert calls == [1]
        tracker.close()


class TestSLOs:
    def _traffic(self, registry, ok: int, error: int, **options):
        requests = _requests(registry)
        tracker = _tracker(registry, **options)
        tracker.sample(unix=0.0)
        if ok:
            requests.inc(ok, outcome="ok")
        if error:
            requests.inc(error, outcome="error")
        tracker.sample(unix=10.0)
        return tracker

    def test_availability_burn_and_alert(self, registry):
        tracker = self._traffic(
            registry, ok=9, error=1, availability=0.9, window=60.0
        )
        status = tracker.evaluate()[0]
        assert status.compliance == pytest.approx(0.9)
        # error rate 0.1 against a 0.1 budget: burning exactly at rate.
        assert status.burn_rate == pytest.approx(1.0)
        assert status.alerting
        assert status.events == 10.0

    def test_no_traffic_is_compliant(self, registry):
        tracker = _tracker(registry, window=60.0)
        tracker.sample(unix=0.0)
        tracker.sample(unix=1.0)
        for status in tracker.evaluate():
            assert status.compliance == 1.0
            assert status.burn_rate == 0.0
            assert not status.alerting

    def test_perfect_objective_has_infinite_burn(self, registry):
        tracker = self._traffic(
            registry, ok=9, error=1, availability=1.0, window=60.0
        )
        status = tracker.evaluate()[0]
        assert status.burn_rate == float("inf")
        assert status.alerting
        # The gauge carries a finite stand-in for the infinite burn.
        text = registry.render_prometheus()
        assert 'repro_slo_burn_rate{slo="availability"} 1e+12' in text

    def test_latency_threshold_counts_buckets(self, registry):
        latency = _latency(registry, buckets=(0.1, 0.25, 1.0))
        tracker = _tracker(registry, p99_seconds=0.25, window=60.0)
        tracker.sample(unix=0.0)
        for value in (0.05, 0.2, 0.9):
            latency.observe(value, outcome="ok")
        tracker.sample(unix=10.0)
        status = tracker.evaluate()[1]
        assert status.objective == 0.99
        assert status.compliance == pytest.approx(2.0 / 3.0)
        assert status.events == 3.0

    def _latency_traffic(self, registry, latencies, **options):
        latency = _latency(registry)
        tracker = _tracker(registry, **options)
        tracker.sample(unix=0.0)
        for value in latencies:
            latency.observe(value, outcome="ok")
        tracker.sample(unix=10.0)
        return tracker

    def test_default_p99_counts_requests_under_250ms(self, registry):
        # The default grid has a 0.25 bound, so the stock 250 ms
        # threshold counts a 0.2 s request as good.
        tracker = self._latency_traffic(registry, [0.2] * 100)
        status = tracker.evaluate()[1]
        assert status.compliance == 1.0
        assert status.burn_rate == 0.0
        assert not status.alerting

    def test_default_p99_fails_requests_over_250ms(self, registry):
        tracker = self._latency_traffic(registry, [0.3] * 100)
        status = tracker.evaluate()[1]
        assert status.compliance == 0.0
        assert status.alerting

    def test_off_grid_threshold_interpolates(self, registry):
        # 0.175 s is 50% of the way through the (0.1, 0.25] bucket.
        tracker = self._latency_traffic(
            registry, [0.2] * 10, p99_seconds=0.175, window=60.0
        )
        status = tracker.evaluate()[1]
        assert status.compliance == pytest.approx(0.5)
        # half the requests late against a 1% budget
        assert status.burn_rate == pytest.approx(50.0)

    def test_tracker_exports_slo_gauges(self, registry):
        tracker = self._traffic(registry, ok=9, error=1, availability=0.9)
        text = registry.render_prometheus()
        assert 'repro_slo_burn_rate{slo="availability"} 1' in text
        assert 'repro_slo_alert{slo="availability"} 1' in text
        assert 'repro_slo_compliance{slo="latency_p99"} 1' in text
        tracker.close()
        assert registry._collectors == []

    def test_sampling_does_not_evaluate_the_slos(self, registry, monkeypatch):
        """The sampler tick records a frame; only an export evaluates
        the SLOs and writes their gauges."""
        tracker = _tracker(registry)
        evaluate = tracker.evaluate
        calls = []

        def counting():
            calls.append(1)
            return evaluate()

        monkeypatch.setattr(tracker, "evaluate", counting)
        for second in range(5):
            tracker.sample(unix=float(second))
        assert calls == []
        registry.render_prometheus()
        assert len(calls) == 1
        tracker.close()

    def test_tracker_report_is_json_serializable(self, registry):
        tracker = self._traffic(registry, ok=5, error=0)
        report = tracker.report()
        json.dumps(report)
        assert [s["name"] for s in report["slos"]] == [
            "availability", "latency_p99",
        ]
        assert list(report["slos"][0]) == [
            "name", "kind", "objective", "window_seconds", "compliance",
            "burn_rate", "alerting", "events", "detail",
        ]
        assert report["alerting"] == []
        assert report["frames_sampled"] == 2

    def test_slo_validation(self, registry):
        for bad in (
            {"availability": 0.0},
            {"availability": 1.5},
            {"window": 0.0},
            {"p99_seconds": 0.0},
        ):
            with pytest.raises(InvalidConfiguration):
                _tracker(registry, **bad)


def _scripted_traffic(*, availability, p99_seconds, window):
    """400 s of serving traffic through the recorder, sampled once a
    second: an all-good phase, a mixed one with errors and overflow
    latencies, an idle one, a failing one and a recovery, plus a
    series the tracker must ignore. Pins every 40 s."""
    registry = obs.MetricsRegistry()
    recorder = MetricsRecorder(registry)
    unrelated = registry.counter("repro_test_unrelated_total")
    tracker = obs.SLOTracker(
        registry,
        availability=availability,
        p99_seconds=p99_seconds,
        window=window,
    )
    pins = []
    for second in range(400):
        phase = second // 80
        if phase == 0:
            for latency in (0.004, 0.2, 0.25):
                recorder.record_request(latency, tier="model")
        elif phase == 1:
            for latency in (0.02, 0.3, 0.2, 0.1):
                recorder.record_request(latency, tier="model")
            if second % 3 == 0:
                recorder.record_request(0.5, failed=True)
            if second % 7 == 0:
                recorder.record_request(150.0, tier="fraz")  # overflow
        elif phase == 3:
            recorder.record_request(0.6, tier="curve")
            recorder.record_request(0.2, failed=True)
            recorder.record_request(120.0, failed=True)  # overflow
        elif phase == 4:
            for latency in (0.1, 0.18, 0.12):
                recorder.record_request(latency, tier="model")
        unrelated.inc(second % 4, shard=str(second % 3))
        tracker.sample(unix=1000.0 + second)
        if second % 40 == 39:
            exposition = [
                line for line in registry.render_prometheus().splitlines()
                if "repro_slo_" in line
            ]
            pins.append({
                "second": second,
                # byte for byte what the /slo route writes
                "report": json.dumps(tracker.report(), indent=2) + "\n",
                "exposition": exposition,
            })
    tracker.close()
    return pins


class TestSLOContract:
    """The ``/slo`` body and the ``repro_slo_*`` exposition under
    scripted traffic, pinned byte for byte (``data/slo_contract.json``
    was recorded from the generic SLO-set tracker this one replaced).
    Windows of 30 s and 75 s keep rings of 120 and 135 frames, which
    the 400 samples overrun; the second config has a 100% objective
    (infinite burn) and an off-grid latency threshold."""

    @pytest.mark.parametrize("name", sorted(_CONTRACT))
    def test_report_and_exposition_are_pinned(self, name):
        contract = _CONTRACT[name]
        pins = _scripted_traffic(**contract["config"])
        for got, want in zip(pins, contract["pins"]):
            assert got == want, f"{name} at second {want['second']}"
        assert len(pins) == len(contract["pins"])


class TestObservabilityServer:
    def test_requires_registry(self):
        with pytest.raises(InvalidConfiguration):
            obs.ObservabilityServer(None)

    def test_metrics_and_health_routes(self, registry):
        registry.counter("repro_test_total").inc(2)
        health = {"healthy": True, "note": "fine"}
        with obs.ObservabilityServer(
            registry, health=lambda: health
        ) as server:
            status, body = _fetch(server.url + "/metrics")
            assert status == 200
            assert "repro_test_total 2" in body
            status, body = _fetch(server.url + "/healthz")
            assert status == 200
            assert json.loads(body)["note"] == "fine"
            health["healthy"] = False
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _fetch(server.url + "/healthz")
            assert excinfo.value.code == 503
            excinfo.value.close()

    def test_slo_route_empty_without_tracker(self, registry):
        with obs.ObservabilityServer(registry) as server:
            status, body = _fetch(server.url + "/slo")
            assert status == 200
            assert json.loads(body) == {
                "slos": [], "alerting": [], "frames_sampled": 0,
            }

    def test_spans_route_filters_and_limits(self, registry):
        tracer = obs.Tracer()
        with tracer.span("alpha"):
            pass
        with tracer.span("beta"):
            pass
        trace_id = next(
            s.trace_id for s in tracer.spans if s.name == "beta"
        )
        with obs.ObservabilityServer(registry, tracer=tracer) as server:
            _, body = _fetch(server.url + "/spans")
            names = [json.loads(line)["name"] for line in body.splitlines()]
            assert names == ["alpha", "beta"]
            _, body = _fetch(f"{server.url}/spans?trace={trace_id}")
            records = [json.loads(line) for line in body.splitlines()]
            assert [r["name"] for r in records] == ["beta"]
            _, body = _fetch(server.url + "/spans?limit=1")
            assert len(body.splitlines()) == 1
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _fetch(server.url + "/spans?trace=nope")
            assert excinfo.value.code == 400
            excinfo.value.close()

    def test_unknown_route_404s_with_directory(self, registry):
        with obs.ObservabilityServer(registry) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _fetch(server.url + "/nope")
            assert excinfo.value.code == 404
            assert "/metrics" in excinfo.value.read().decode()

    def test_close_is_idempotent(self, registry):
        server = obs.ObservabilityServer(registry)
        server.close()
        server.close()
