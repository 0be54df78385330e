"""Telemetry-plane unit tests: SLO tracker history, SLO burn, scrape
server.

Covers the :class:`SLOTracker`'s frame ring and delta mechanics
(label-set aggregation, counter-reset tolerance, histogram deltas,
window eviction, the sampler thread), the declarative SLO set
(availability, latency-threshold, gauge-threshold) with
burn-rate/alerting semantics and the ``repro_slo_*`` collector export,
and the embedded scrape endpoint's four routes.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.errors import InvalidConfiguration

pytestmark = pytest.mark.obs


@pytest.fixture()
def registry():
    return obs.MetricsRegistry()


def _fetch(url: str):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read().decode("utf-8")


class TestTimeSeriesBuffer:
    """The SLO tracker's own time series: frame ring, windowed deltas
    and the sampler thread."""

    def test_capacity_evicts_oldest(self, registry):
        # The ring holds the longest SLO window in 1 s frames plus a
        # minute of slack: 160 frames for a 100 s window.
        counter = registry.counter("repro_test_total")
        tracker = obs.SLOTracker(
            registry,
            [obs.AvailabilitySLO(window=30.0),
             obs.LatencySLO(window=100.0)],
        )
        for i in range(170):
            counter.inc()
            tracker.sample(unix=float(i))
        assert tracker.report()["frames_sampled"] == 160
        # Frames 10..169 remain: the oldest counter value is 11.
        assert tracker.delta("repro_test_total", 1e9) == 159.0
        assert obs.SLOTracker(registry).report()["frames_sampled"] == 0

    def test_delta_aggregates_label_sets(self, registry):
        counter = registry.counter("repro_test_requests_total")
        tracker = obs.SLOTracker(registry)
        counter.inc(3, outcome="ok")
        tracker.sample(unix=100.0)
        counter.inc(2, outcome="ok")
        counter.inc(1, outcome="error")
        tracker.sample(unix=101.0)
        total = tracker.delta("repro_test_requests_total", 60.0)
        assert total == pytest.approx(3.0)
        ok = tracker.delta(
            "repro_test_requests_total", 60.0, labels={"outcome": "ok"}
        )
        assert ok == pytest.approx(2.0)

    def test_delta_tolerates_counter_reset(self, registry):
        # A gauge stands in for a counter that restarted mid-window:
        # the post-reset value is counted, never a negative delta.
        gauge = registry.gauge("repro_test_restarts_total")
        tracker = obs.SLOTracker(registry)
        gauge.set(10.0)
        tracker.sample(unix=0.0)
        gauge.set(4.0)
        tracker.sample(unix=1.0)
        assert tracker.delta("repro_test_restarts_total", 60.0) == 4.0

    def test_delta_without_history_is_zero(self, registry):
        tracker = obs.SLOTracker(registry)
        assert tracker.delta("repro_test_requests_total", 60.0) == 0.0
        tracker.sample(unix=0.0)
        assert tracker.delta("repro_test_requests_total", 60.0) == 0.0

    def test_histogram_delta(self, registry):
        hist = registry.histogram(
            "repro_test_seconds", buckets=(0.1, 1.0)
        )
        tracker = obs.SLOTracker(registry)
        hist.observe(0.05)
        tracker.sample(unix=0.0)
        hist.observe(0.5)
        hist.observe(5.0)  # overflow: only in count
        tracker.sample(unix=1.0)
        delta = tracker.histogram_delta("repro_test_seconds", 60.0)
        assert delta["counts"] == [0.0, 1.0]
        assert delta["count"] == 2.0
        assert delta["sum"] == pytest.approx(5.5)
        assert tracker.histogram_delta("repro_test_other", 60.0) is None

    def test_window_and_series(self, registry):
        gauge = registry.gauge("repro_test_level")
        tracker = obs.SLOTracker(registry)
        for i in range(5):
            gauge.set(float(i))
            tracker.sample(unix=float(i * 10))
        # The 20 s window holds unix 20, 30, 40.
        assert [f.unix for f in tracker._window(20.0)] == [20.0, 30.0, 40.0]
        assert tracker.delta("repro_test_level", 20.0) == 2.0

    def test_sampler_thread_runs_and_stops(self, registry, monkeypatch):
        from repro.obs import slo as slo_module

        monkeypatch.setattr(slo_module, "_SAMPLE_INTERVAL", 0.01)
        registry.gauge("repro_test_level").set(1.0)
        before = len(registry._collectors)
        tracker = obs.SLOTracker(registry, obs.default_serving_slos())
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


class TestSLOs:
    def _traffic(self, registry, ok: int, error: int, slos=None):
        counter = registry.counter("repro_serving_requests_total")
        tracker = obs.SLOTracker(registry, slos)
        tracker.sample(unix=0.0)
        if ok:
            counter.inc(ok, outcome="ok")
        if error:
            counter.inc(error, outcome="error")
        tracker.sample(unix=10.0)
        return tracker

    def test_availability_burn_and_alert(self, registry):
        tracker = self._traffic(registry, ok=9, error=1)
        slo = obs.AvailabilitySLO(objective=0.9, window=60.0)
        status = slo.evaluate(tracker)
        assert status.compliance == pytest.approx(0.9)
        # error rate 0.1 against a 0.1 budget: burning exactly at rate.
        assert status.burn_rate == pytest.approx(1.0)
        assert status.alerting
        assert status.events == 10.0

    def test_no_traffic_is_compliant(self, registry):
        tracker = obs.SLOTracker(registry)
        tracker.sample(unix=0.0)
        tracker.sample(unix=1.0)
        status = obs.AvailabilitySLO(window=60.0).evaluate(tracker)
        assert status.compliance == 1.0
        assert status.burn_rate == 0.0
        assert not status.alerting

    def test_perfect_objective_has_infinite_burn(self, registry):
        tracker = self._traffic(registry, ok=9, error=1)
        status = obs.AvailabilitySLO(objective=1.0, window=60.0).evaluate(
            tracker
        )
        assert status.burn_rate == float("inf")
        assert status.alerting

    def test_latency_threshold_counts_buckets(self, registry):
        hist = registry.histogram(
            "repro_serving_latency_seconds", buckets=(0.1, 0.25, 1.0)
        )
        tracker = obs.SLOTracker(registry)
        tracker.sample(unix=0.0)
        for value in (0.05, 0.2, 0.9):
            hist.observe(value, outcome="ok")
        tracker.sample(unix=10.0)
        slo = obs.LatencySLO(
            objective=0.5, threshold_seconds=0.25, window=60.0
        )
        status = slo.evaluate(tracker)
        assert status.compliance == pytest.approx(2.0 / 3.0)
        assert status.events == 3.0

    def _latency_traffic(self, registry, latencies):
        hist = registry.histogram("repro_serving_latency_seconds")
        tracker = obs.SLOTracker(registry)
        tracker.sample(unix=0.0)
        for value in latencies:
            hist.observe(value, outcome="ok")
        tracker.sample(unix=10.0)
        return tracker

    def test_default_p99_counts_requests_under_250ms(self, registry):
        # The default grid has a 0.25 bound, so the stock 250 ms
        # threshold counts a 0.2 s request as good.
        tracker = self._latency_traffic(registry, [0.2] * 100)
        [_, slo] = obs.default_serving_slos()
        status = slo.evaluate(tracker)
        assert status.compliance == 1.0
        assert status.burn_rate == 0.0
        assert not status.alerting

    def test_default_p99_fails_requests_over_250ms(self, registry):
        tracker = self._latency_traffic(registry, [0.3] * 100)
        [_, slo] = obs.default_serving_slos()
        status = slo.evaluate(tracker)
        assert status.compliance == 0.0
        assert status.alerting

    def test_off_grid_threshold_interpolates(self, registry):
        # 0.175 s is 50% of the way through the (0.1, 0.25] bucket.
        tracker = self._latency_traffic(registry, [0.2] * 10)
        slo = obs.LatencySLO(
            objective=0.5, threshold_seconds=0.175, window=60.0
        )
        status = slo.evaluate(tracker)
        assert status.compliance == pytest.approx(0.5)
        assert status.burn_rate == pytest.approx(1.0)

    def test_tracker_exports_slo_gauges(self, registry):
        tracker = self._traffic(
            registry, ok=9, error=1,
            slos=obs.default_serving_slos(availability=0.9),
        )
        text = registry.render_prometheus()
        assert 'repro_slo_burn_rate{slo="availability"} 1' in text
        assert 'repro_slo_alert{slo="availability"} 1' in text
        assert 'repro_slo_compliance{slo="latency_p99"} 1' in text
        tracker.close()
        assert registry._collectors == []

    def test_sampling_does_not_evaluate_the_slos(self, registry, monkeypatch):
        """The sampler tick snapshots the registry; only an export
        evaluates the SLOs and writes their gauges."""
        tracker = obs.SLOTracker(registry, obs.default_serving_slos())
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
        tracker = self._traffic(
            registry, ok=5, error=0, slos=obs.default_serving_slos()
        )
        report = tracker.report()
        json.dumps(report)
        assert [s["name"] for s in report["slos"]] == [
            "availability", "latency_p99",
        ]
        assert report["alerting"] == []
        assert report["frames_sampled"] == 2

    def test_tracker_rejects_duplicate_names(self, registry):
        with pytest.raises(InvalidConfiguration):
            obs.SLOTracker(
                registry,
                [obs.AvailabilitySLO(), obs.AvailabilitySLO()],
            )

    def test_slo_validation(self):
        with pytest.raises(InvalidConfiguration):
            obs.AvailabilitySLO(objective=0.0)
        with pytest.raises(InvalidConfiguration):
            obs.AvailabilitySLO(window=0.0)
        with pytest.raises(InvalidConfiguration):
            obs.LatencySLO(threshold_seconds=0.0)


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
