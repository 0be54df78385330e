"""Telemetry-plane unit tests: ring sampler, SLO burn, scrape server,
trace exporters.

Covers the :class:`TimeSeriesBuffer` frame/delta mechanics (label-set
aggregation, counter-reset tolerance, histogram deltas, window
eviction), the declarative SLO set (availability, latency-threshold,
gauge-threshold) with burn-rate/alerting semantics and the
``repro_slo_*`` collector export, the embedded scrape endpoint's four
routes, and the Chrome ``trace_event`` / folded-stacks exporters.
"""

from __future__ import annotations

import json
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
    def test_validation(self, registry):
        with pytest.raises(InvalidConfiguration):
            obs.TimeSeriesBuffer(registry, capacity=1)
        with pytest.raises(InvalidConfiguration):
            obs.TimeSeriesBuffer(registry, interval=0.0)

    def test_capacity_evicts_oldest(self, registry):
        registry.gauge("repro_test_level").set(1.0)
        buf = obs.TimeSeriesBuffer(registry, capacity=5)
        for i in range(8):
            buf.sample(unix=float(i))
        assert len(buf) == 5
        assert buf.frames()[0].unix == 3.0
        assert buf.latest().unix == 7.0

    def test_delta_aggregates_label_sets(self, registry):
        counter = registry.counter("repro_test_requests_total")
        buf = obs.TimeSeriesBuffer(registry, capacity=10)
        counter.inc(3, outcome="ok")
        buf.sample(unix=100.0)
        counter.inc(2, outcome="ok")
        counter.inc(1, outcome="error")
        buf.sample(unix=101.0)
        total = buf.delta("repro_test_requests_total", 60.0)
        assert total == pytest.approx(3.0)
        ok = buf.delta(
            "repro_test_requests_total", 60.0, labels={"outcome": "ok"}
        )
        assert ok == pytest.approx(2.0)

    def test_delta_tolerates_counter_reset(self, registry):
        # A gauge stands in for a counter that restarted mid-window:
        # the post-reset value is counted, never a negative delta.
        gauge = registry.gauge("repro_test_restarts_total")
        buf = obs.TimeSeriesBuffer(registry, capacity=10)
        gauge.set(10.0)
        buf.sample(unix=0.0)
        gauge.set(4.0)
        buf.sample(unix=1.0)
        assert buf.delta("repro_test_restarts_total", 60.0) == 4.0

    def test_delta_without_history_is_zero(self, registry):
        buf = obs.TimeSeriesBuffer(registry, capacity=10)
        assert buf.delta("repro_test_requests_total", 60.0) == 0.0
        buf.sample(unix=0.0)
        assert buf.delta("repro_test_requests_total", 60.0) == 0.0

    def test_histogram_delta(self, registry):
        hist = registry.histogram(
            "repro_test_seconds", buckets=(0.1, 1.0)
        )
        buf = obs.TimeSeriesBuffer(registry, capacity=10)
        hist.observe(0.05)
        buf.sample(unix=0.0)
        hist.observe(0.5)
        hist.observe(5.0)  # overflow: only in count
        buf.sample(unix=1.0)
        delta = buf.histogram_delta("repro_test_seconds", 60.0)
        assert delta["counts"] == [0.0, 1.0]
        assert delta["count"] == 2.0
        assert delta["sum"] == pytest.approx(5.5)
        assert buf.histogram_delta("repro_test_other", 60.0) is None

    def test_window_and_series(self, registry):
        gauge = registry.gauge("repro_test_level")
        buf = obs.TimeSeriesBuffer(registry, capacity=10)
        for i in range(5):
            gauge.set(float(i))
            buf.sample(unix=float(i * 10))
        assert len(buf.window(20.0)) == 3  # unix 20, 30, 40
        points = buf.series("repro_test_level")
        assert [p.value for p in points] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_sampler_thread_runs_and_stops(self, registry):
        registry.gauge("repro_test_level").set(1.0)
        buf = obs.TimeSeriesBuffer(registry, capacity=10, interval=0.01)
        buf.start()
        try:
            deadline = 200
            while len(buf) < 2 and deadline:
                deadline -= 1
                import time

                time.sleep(0.01)
            assert len(buf) >= 2
        finally:
            buf.stop()

    def test_to_dict_is_json_serializable(self, registry):
        registry.counter("repro_test_total").inc()
        buf = obs.TimeSeriesBuffer(registry, capacity=10)
        buf.sample(unix=0.0)
        buf.sample(unix=1.0)
        dump = json.dumps(buf.to_dict())
        assert "repro_test_total" in dump


class TestSLOs:
    def _traffic(self, registry, ok: int, error: int):
        counter = registry.counter("repro_serving_requests_total")
        buf = obs.TimeSeriesBuffer(registry, capacity=10)
        buf.sample(unix=0.0)
        if ok:
            counter.inc(ok, outcome="ok")
        if error:
            counter.inc(error, outcome="error")
        buf.sample(unix=10.0)
        return buf

    def test_availability_burn_and_alert(self, registry):
        buf = self._traffic(registry, ok=9, error=1)
        slo = obs.AvailabilitySLO(objective=0.9, window=60.0)
        status = slo.evaluate(buf)
        assert status.compliance == pytest.approx(0.9)
        # error rate 0.1 against a 0.1 budget: burning exactly at rate.
        assert status.burn_rate == pytest.approx(1.0)
        assert status.alerting
        assert status.events == 10.0

    def test_no_traffic_is_compliant(self, registry):
        buf = obs.TimeSeriesBuffer(registry, capacity=10)
        buf.sample(unix=0.0)
        buf.sample(unix=1.0)
        status = obs.AvailabilitySLO(window=60.0).evaluate(buf)
        assert status.compliance == 1.0
        assert status.burn_rate == 0.0
        assert not status.alerting

    def test_perfect_objective_has_infinite_burn(self, registry):
        buf = self._traffic(registry, ok=9, error=1)
        status = obs.AvailabilitySLO(objective=1.0, window=60.0).evaluate(buf)
        assert status.burn_rate == float("inf")
        assert status.alerting

    def test_latency_threshold_counts_buckets(self, registry):
        hist = registry.histogram(
            "repro_serving_latency_seconds", buckets=(0.1, 0.25, 1.0)
        )
        buf = obs.TimeSeriesBuffer(registry, capacity=10)
        buf.sample(unix=0.0)
        for value in (0.05, 0.2, 0.9):
            hist.observe(value, outcome="ok")
        buf.sample(unix=10.0)
        slo = obs.LatencySLO(
            objective=0.5, threshold_seconds=0.25, window=60.0
        )
        status = slo.evaluate(buf)
        assert status.compliance == pytest.approx(2.0 / 3.0)
        assert status.events == 3.0

    def _latency_traffic(self, registry, latencies):
        hist = registry.histogram("repro_serving_latency_seconds")
        buf = obs.TimeSeriesBuffer(registry, capacity=10)
        buf.sample(unix=0.0)
        for value in latencies:
            hist.observe(value, outcome="ok")
        buf.sample(unix=10.0)
        return buf

    def test_default_p99_counts_requests_under_250ms(self, registry):
        # The default grid has a 0.25 bound, so the stock 250 ms
        # threshold counts a 0.2 s request as good.
        buf = self._latency_traffic(registry, [0.2] * 100)
        [_, slo, _] = obs.default_serving_slos()
        status = slo.evaluate(buf)
        assert status.compliance == 1.0
        assert status.burn_rate == 0.0
        assert not status.alerting

    def test_default_p99_fails_requests_over_250ms(self, registry):
        buf = self._latency_traffic(registry, [0.3] * 100)
        [_, slo, _] = obs.default_serving_slos()
        status = slo.evaluate(buf)
        assert status.compliance == 0.0
        assert status.alerting

    def test_off_grid_threshold_interpolates(self, registry):
        # 0.175 s is 50% of the way through the (0.1, 0.25] bucket.
        buf = self._latency_traffic(registry, [0.2] * 10)
        slo = obs.LatencySLO(
            objective=0.5, threshold_seconds=0.175, window=60.0
        )
        status = slo.evaluate(buf)
        assert status.compliance == pytest.approx(0.5)
        assert status.burn_rate == pytest.approx(1.0)

    def test_threshold_slo_watches_gauge(self, registry):
        gauge = registry.gauge("repro_lifecycle_drift_error_ewma")
        buf = obs.TimeSeriesBuffer(registry, capacity=10)
        gauge.set(0.1)
        buf.sample(unix=0.0)
        slo = obs.ThresholdSLO(threshold=0.25, window=60.0)
        status = slo.evaluate(buf)
        assert status.compliance == 1.0
        assert status.burn_rate == pytest.approx(0.4)
        gauge.set(0.5)
        buf.sample(unix=1.0)
        status = slo.evaluate(buf)
        assert status.compliance == 0.0
        assert status.burn_rate == pytest.approx(2.0)
        assert status.alerting

    def test_tracker_exports_slo_gauges(self, registry):
        buf = self._traffic(registry, ok=9, error=1)
        obs.SLOTracker(buf, obs.default_serving_slos(availability=0.9))
        text = registry.render_prometheus()
        assert 'repro_slo_burn_rate{slo="availability"} 1' in text
        assert 'repro_slo_alert{slo="availability"} 1' in text
        assert 'repro_slo_compliance{slo="latency_p99"} 1' in text

    def test_tracker_report_is_json_serializable(self, registry):
        buf = self._traffic(registry, ok=5, error=0)
        tracker = obs.SLOTracker(buf, obs.default_serving_slos())
        report = tracker.report()
        json.dumps(report)
        assert [s["name"] for s in report["slos"]] == [
            "availability", "latency_p99", "calibration",
        ]
        assert report["alerting"] == []

    def test_tracker_rejects_duplicate_names(self, registry):
        buf = obs.TimeSeriesBuffer(registry, capacity=10)
        with pytest.raises(InvalidConfiguration):
            obs.SLOTracker(
                buf,
                [obs.AvailabilitySLO(), obs.AvailabilitySLO()],
            )

    def test_slo_validation(self):
        with pytest.raises(InvalidConfiguration):
            obs.AvailabilitySLO(objective=0.0)
        with pytest.raises(InvalidConfiguration):
            obs.AvailabilitySLO(window=0.0)
        with pytest.raises(InvalidConfiguration):
            obs.LatencySLO(threshold_seconds=0.0)
        with pytest.raises(InvalidConfiguration):
            obs.ThresholdSLO(threshold=0.0)


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


class TestExporters:
    def _spans(self):
        tracer = obs.Tracer()
        with tracer.span("serving.request"):
            with tracer.span("shard.serve"):
                pass
        return tracer

    def test_chrome_trace_events_shape(self):
        tracer = self._spans()
        events = obs.chrome_trace_events(tracer)
        assert [e["name"] for e in events] == [
            "serving.request", "shard.serve",
        ]
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0.0
            assert event["tid"] == event["args"]["trace_id"]
        assert events[0]["cat"] == "serving"
        assert events[1]["args"]["parent_id"] == events[0]["args"]["span_id"]

    def test_chrome_trace_marks_errors(self):
        tracer = obs.Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("bad")
        [event] = obs.chrome_trace_events(tracer)
        assert event["args"]["status"] == "error"
        assert "bad" in event["args"]["error"]

    def test_export_chrome_trace_file(self, tmp_path):
        path = tmp_path / "trace.json"
        count = obs.export_chrome_trace(self._spans(), path)
        assert count == 2
        document = json.loads(path.read_text())
        assert len(document["traceEvents"]) == 2

    def test_folded_stacks_self_time(self):
        spans = [
            {"name": "root", "trace_id": 1, "span_id": 1,
             "parent_id": None, "start_unix": 0.0, "wall_seconds": 1.0},
            {"name": "child", "trace_id": 1, "span_id": 2,
             "parent_id": 1, "start_unix": 0.1, "wall_seconds": 0.4},
        ]
        weights = obs.folded_stacks(spans)
        assert weights["root"] == pytest.approx(0.6e6)
        assert weights["root;child"] == pytest.approx(0.4e6)

    def test_export_folded_stacks_file(self, tmp_path):
        path = tmp_path / "stacks.folded"
        lines = obs.export_folded_stacks(self._spans(), path)
        assert lines == 2
        text = path.read_text().splitlines()
        assert any(
            line.startswith("serving.request;shard.serve ")
            for line in text
        )
