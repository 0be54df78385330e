"""Observability unit tests: tracer, registry, recorder, report.

Covers the span tree mechanics (nesting, attributes, error status,
explicit parenting, thread safety, absorb/export round-trip), the
metrics registry (counters/gauges/histograms, labels, name validation,
pull-model collectors, Prometheus rendering), the serving recorder as
a read view over the registry (plus the no-data-percentile rule), the
bucket interpolation behind its percentiles, the profiled() hook, and
the cost-tree report."""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import obs
from repro.errors import InvalidConfiguration
from repro.obs.metrics import DEFAULT_BUCKETS, bucket_interpolate
from repro.serving.metrics import MetricsRecorder

pytestmark = pytest.mark.obs


@pytest.fixture()
def tracer():
    with obs.session() as (tracer, _registry):
        yield tracer


@pytest.fixture()
def registry():
    with obs.session() as (_tracer, registry):
        yield registry


class TestSpans:
    def test_nesting_builds_a_tree(self, tracer):
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        outer = next(s for s in tracer.spans if s.name == "outer")
        inner = next(s for s in tracer.spans if s.name == "inner")
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        assert outer.parent_id is None

    def test_attributes_and_timing(self, tracer):
        with obs.span("work", flavor="test") as span:
            span.set_attribute("answer", 42)
            span.set_attributes(more=1.5, text="x")
        [span] = tracer.spans
        assert span.attributes == {
            "flavor": "test", "answer": 42, "more": 1.5, "text": "x",
        }
        assert span.wall_seconds >= 0.0
        assert span.cpu_seconds >= 0.0
        assert span.status == "ok"

    def test_exception_marks_error_and_propagates(self, tracer):
        with pytest.raises(ValueError, match="boom"):
            with obs.span("failing"):
                raise ValueError("boom")
        [span] = tracer.spans
        assert span.status == "error"
        assert span.error == "ValueError: boom"

    def test_sibling_spans_share_parent(self, tracer):
        with obs.span("parent"):
            with obs.span("a"):
                pass
            with obs.span("b"):
                pass
        parent = next(s for s in tracer.spans if s.name == "parent")
        children = [s for s in tracer.spans if s.name in ("a", "b")]
        assert all(c.parent_id == parent.span_id for c in children)

    def test_explicit_parent_and_forced_root(self, tracer):
        with obs.span("root") as root:
            ctx = obs.current_context()
        with tracer.span("adopted", parent=ctx):
            pass
        with tracer.span("orphan", parent=None):
            pass
        adopted = next(s for s in tracer.spans if s.name == "adopted")
        orphan = next(s for s in tracer.spans if s.name == "orphan")
        assert adopted.parent_id == root.span_id
        assert orphan.parent_id is None
        assert orphan.trace_id != root.trace_id

    def test_attach_detach_propagates_to_thread(self, tracer):
        with obs.span("driver"):
            ctx = obs.current_context()

        def worker():
            token = obs.attach(ctx)
            try:
                with obs.span("threaded"):
                    pass
            finally:
                obs.detach(token)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        driver = next(s for s in tracer.spans if s.name == "driver")
        threaded = next(s for s in tracer.spans if s.name == "threaded")
        assert threaded.parent_id == driver.span_id

    def test_concurrent_spans_all_collected(self, tracer):
        def worker(i):
            for _ in range(50):
                with obs.span(f"t{i}"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer) == 200

    def test_export_jsonl_round_trip(self, tracer, tmp_path):
        with obs.span("outer", n=np.int64(3)):
            with obs.span("inner"):
                pass
        path = tmp_path / "trace.jsonl"
        assert tracer.export_jsonl(path) == 2
        spans = obs.load_trace(path)
        assert {s.name for s in spans} == {"outer", "inner"}
        assert obs.tree_shape(spans) == obs.tree_shape(tracer.spans)
        # numpy attribute values must have been JSON-sanitized
        outer = next(s for s in spans if s.name == "outer")
        assert outer.attributes["n"] == 3

    def test_drain_and_absorb(self, tracer):
        worker = obs.Tracer()
        with worker.span("shipped"):
            pass
        payloads = [s.to_dict() for s in worker.drain()]
        assert worker.spans == []
        tracer.absorb(payloads)
        assert [s.name for s in tracer.spans] == ["shipped"]

    def test_disabled_path_is_nullspan(self):
        assert obs.get_tracer() is None
        span_cm = obs.span("anything")
        assert span_cm is obs.NULL_SPAN
        with span_cm as span:
            span.set_attribute("ignored", 1)
            span.set_attributes(also="ignored")


class TestRegistry:
    def test_counter_labels_and_values(self, registry):
        c = registry.counter("repro_test_total", "help text")
        c.inc()
        c.inc(2, kind="x")
        assert c.value() == 1.0
        assert c.value(kind="x") == 2.0
        with pytest.raises(InvalidConfiguration):
            c.inc(-1)

    def test_gauge_last_write_wins(self, registry):
        g = registry.gauge("repro_test_level")
        g.set(3.0)
        g.set(5.0)
        assert g.value() == 5.0

    def test_histogram_buckets_sum_count(self, registry):
        h = registry.histogram(
            "repro_test_seconds", buckets=(0.1, 1.0, 10.0)
        )
        for v in (0.05, 0.5, 0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["counts"] == [1, 2, 1]  # 50.0 overflows every bucket
        assert snap["count"] == 5
        assert snap["sum"] == pytest.approx(56.05)

    def test_name_validation(self, registry):
        for bad in ("latency", "repro_Upper", "repro-test", "repro_"):
            with pytest.raises(InvalidConfiguration):
                registry.counter(bad)

    def test_get_or_create_and_kind_mismatch(self, registry):
        first = registry.counter("repro_test_total")
        assert registry.counter("repro_test_total") is first
        with pytest.raises(InvalidConfiguration):
            registry.gauge("repro_test_total")
        registry.histogram("repro_test_hist", buckets=(1.0, 2.0))
        with pytest.raises(InvalidConfiguration):
            registry.histogram("repro_test_hist", buckets=(1.0, 3.0))

    def test_collector_runs_at_export(self, registry):
        state = {"n": 0}
        gauge = registry.gauge("repro_test_entries")
        registry.register_collector(lambda: gauge.set(state["n"]))
        state["n"] = 7
        assert "repro_test_entries 7" in registry.render_prometheus()

    def test_bind_cache_gauges(self, registry):
        class FakeCache:
            hits, misses, evictions = 3, 2, 1

            def __len__(self):
                return 4

        obs.bind_cache_gauges(registry, "fake", FakeCache())
        text = registry.render_prometheus()
        for line in (
            "repro_fake_hits 3",
            "repro_fake_misses 2",
            "repro_fake_evictions 1",
            "repro_fake_entries 4",
        ):
            assert line in text

    def test_prometheus_histogram_exposition(self, registry):
        h = registry.histogram("repro_test_seconds", buckets=(1.0, 10.0))
        h.observe(0.5, outcome="ok")
        h.observe(5.0, outcome="ok")
        text = registry.render_prometheus()
        assert '# TYPE repro_test_seconds histogram' in text
        assert 'repro_test_seconds_bucket{outcome="ok",le="1"} 1' in text
        assert 'repro_test_seconds_bucket{outcome="ok",le="10"} 2' in text
        assert 'repro_test_seconds_bucket{outcome="ok",le="+Inf"} 2' in text
        assert 'repro_test_seconds_count{outcome="ok"} 2' in text

    def test_to_dict_is_json_serializable(self, registry):
        registry.counter("repro_test_total").inc(tier="model")
        registry.histogram("repro_test_seconds").observe(0.1)
        json.dumps(registry.to_dict())

    def test_label_value_escaping_survives_hostile_strings(self, registry):
        counter = registry.counter(
            "repro_hostile_total", "help with \\ backslash\nand newline"
        )
        counter.inc(path='C:\\data\nid="x"')
        text = registry.render_prometheus()
        # HELP escapes backslash and newline (quotes stay literal).
        assert (
            "# HELP repro_hostile_total "
            "help with \\\\ backslash\\nand newline" in text
        )
        # The label value's backslash, newline and quotes are escaped.
        assert (
            'repro_hostile_total{path="C:\\\\data\\nid=\\"x\\""} 1' in text
        )
        # The raw newline must not have split the series line: every
        # non-comment line still parses as `name{...} value`.
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name and float(value) >= 0


class TestRecorderMigration:
    """The recorder writes only registry series and reads them back."""

    def test_no_data_percentiles_are_none_not_zero(self):
        recorder = MetricsRecorder(obs.MetricsRegistry())
        snap = recorder.snapshot()
        assert snap.latency_mean_ms is None
        assert snap.latency_p50_ms is None
        assert snap.latency_p95_ms is None
        assert snap.latency_max_ms is None
        assert any("n/a" in line for line in snap.lines())

    def test_only_failures_still_report_no_latency_data(self):
        recorder = MetricsRecorder(obs.MetricsRegistry())
        recorder.record_request(0.5, failed=True)
        snap = recorder.snapshot()
        assert snap.requests_total == 1
        assert snap.requests_failed == 1
        # The failed request's latency must not fabricate percentiles.
        assert snap.latency_count == 0
        assert snap.latency_p95_ms is None

    def test_failures_excluded_from_latency_window(self):
        registry = obs.MetricsRegistry()
        recorder = MetricsRecorder(registry)
        recorder.record_request(0.001, tier="model")
        recorder.record_request(9.0, failed=True)
        snap = recorder.snapshot()
        assert snap.latency_count == 1
        # 1 ms is a bucket bound, so the bucket estimate is exact.
        assert snap.latency_max_ms == pytest.approx(1.0)
        assert snap.latency_mean_ms == pytest.approx(1.0)
        # The failure is timed in its own series, which the figures skip.
        latency = registry.get("repro_serving_latency_seconds")
        assert latency.snapshot(outcome="error")["sum"] == pytest.approx(9.0)

    def test_writes_the_serving_series(self):
        registry = obs.MetricsRegistry()
        recorder = MetricsRecorder(registry)
        recorder.record_batch(2)
        recorder.record_request(0.002, tier="model", analysis_seconds=0.001)
        recorder.record_request(0.003, tier="analytic")
        recorder.record_request(0.004, failed=True)
        requests = registry.get("repro_serving_requests_total")
        assert requests.value(outcome="ok") == 2
        assert requests.value(outcome="error") == 1
        tiers = registry.get("repro_serving_tier_total")
        assert tiers.value(tier="model") == 1
        assert tiers.value(tier="analytic") == 1
        assert registry.get("repro_serving_batches_total").value() == 1
        assert registry.get("repro_serving_batched_requests_total").value() == 2
        latency = registry.get("repro_serving_latency_seconds")
        assert latency.snapshot(outcome="ok")["count"] == 2
        assert latency.snapshot(outcome="error")["count"] == 1
        assert registry.get(
            "repro_serving_analysis_seconds_total"
        ).value() == pytest.approx(0.001)

    def test_snapshot_reads_the_registry(self):
        # Whatever lands in the series is what the snapshot reports: a
        # second recorder on the same registry sees the first's counts.
        registry = obs.MetricsRegistry()
        first, second = MetricsRecorder(registry), MetricsRecorder(registry)
        first.record_batch(3)
        for latency in (0.002, 0.02, 0.02, 0.2):
            first.record_request(latency, tier="model")
        first.record_request(0.003, tier="curve")
        registry.get("repro_serving_tier_total").inc(tier="fraz")
        snap = second.snapshot()
        assert snap.requests_total == 5
        assert snap.batches == 1 and snap.mean_batch_size == 3.0
        assert snap.tier_counts == {"model": 4, "curve": 1, "fraz": 1}
        assert snap.fallback_count == 2
        assert snap.latency_count == 5
        assert snap.latency_mean_ms == pytest.approx(49.0)
        # p50 is rank 2.5 of 5: ranks 1-2 lie under 5 ms and ranks 3-4
        # in the (10, 25] ms bucket, so it sits a quarter of the way in.
        assert snap.latency_p50_ms == pytest.approx(10.0 + 15.0 * 0.25)
        assert snap.latency_max_ms == pytest.approx(250.0)
        assert snap.latency_p50_ms <= snap.latency_p95_ms <= snap.latency_max_ms


class TestBucketInterpolate:
    BOUNDS = (1.0, 2.0, 4.0, 8.0)
    COUNTS = (2, 0, 4, 2)  # plus 2 overflow observations above 8.0

    def test_value_counts_whole_and_partial_buckets(self):
        def below(value):
            return bucket_interpolate(self.BOUNDS, self.COUNTS, value=value)

        assert below(0.0) == 0.0
        assert below(0.5) == pytest.approx(1.0)
        assert below(1.0) == 2.0  # a bound: exact
        assert below(1.5) == 2.0  # an empty bucket adds nothing
        assert below(3.0) == pytest.approx(4.0)  # half of (2, 4]
        assert below(8.0) == 8.0
        assert below(50.0) == 8.0  # overflow is never counted as below

    def test_rank_inverts_the_cumulative_counts(self):
        def at(rank):
            return bucket_interpolate(self.BOUNDS, self.COUNTS, rank=rank)

        assert at(1.0) == pytest.approx(0.5)
        assert at(2.0) == 1.0  # ends on a bound: the flat run is skipped
        assert at(4.0) == pytest.approx(3.0)
        assert at(7.0) == pytest.approx(6.0)
        assert at(8.0) == 8.0  # the max reads as its bucket's bound
        assert at(10.0) == 8.0  # ranks in the overflow clamp to the top

    def test_rank_and_value_round_trip_inside_buckets(self):
        for rank in (0.5, 3.0, 5.5, 7.5):
            value = bucket_interpolate(self.BOUNDS, self.COUNTS, rank=rank)
            assert bucket_interpolate(
                self.BOUNDS, self.COUNTS, value=value
            ) == pytest.approx(rank)

    def test_needs_exactly_one_direction(self):
        with pytest.raises(TypeError):
            bucket_interpolate(self.BOUNDS, self.COUNTS)
        with pytest.raises(TypeError):
            bucket_interpolate(self.BOUNDS, self.COUNTS, value=1.0, rank=1.0)

    def test_default_grid_keeps_every_bound_and_adds_the_slo_threshold(self):
        kept = (1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0, 100.0)
        assert set(kept) < set(DEFAULT_BUCKETS)
        assert 0.25 in DEFAULT_BUCKETS
        assert len(DEFAULT_BUCKETS) == 19
        ratios = [
            b / a for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:])
        ]
        assert max(ratios) == pytest.approx(2.5)


class TestProfiled:
    def test_profiled_attaches_rss_samples(self, tracer):
        with obs.profiled("hot", tag="x") as span:
            blob = bytearray(1 << 20)
            del blob
        [span] = tracer.spans
        assert span.name == "hot"
        assert span.attributes["tag"] == "x"
        assert "rss_before_bytes" in span.attributes
        assert "rss_after_bytes" in span.attributes
        assert "rss_delta_bytes" in span.attributes

    def test_profiled_noop_when_disabled(self):
        assert obs.get_tracer() is None
        with obs.profiled("hot") as span:
            assert span is obs.NULL_SPAN

    def test_profiler_tracing_reports_allocations(self, tracer):
        with obs.Profiler.tracing():
            with obs.profiled("alloc") as span:
                keep = np.zeros(1 << 16)
        assert span.attributes["alloc_after_bytes"] > 0
        assert keep.size == 1 << 16


class TestReport:
    def _spans(self):
        tracer = obs.Tracer()
        with tracer.span("root"):
            for _ in range(3):
                with tracer.span("probe"):
                    pass
        return tracer.spans

    def test_cost_tree_aggregates_same_named_siblings(self):
        root = obs.cost_tree(self._spans())
        assert root["name"] == "total"
        [top] = root["children"]
        assert top["name"] == "root"
        [probes] = top["children"]
        assert probes["name"] == "probe"
        assert probes["count"] == 3
        assert top["self_seconds"] <= top["wall_seconds"]

    def test_render_marks_errors_and_filters(self):
        tracer = obs.Tracer()
        with tracer.span("root"):
            try:
                with tracer.span("bad"):
                    raise RuntimeError("x")
            except RuntimeError:
                pass
        text = obs.render_cost_tree(tracer.spans)
        assert "1 error(s)" in text
        assert "root" in text and "bad" in text
        assert obs.render_cost_tree([]) == "(no spans recorded)"

    def test_orphan_spans_become_roots(self):
        tracer = obs.Tracer()
        with tracer.span("a"):
            pass
        spans = tracer.spans
        spans[0].parent_id = "missing-parent"
        root = obs.cost_tree(spans)
        assert [c["name"] for c in root["children"]] == ["a"]

    def test_tree_shape_is_order_independent(self):
        t1, t2 = obs.Tracer(), obs.Tracer()
        with t1.span("r"):
            with t1.span("a"):
                pass
            with t1.span("b"):
                pass
        with t2.span("r"):
            with t2.span("b"):
                pass
            with t2.span("a"):
                pass
        assert obs.tree_shape(t1.spans) == obs.tree_shape(t2.spans)


class TestSessionScoping:
    def test_session_restores_previous_state(self):
        outer = obs.Tracer()
        obs.install(tracer=outer)
        try:
            with obs.session() as (inner, _):
                assert obs.get_tracer() is inner
            assert obs.get_tracer() is outer
        finally:
            obs.uninstall()

    def test_memo_register_metrics(self):
        from repro.parallel import CompressionMemoCache, MemoRecord

        memo = CompressionMemoCache()
        registry = obs.MetricsRegistry()
        memo.register_metrics(registry)
        key = ("fp", "token", 1.0)
        memo.get(key)
        memo.put(key, MemoRecord(ratio=2.0, seconds=0.1))
        memo.get(key)
        text = registry.render_prometheus()
        assert "repro_memo_hits 1" in text
        assert "repro_memo_misses 1" in text
        assert "repro_memo_entries 1" in text
