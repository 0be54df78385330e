"""Unit tests for dataset fingerprinting and the feature cache."""

import threading
import time

import numpy as np
import pytest

from repro.errors import InvalidConfiguration
from repro.serving.cache import FeatureCache, dataset_fingerprint


class TestDatasetFingerprint:
    def test_deterministic(self, rng):
        data = rng.standard_normal((12, 12))
        assert dataset_fingerprint(data) == dataset_fingerprint(data.copy())

    def test_value_change_changes_hash(self, rng):
        data = rng.standard_normal((12, 12))
        other = data.copy()
        other[0, 0] += 1.0
        assert dataset_fingerprint(data) != dataset_fingerprint(other)

    def test_shape_sensitive(self):
        flat = np.arange(16.0)
        square = flat.reshape(4, 4)
        assert dataset_fingerprint(flat) != dataset_fingerprint(square)

    def test_dtype_sensitive(self):
        as64 = np.arange(16.0)
        as32 = as64.astype(np.float32)
        # Same values after the float64 view — the dtype tag still splits them.
        assert dataset_fingerprint(as64) != dataset_fingerprint(as32)

    def test_stride_sensitive(self, rng):
        data = rng.standard_normal((16, 16))
        assert dataset_fingerprint(data, stride=1) != dataset_fingerprint(
            data, stride=4
        )

    def test_off_lattice_change_shares_hash(self):
        """Only the sampled view is hashed — that is the cache's contract."""
        data = np.ones((8, 8))
        other = data.copy()
        other[1, 1] = 5.0  # not on the stride-4 lattice
        assert dataset_fingerprint(data, stride=4) == dataset_fingerprint(
            other, stride=4
        )

    def test_empty_rejected(self):
        with pytest.raises(InvalidConfiguration):
            dataset_fingerprint(np.zeros((0,)))


class TestFeatureCache:
    def test_miss_then_hit(self):
        cache = FeatureCache(max_entries=4)
        calls = []
        value, hit = cache.get_or_compute("k", lambda: calls.append(1) or "a")
        assert (value, hit) == ("a", False)
        value, hit = cache.get_or_compute("k", lambda: calls.append(1) or "b")
        assert (value, hit) == ("a", True)
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = FeatureCache(max_entries=2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: 0)  # refresh a
        cache.get_or_compute("c", lambda: 3)  # evicts b
        assert cache.evictions == 1
        assert len(cache) == 2
        _, hit = cache.get_or_compute("b", lambda: 9)
        assert not hit  # b was evicted, recomputed

    def test_clear(self):
        cache = FeatureCache()
        cache.get_or_compute("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        _, hit = cache.get_or_compute("a", lambda: 1)
        assert not hit

    def test_capacity_validated(self):
        with pytest.raises(InvalidConfiguration):
            FeatureCache(max_entries=0)

    def test_concurrent_misses_compute_once(self):
        cache = FeatureCache()
        calls = []
        started = threading.Barrier(8)

        def factory():
            calls.append(1)
            time.sleep(0.02)  # widen the in-flight window
            return "value"

        results = []

        def worker():
            started.wait()
            results.append(cache.get_or_compute("k", factory))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(calls) == 1, "in-flight dedup must run the factory once"
        assert all(value == "value" for value, _ in results)
        assert sum(1 for _, hit in results if not hit) == 1
        assert cache.misses == 1 and cache.hits == 7

    def test_factory_error_propagates_and_retries(self):
        cache = FeatureCache()

        def boom():
            raise RuntimeError("nope")

        with pytest.raises(RuntimeError):
            cache.get_or_compute("k", boom)
        # The failure is not cached: a later request retries cleanly.
        value, hit = cache.get_or_compute("k", lambda: 42)
        assert (value, hit) == (42, False)


class _CountingEngine:
    """Stub engine: counts ``analyze`` calls, widening the miss window."""

    def __init__(self):
        self.analyze_calls = 0
        self.config = None  # service reads sampling_stride off the config
        self._lock = threading.Lock()

    def analyze(self, data):
        with self._lock:
            self.analyze_calls += 1
        time.sleep(0.05)  # keep the analysis in flight while peers storm
        return {"mean": float(np.mean(data))}

    def estimate(self, data, *, analysis=None, objective=None):
        from repro.core.inference import Estimate

        return Estimate(
            config=1e-3,
            target_ratio=objective.tcr,
            adjusted_target=objective.tcr,
            nonconstant=1.0,
            features=np.zeros(5),
            analysis_seconds=0.0,
            tier="model",
            confidence=1.0,
        )


class TestServiceMissStorm:
    def test_same_fingerprint_storm_runs_one_analysis(self):
        """N concurrent submitters of one dataset share a single analysis.

        The storm goes through the full service path — fingerprinting,
        per-key queues, worker threads — so this covers the in-flight
        dedup contract end to end, not just the cache primitive.
        """
        from repro.serving import EstimateRequest, EstimationService

        engine = _CountingEngine()
        data = np.linspace(0.0, 1.0, 4096).reshape(16, 16, 16)
        started = threading.Barrier(8)
        futures = []
        futures_lock = threading.Lock()

        with EstimationService(engine, workers=8, max_batch=1) as service:

            def submitter(i: int) -> None:
                started.wait()
                future = service.submit(
                    EstimateRequest(data=data, target_ratio=4.0 + i)
                )
                with futures_lock:
                    futures.append(future)

            threads = [
                threading.Thread(target=submitter, args=(i,))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            served = [f.result(timeout=30) for f in futures]

        assert engine.analyze_calls == 1, (
            "a same-fingerprint miss storm must run exactly one analysis"
        )
        assert len({s.dataset_key for s in served}) == 1
        assert sum(1 for s in served if not s.cache_hit) == 1
