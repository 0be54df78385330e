"""Service metrics: counters, latency distribution, tier accounting.

The serving layer records every request's outcome into a thread-safe
:class:`MetricsRecorder`; :meth:`MetricsRecorder.snapshot` freezes the
current state into an immutable :class:`MetricsSnapshot` that the CLI
``--stats`` view and the throughput benchmark render. Latencies keep a
bounded window (the most recent :data:`LATENCY_WINDOW` requests) so a
long-lived service never grows without bound.

Two representation rules worth spelling out:

* **No data is not zero.** The latency aggregates are ``None`` (and
  render as ``n/a``) when the window is empty — a service that has only
  ever failed requests must not report a 0.00 ms p95.
* **Failures are labeled, not folded in.** A failed request counts
  toward ``requests_total``/``requests_failed`` only; its latency never
  enters the window, so the percentiles describe successful service
  latency exclusively.

When a process-wide :class:`repro.obs.MetricsRegistry` is installed
(or passed as ``registry=``), the recorder mirrors every event into
namespaced metrics — ``repro_serving_requests_total{outcome=}``,
``repro_serving_latency_seconds{outcome=}`` (histogram),
``repro_serving_batches_total``, ``repro_serving_batched_requests_total``,
``repro_serving_tier_total{tier=}``,
``repro_serving_analysis_seconds_total`` — so the serving numbers
export alongside the rest of the pipeline's.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from repro import obs

#: Ladder tiers a request can be answered from (plus "error").
TIERS = ("model", "curve", "fraz")

#: Successful-request latencies retained for the percentile view.
LATENCY_WINDOW = 4096


def _ms(value: "float | None") -> str:
    return "n/a" if value is None else f"{value:.2f}ms"


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable view of a service's counters at one instant.

    Attributes:
        requests_total: completed requests (successes + failures).
        requests_failed: requests whose engine raised.
        batches: dataset-coalesced batches processed.
        mean_batch_size: requests per batch on average.
        cache_hits / cache_misses: feature-cache lookups.
        cache_hit_ratio: hits / lookups (0.0 before any lookup).
        cache_evictions: analyses dropped by the LRU.
        tier_counts: requests answered per ladder tier.
        fallback_count: requests the model tier did *not* answer
            (degraded to curve/fraz) — the guarded ladder's degradation
            counter.
        latency_count: successful requests inside the retained latency
            window (failures never enter it).
        latency_mean_ms / latency_p50_ms / latency_p95_ms /
        latency_max_ms: submit-to-completion latency over that window,
            or ``None`` when no successful request has been recorded —
            "no data" is distinct from a true 0 ms.
        analysis_seconds_total: engine-reported per-request analysis
            time, summed (the amortized-cost numerator).
        uptime_seconds: service age at snapshot time.
    """

    requests_total: int
    requests_failed: int
    batches: int
    mean_batch_size: float
    cache_hits: int
    cache_misses: int
    cache_hit_ratio: float
    cache_evictions: int
    tier_counts: dict[str, int]
    fallback_count: int
    latency_count: int
    latency_mean_ms: float | None
    latency_p50_ms: float | None
    latency_p95_ms: float | None
    latency_max_ms: float | None
    analysis_seconds_total: float
    uptime_seconds: float

    def lines(self) -> list[str]:
        """Human-readable key/value lines (the CLI ``--stats`` view)."""
        tiers = ", ".join(
            f"{name}={count}" for name, count in sorted(self.tier_counts.items())
        ) or "none"
        return [
            f"requests        {self.requests_total} "
            f"({self.requests_failed} failed)",
            f"batches         {self.batches} "
            f"(mean size {self.mean_batch_size:.1f})",
            f"feature cache   {self.cache_hits} hits / "
            f"{self.cache_misses} misses "
            f"(hit ratio {self.cache_hit_ratio:.0%}, "
            f"{self.cache_evictions} evicted)",
            f"tiers           {tiers} (fallbacks {self.fallback_count})",
            f"latency         mean {_ms(self.latency_mean_ms)}, "
            f"p50 {_ms(self.latency_p50_ms)}, p95 {_ms(self.latency_p95_ms)}, "
            f"max {_ms(self.latency_max_ms)} over {self.latency_count} requests",
            f"analysis time   {self.analysis_seconds_total * 1e3:.1f}ms total",
            f"uptime          {self.uptime_seconds:.1f}s",
        ]


class MetricsRecorder:
    """Thread-safe accumulator behind a service's ``metrics`` property.

    Args:
        registry: a :class:`repro.obs.MetricsRegistry` to mirror events
            into; defaults to the process-wide installed registry (or
            no mirroring when none is installed).
    """

    def __init__(self, registry=None) -> None:
        self._lock = threading.Lock()
        self._start = time.perf_counter()
        self._requests_total = 0
        self._requests_failed = 0
        self._batches = 0
        self._batched_requests = 0
        self._tier_counts: Counter[str] = Counter()
        self._fallbacks = 0
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._analysis_seconds = 0.0
        if registry is None:
            registry = obs.get_registry()
        self._requests_metric = self._latency_metric = None
        self._batches_metric = self._batched_metric = None
        self._tier_metric = self._analysis_metric = None
        if registry is not None:
            self._requests_metric = registry.counter(
                "repro_serving_requests_total",
                "estimation requests by outcome",
            )
            self._latency_metric = registry.histogram(
                "repro_serving_latency_seconds",
                "request submit-to-completion latency",
            )
            self._batches_metric = registry.counter(
                "repro_serving_batches_total",
                "dataset-coalesced batches processed",
            )
            self._batched_metric = registry.counter(
                "repro_serving_batched_requests_total",
                "requests processed through batches",
            )
            self._tier_metric = registry.counter(
                "repro_serving_tier_total",
                "successful requests by answering tier",
            )
            self._analysis_metric = registry.counter(
                "repro_serving_analysis_seconds_total",
                "engine-reported analysis seconds, summed",
            )
            # Pre-bound series handles: the per-request mirror runs on
            # the serving hot path, so the label keys are resolved once
            # here instead of on every event.
            self._requests_ok = self._requests_metric.bind(outcome="ok")
            self._requests_error = self._requests_metric.bind(outcome="error")
            self._latency_ok = self._latency_metric.bind(outcome="ok")
            self._latency_error = self._latency_metric.bind(outcome="error")
            self._tier_bound = {
                tier: self._tier_metric.bind(tier=tier) for tier in TIERS
            }
            self._analysis_bound = self._analysis_metric.bind()
            self._batches_bound = self._batches_metric.bind()
            self._batched_bound = self._batched_metric.bind()

    def record_batch(self, size: int) -> None:
        with self._lock:
            self._batches += 1
            self._batched_requests += int(size)
        if self._batches_metric is not None:
            self._batches_bound.inc()
            self._batched_bound.inc(int(size))

    def record_request(
        self,
        latency_seconds: float,
        tier: str = "",
        analysis_seconds: float = 0.0,
        failed: bool = False,
    ) -> None:
        with self._lock:
            self._requests_total += 1
            if failed:
                # Failures are counted, not timed: folding their
                # latency into the window would let errors skew (or
                # fabricate) the service's latency percentiles.
                self._requests_failed += 1
            else:
                self._latencies.append(float(latency_seconds))
                self._analysis_seconds += float(analysis_seconds)
                if tier:
                    self._tier_counts[tier] += 1
                    if tier != "model":
                        self._fallbacks += 1
        if self._requests_metric is not None:
            if failed:
                self._requests_error.inc()
                self._latency_error.observe(float(latency_seconds))
            else:
                self._requests_ok.inc()
                self._latency_ok.observe(float(latency_seconds))
                if tier:
                    bound = self._tier_bound.get(tier)
                    if bound is not None:
                        bound.inc()
                    else:
                        self._tier_metric.inc(tier=tier)
                self._analysis_bound.inc(float(analysis_seconds))

    def snapshot(self, cache=None) -> MetricsSnapshot:
        """Freeze the counters; ``cache`` supplies hit/miss/eviction."""
        with self._lock:
            latencies = np.array(self._latencies, dtype=np.float64)
            tier_counts = dict(self._tier_counts)
            requests_total = self._requests_total
            requests_failed = self._requests_failed
            batches = self._batches
            batched = self._batched_requests
            fallbacks = self._fallbacks
            analysis_seconds = self._analysis_seconds
            uptime = time.perf_counter() - self._start
        hits = int(getattr(cache, "hits", 0))
        misses = int(getattr(cache, "misses", 0))
        evictions = int(getattr(cache, "evictions", 0))
        lookups = hits + misses
        has_latency = latencies.size > 0
        return MetricsSnapshot(
            requests_total=requests_total,
            requests_failed=requests_failed,
            batches=batches,
            mean_batch_size=batched / batches if batches else 0.0,
            cache_hits=hits,
            cache_misses=misses,
            cache_hit_ratio=hits / lookups if lookups else 0.0,
            cache_evictions=evictions,
            tier_counts=tier_counts,
            fallback_count=fallbacks,
            latency_count=int(latencies.size),
            latency_mean_ms=float(latencies.mean() * 1e3) if has_latency else None,
            latency_p50_ms=(
                float(np.percentile(latencies, 50) * 1e3) if has_latency else None
            ),
            latency_p95_ms=(
                float(np.percentile(latencies, 95) * 1e3) if has_latency else None
            ),
            latency_max_ms=float(latencies.max() * 1e3) if has_latency else None,
            analysis_seconds_total=analysis_seconds,
            uptime_seconds=uptime,
        )
