"""Service metrics: counters, latency distribution, tier accounting.

The serving layer records every request's outcome through a
:class:`MetricsRecorder`, which writes only to six series of a
:class:`repro.obs.MetricsRegistry` --
``repro_serving_requests_total{outcome=}``,
``repro_serving_latency_seconds{outcome=}`` (histogram),
``repro_serving_batches_total``, ``repro_serving_batched_requests_total``,
``repro_serving_tier_total{tier=}`` and
``repro_serving_analysis_seconds_total``. The registry is the one place
the counts live: :meth:`MetricsRecorder.snapshot` reads those series
back into an immutable :class:`MetricsSnapshot` for the CLI ``--stats``
view and the throughput benchmark, and a ``/metrics`` scrape exports
the same numbers. Services that share a registry share counts.

Latency percentiles are all-time estimates from the histogram's
buckets (:func:`repro.obs.metrics.bucket_interpolate`): on the default
1-2.5-5 grid a percentile is off by less than one bucket's width.

Two representation rules worth spelling out:

* **No data is not zero.** The latency aggregates are ``None`` (and
  render as ``n/a``) before any successful request -- a service that
  has only ever failed requests must not report a 0.00 ms p95.
* **Failures are labeled, not folded in.** A failed request counts
  toward ``requests_total``/``requests_failed`` and lands in the
  ``outcome="error"`` latency series; the snapshot's latency figures
  read only ``outcome="ok"``, so they describe successful service
  latency exclusively.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.obs.metrics import bucket_interpolate

#: Ladder tiers a request can be answered from (plus "error").
TIERS = ("model", "curve", "fraz")


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
        latency_count: successful requests timed (failures never are).
        latency_mean_ms / latency_p50_ms / latency_p95_ms /
        latency_max_ms: submit-to-completion latency of those requests
            (the mean exact, the rest bucket estimates), or ``None``
            when no successful request has been recorded -- "no data"
            is distinct from a true 0 ms.
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
    """A service's view of its ``repro_serving_*`` series.

    Holds pre-bound series handles and the service start time, nothing
    else: every count is written to and read back from ``registry``.

    Args:
        registry: the :class:`repro.obs.MetricsRegistry` the series
            live in.
    """

    def __init__(self, registry) -> None:
        self._start = time.perf_counter()
        requests = registry.counter(
            "repro_serving_requests_total", "estimation requests by outcome"
        )
        latency = registry.histogram(
            "repro_serving_latency_seconds",
            "request submit-to-completion latency",
        )
        self._tiers = registry.counter(
            "repro_serving_tier_total", "successful requests by answering tier"
        )
        # Pre-bound series handles: recording runs on the serving hot
        # path, so the label keys are resolved once here instead of on
        # every event.
        self._requests_ok = requests.bind(outcome="ok")
        self._requests_error = requests.bind(outcome="error")
        self._latency_ok = latency.bind(outcome="ok")
        self._latency_error = latency.bind(outcome="error")
        self._tier_bound = {tier: self._tiers.bind(tier=tier) for tier in TIERS}
        self._batches = registry.counter(
            "repro_serving_batches_total", "dataset-coalesced batches processed"
        ).bind()
        self._batched = registry.counter(
            "repro_serving_batched_requests_total",
            "requests processed through batches",
        ).bind()
        self._analysis = registry.counter(
            "repro_serving_analysis_seconds_total",
            "engine-reported analysis seconds, summed",
        ).bind()

    def record_batch(self, size: int) -> None:
        self._batches.inc()
        self._batched.inc(int(size))

    def record_request(
        self,
        latency_seconds: float,
        tier: str = "",
        analysis_seconds: float = 0.0,
        failed: bool = False,
    ) -> None:
        if failed:
            self._requests_error.inc()
            self._latency_error.observe(latency_seconds)
            return
        self._requests_ok.inc()
        self._latency_ok.observe(latency_seconds)
        if tier:
            bound = self._tier_bound.get(tier)
            if bound is not None:
                bound.inc()
            else:
                self._tiers.inc(tier=tier)
        self._analysis.inc(float(analysis_seconds))

    def snapshot(self, cache=None) -> MetricsSnapshot:
        """Read the series back; ``cache`` supplies hit/miss/eviction."""
        tier_counts = {
            dict(key)["tier"]: int(self._tiers.value(**dict(key)))
            for key in self._tiers.labels()
        }
        succeeded = int(self._requests_ok.value())
        failed = int(self._requests_error.value())
        batches = int(self._batches.value())
        latency = self._latency_ok.snapshot()
        timed = latency["count"]
        bounds, counts = self._latency_ok.buckets, latency["counts"]

        def quantile_ms(q: float) -> float | None:
            if not timed:
                return None
            return bucket_interpolate(bounds, counts, rank=q * timed) * 1e3

        hits = int(getattr(cache, "hits", 0))
        misses = int(getattr(cache, "misses", 0))
        evictions = int(getattr(cache, "evictions", 0))
        lookups = hits + misses
        return MetricsSnapshot(
            requests_total=succeeded + failed,
            requests_failed=failed,
            batches=batches,
            mean_batch_size=self._batched.value() / batches if batches else 0.0,
            cache_hits=hits,
            cache_misses=misses,
            cache_hit_ratio=hits / lookups if lookups else 0.0,
            cache_evictions=evictions,
            tier_counts=tier_counts,
            fallback_count=sum(
                count for tier, count in tier_counts.items() if tier != "model"
            ),
            latency_count=timed,
            latency_mean_ms=latency["sum"] / timed * 1e3 if timed else None,
            latency_p50_ms=quantile_ms(0.50),
            latency_p95_ms=quantile_ms(0.95),
            latency_max_ms=quantile_ms(1.0),
            analysis_seconds_total=self._analysis.value(),
            uptime_seconds=time.perf_counter() - self._start,
        )
