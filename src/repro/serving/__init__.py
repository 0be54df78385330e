"""Estimation serving subsystem: registry, cache, batched service.

FXRZ inference is compressor-free and cheap — exactly the workload a
request-serving layer amortizes further. This package owns the full
request lifecycle:

* :class:`ModelRegistry` — versioned persisted pipelines keyed by
  compressor + training-corpus fingerprint, with a ``latest`` alias and
  an LRU of deserialized models;
* :class:`FeatureCache` / :func:`dataset_fingerprint` — content-hash a
  dataset's sampled view once, reuse its extracted features and
  non-constant block fraction across all subsequent targets;
* :mod:`~repro.serving.frontend` — the request lifecycle both
  front-ends and the shard worker share: one engine builder, one
  answer call (cached analysis plus ``engine.estimate``), and one
  admission/completion core;
* :class:`EstimationService` — submit :class:`EstimateRequest`\\ s
  individually, a worker pool coalesces same-dataset requests so the
  analysis runs once per batch, results come back as futures;
* :class:`MetricsSnapshot` — per-request latency, cache hit/miss
  counters, and tier/fallback counts from the guarded engine;
* :class:`ShardedEstimationService` — the fault-tolerant multi-process
  front-end: supervised worker shards with circuit breakers, bounded
  admission (load shedding), per-request deadlines, crash/hang
  detection with respawn, and a degradation-ladder fallback (see
  ``docs/ROBUSTNESS.md``).

See ``docs/API.md`` ("Estimation serving") for the on-disk registry
layout and cache keying semantics.
"""

from repro.serving.cache import FeatureCache, dataset_fingerprint
from repro.serving.metrics import MetricsRecorder, MetricsSnapshot
from repro.serving.registry import (
    LATEST,
    ModelRegistry,
    ModelVersion,
    QualityVersion,
)
from repro.serving.frontend import (
    EstimateRequest,
    ServedEstimate,
    resolved_objective,
)
from repro.serving.service import EstimationService
from repro.serving.supervisor import (
    CircuitBreaker,
    ShardedEstimationService,
    SupervisorStats,
)

__all__ = [
    "CircuitBreaker",
    "EstimateRequest",
    "EstimationService",
    "FeatureCache",
    "LATEST",
    "MetricsRecorder",
    "MetricsSnapshot",
    "ModelRegistry",
    "ModelVersion",
    "QualityVersion",
    "ServedEstimate",
    "ShardedEstimationService",
    "SupervisorStats",
    "dataset_fingerprint",
    "resolved_objective",
]
