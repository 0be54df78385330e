"""Estimation serving subsystem: registry, cache, one estimation service.

FXRZ inference is compressor-free and cheap — exactly the workload a
request-serving layer amortizes further. This package owns the full
request lifecycle:

* :class:`ModelRegistry` — versioned persisted pipelines keyed by
  compressor + training-corpus fingerprint, with a ``latest`` alias and
  an LRU of deserialized models;
* :class:`FeatureCache` / :func:`dataset_fingerprint` — content-hash a
  dataset's sampled view once, reuse its extracted features and
  non-constant block fraction across all subsequent targets;
* :class:`EstimationService` — submit :class:`EstimateRequest`\\ s
  individually; a worker pool coalesces same-dataset requests so the
  analysis runs once per batch, and results come back as futures.
  ``for_pipeline(..., shards=N)`` adds a shard lane
  (:class:`~repro.serving.supervisor.ShardPool`): supervised worker
  processes with circuit breakers, bounded admission (load shedding),
  crash/hang detection with respawn, and the in-process workers as its
  FRaZ-terminated fallback (see ``docs/ROBUSTNESS.md``). Admission,
  deadlines, completion, ``close()`` and the ``serving.request`` span
  are written once, whichever lane serves;
* :class:`MetricsSnapshot` — per-request latency, cache hit/miss
  counters, and tier/fallback counts from the guarded engine, read
  back from the ``repro_serving_*`` series in the service's metrics
  registry;
  :class:`SupervisorStats` — what the shard lane's supervision did.

See ``docs/API.md`` ("Estimation serving") for the on-disk registry
layout and cache keying semantics.
"""

from repro.serving.cache import FeatureCache, dataset_fingerprint
from repro.serving.metrics import MetricsRecorder, MetricsSnapshot
from repro.serving.registry import (
    LATEST,
    ModelRegistry,
    ModelVersion,
)
from repro.serving.service import (
    EstimateRequest,
    EstimationService,
    ServedEstimate,
)
from repro.serving.supervisor import CircuitBreaker, SupervisorStats

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
    "ServedEstimate",
    "SupervisorStats",
    "dataset_fingerprint",
]
