"""The in-process estimation service: batched, concurrent, cached.

FXRZ's pitch (and Table VIII's headline) is that inference is
compressor-free and cheap; this module amortizes it further for the
request-serving workload the ROADMAP targets. Clients ``submit``
individual :class:`EstimateRequest`\\ s and receive futures; a pool of
worker threads drains the queue, **coalescing requests that target the
same dataset** into one batch so the expensive per-dataset analysis
(sampled features + constant-block classification) runs once and every
target in the batch reuses it via the :class:`~repro.serving.cache.FeatureCache`.

The engine is pluggable: the plain
:class:`~repro.core.inference.InferenceEngine` gives answers identical
to direct calls, while the PR-1
:class:`~repro.robustness.guarded.GuardedInferenceEngine` plugs its
degradation ladder into the service so every curve/FRaZ fallback is
*counted* in the metrics, not just returned.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque

from repro import obs
from repro.core.pipeline import FXRZ
from repro.errors import (
    DeadlineExceededError,
    InvalidConfiguration,
    NotFittedError,
    ServiceClosedError,
)
from repro.obs.trace import SpanContext
from repro.serving.cache import FeatureCache
from repro.serving.frontend import Admitted, Frontend, answer, build_engine
from repro.serving.metrics import MetricsSnapshot

#: LRU capacity of the per-dataset analysis cache.
FEATURE_CACHE_ENTRIES = 128


class EstimationService(Frontend):
    """Batched concurrent front-end over one inference engine.

    Args:
        engine: anything exposing ``analyze(data)`` and
            ``estimate(data, analysis=..., objective=...)`` — the plain
            or the guarded engine.
        workers: worker threads draining the queue.
        max_batch: cap on how many same-dataset requests one worker
            coalesces into a single batch.
        default_deadline: deadline (seconds) applied to requests that do
            not carry their own ``deadline_seconds``. ``None`` resolves
            from the context's :attr:`RuntimeConfig.deadline` (0 there
            means "no deadline"); an expired request fails with
            :class:`~repro.errors.DeadlineExceededError` instead of
            being served late or waited on forever.
        ctx: a :class:`~repro.runtime.RuntimeContext`; its registry (or
            the ambient installed one when no context is given) gets
            the feature-cache gauges bound.
        outcome_log: a :class:`~repro.lifecycle.OutcomeLog` every served
            estimate is recorded to (source ``"service"``); ``None``
            defaults to the context's :attr:`RuntimeContext.lifecycle`.
    """

    def __init__(
        self,
        engine,
        *,
        workers: int = 4,
        max_batch: int = 32,
        default_deadline: float | None = None,
        ctx=None,
        outcome_log=None,
    ) -> None:
        if workers < 1:
            raise InvalidConfiguration("service needs at least one worker")
        if max_batch < 1:
            raise InvalidConfiguration("max_batch must be >= 1")
        self._setup(
            ctx=ctx,
            outcome_log=outcome_log,
            default_deadline=default_deadline,
            stride=getattr(engine.config, "sampling_stride", 1),
            compressor=getattr(
                getattr(engine, "compressor", None), "name", ""
            ),
        )
        self.engine = engine
        self.max_batch = int(max_batch)
        self.cache = FeatureCache(max_entries=FEATURE_CACHE_ENTRIES, ctx=ctx)
        if ctx is None:
            registry = obs.get_registry()
            if registry is not None:
                obs.bind_cache_gauges(
                    registry, "serving_feature_cache", self.cache
                )
        self._pending: OrderedDict[str, deque[Admitted]] = OrderedDict()
        self._cond = threading.Condition()
        self._workers = [
            threading.Thread(
                target=self._worker, daemon=True, name=f"fxrz-serve-{i}"
            )
            for i in range(int(workers))
        ]
        for thread in self._workers:
            thread.start()

    @classmethod
    def for_pipeline(
        cls,
        pipeline: FXRZ,
        guarded: bool = False,
        guard_options: dict | None = None,
        *,
        ctx=None,
        **service_options,
    ) -> "EstimationService":
        """A service over a fitted pipeline.

        ``guarded=False`` serves through the plain engine (answers
        identical to ``pipeline.estimate_config``); ``guarded=True``
        builds the robustness ladder with ``guard_options`` forwarded to
        :meth:`FXRZ.guarded`, so degradations show up in the metrics.
        ``ctx`` (a :class:`~repro.runtime.RuntimeContext`, defaulting
        to the pipeline's own) supplies the shared memo of the guarded
        engine's FRaZ rung, so fallback searches across requests share
        compressor runs.
        """
        if not pipeline.is_fitted:
            raise NotFittedError("serve needs a fitted pipeline")
        if ctx is None:
            ctx = getattr(pipeline, "ctx", None)
        engine = build_engine(pipeline, guarded, guard_options, ctx)
        return cls(engine, ctx=ctx, **service_options)

    @property
    def metrics(self) -> MetricsSnapshot:
        """A frozen snapshot of the service counters."""
        return self._metrics.snapshot(cache=self.cache)

    def close(self, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the workers (idempotent).

        ``drain=True`` (the default) serves everything already queued
        first. ``drain=False`` rejects every queued request immediately
        with :class:`~repro.errors.ServiceClosedError` so no caller is
        left blocked on a future that will never resolve. ``timeout``
        bounds the per-worker join either way; workers are daemons, so
        a join that times out leaks no process-exit hazard.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            if not drain:
                rejected = [
                    item
                    for queue in self._pending.values()
                    for item in queue
                ]
                self._pending.clear()
            else:
                rejected = []
            self._cond.notify_all()
        for item in rejected:
            self._failed(
                item,
                ServiceClosedError(
                    f"estimation service closed before serving "
                    f"{item.request_id}"
                ),
            )
        for thread in self._workers:
            thread.join(timeout=timeout)

    # -- internals -------------------------------------------------------------

    def _enqueue(self, item: Admitted):
        with self._cond:
            self._check_open()
            # Coalesce by (objective kind, dataset): same-dataset batches
            # share one analysis either way, but quality batches run the
            # compressor and must not head-of-line-block ratio batches.
            self._pending.setdefault(
                f"{item.objective.kind}|{item.dataset_key}", deque()
            ).append(item)
        return item.future

    def _wake(self, n: int) -> None:
        with self._cond:
            self._cond.notify(n)

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._closed:
                    self._cond.wait()
                if not self._pending:
                    return  # closed and drained
                key, queue = next(iter(self._pending.items()))
                batch = [
                    queue.popleft()
                    for _ in range(min(len(queue), self.max_batch))
                ]
                if queue:
                    # Leftovers go to the back so other datasets get a
                    # turn before this one's next chunk.
                    self._pending.move_to_end(key)
                else:
                    del self._pending[key]
            self._metrics.record_batch(len(batch))
            with obs.span("serving.batch", batch_size=len(batch)):
                for item in batch:
                    self._serve_one(item, len(batch))

    def _serve_one(self, item: Admitted, batch_size: int) -> None:
        if item.deadline is not None and time.monotonic() > item.deadline:
            # Serving an already-expired request wastes engine time the
            # caller will never see; fail fast instead.
            self._failed(
                item,
                DeadlineExceededError(
                    f"request {item.request_id} expired in queue "
                    f"(deadline {item.deadline - item.submitted:.3f}s)"
                ),
            )
            return
        tracer = obs.get_tracer()
        if tracer is None:
            span = obs.NULL_SPAN
        else:
            parent = item.request.trace
            span = tracer.span(
                "serving.request",
                parent=parent if parent is not None else obs.current_context(),
                objective=item.objective.canonical,
            )
        with span as sp:
            if tracer is not None:
                item.trace = SpanContext(sp.trace_id, sp.span_id)
            try:
                estimate, hit = answer(
                    self.engine,
                    self.cache,
                    item.dataset_key,
                    item.request.data,
                    item.objective,
                )
            except Exception as exc:  # noqa: BLE001 — future carries it
                self._failed(item, exc)
                return
            sp.set_attributes(cache_hit=hit, tier=estimate.tier)
        item.future.set_result(
            self._served(
                item, estimate, hit, source="service", batch_size=batch_size
            )
        )
