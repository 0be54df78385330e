"""The estimation service: one request lifecycle, in-process or sharded.

FXRZ's pitch (and Table VIII's headline) is that inference is
compressor-free and cheap; this module amortizes it further for the
request-serving workload. Clients ``submit`` individual
:class:`EstimateRequest`\\ s and receive futures. A pool of worker
threads drains the queue, **coalescing requests that target the same
dataset** into one batch so the per-dataset analysis (sampled features
+ constant-block classification) runs once and every target in the
batch reuses it via the :class:`~repro.serving.cache.FeatureCache`.

``EstimationService.for_pipeline(..., shards=N)`` adds a shard lane: a
:class:`~repro.serving.supervisor.ShardPool` of N supervised worker
processes takes every admitted request, and whatever no shard can take
comes back to the same worker pool, whose engine then ends in FRaZ.
Either way admission, deadline expiry, completion, ``close()``, the
root ``serving.request`` span and the scrape endpoint are written once,
here, next to the request types and the one engine call (:func:`answer`)
that the workers and the shard processes share.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import os
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.inference import Estimate, InferenceEngine, resolve_objective
from repro.core.objective import Objective
from repro.core.pipeline import FXRZ
from repro.errors import (
    DeadlineExceededError,
    InvalidConfiguration,
    NotFittedError,
    ServiceClosedError,
)
from repro.obs.trace import Span, SpanContext, _new_id, attach, detach
from repro.runtime.config import RuntimeConfig
from repro.serving.cache import FeatureCache, dataset_fingerprint
from repro.serving.metrics import MetricsRecorder, MetricsSnapshot

#: LRU capacity of a per-dataset analysis cache (the service's and each
#: shard's).
FEATURE_CACHE_ENTRIES = 128

#: Datasets kept resident at once as shared-memory segments: the cap on
#: unpinned segments in the parent and on each shard's mappings.
MAX_DATASETS = 64


@dataclass
class EstimateRequest:
    """One estimation query.

    Attributes:
        data: the dataset to answer for.
        target_ratio: the requested TCR — the pre-objective calling
            convention; leave at ``0.0`` when ``objective`` is given.
        request_id: caller-chosen identifier echoed in the result
            (auto-assigned ``req-N`` when empty).
        dataset_id: optional explicit dataset key; requests sharing it
            are coalesced without content-hashing the array. Leave empty
            to let the service fingerprint the sampled view.
        deadline_seconds: per-request deadline relative to submission;
            a request still unserved past it fails with
            :class:`~repro.errors.DeadlineExceededError` instead of
            waiting forever. ``None`` falls back to the service's
            ``default_deadline``.
        trace: an explicit :class:`~repro.obs.SpanContext` to serve the
            request under — the service parents its request span (and,
            sharded, every shard-side span) there. ``None`` joins the
            ambient trace, or mints a fresh one when tracing is on.
        objective: the estimation target — an
            :class:`~repro.core.objective.Objective`, canonical string
            (``"psnr:60"``) or bare ratio. Mutually exclusive with a
            non-zero ``target_ratio``.
    """

    data: np.ndarray
    target_ratio: float = 0.0
    request_id: str = ""
    dataset_id: str = ""
    deadline_seconds: float | None = None
    trace: "obs.SpanContext | None" = None
    objective: "Objective | float | str | None" = None


@dataclass(frozen=True)
class ServedEstimate:
    """A completed request: the estimate plus serving bookkeeping.

    ``trace_id`` is the distributed-trace id the request was served
    under (0 when tracing was off), matching ``estimate.trace_id``.
    """

    request_id: str
    dataset_key: str
    estimate: Estimate
    latency_seconds: float
    cache_hit: bool
    batch_size: int
    trace_id: int = 0


@dataclass
class Admitted:
    """The service's record of one admitted request.

    ``submitted`` and ``deadline`` are on the :func:`time.monotonic`
    clock. ``trace`` holds the request span's own coordinates when the
    request is traced; ``parent_span`` and ``start_unix`` complete that
    span when it closes. The last four fields are shard-lane state: the
    shared-memory descriptor, and the shard, incarnation and redelivery
    count of the latest dispatch.
    """

    request: EstimateRequest
    future: Future
    seq: int
    request_id: str
    objective: Objective
    dataset_key: str
    submitted: float
    deadline: float | None
    trace: "obs.SpanContext | None" = None
    parent_span: int | None = None
    start_unix: float = 0.0
    descriptor: object = None
    shard: int = -1
    generation: int = -1
    redeliveries: int = 0


def build_engine(pipeline, guarded: bool, guard_options=None, ctx=None,
                 *, fallback: str | None = None):
    """The engine a fitted pipeline serves through: which ladder it walks.

    ``guarded=False`` gives the model-only ladder (answers identical to
    ``pipeline.estimate_config``); ``guarded=True`` the validated
    degradation ladder, with ``guard_options`` forwarded to
    :meth:`FXRZ.guarded` (a ``ctx`` there wins over ``ctx``) and
    ``fallback`` pinning its last rung.
    """
    if not guarded:
        return InferenceEngine(
            pipeline.model, pipeline.compressor, config=pipeline.config,
            ctx=ctx,
        )
    options = dict(guard_options or {})
    options.setdefault("ctx", ctx)
    if fallback is not None:
        options["fallback"] = fallback
    return pipeline.guarded(**options)


def answer(engine, cache: FeatureCache, key: str, data, objective: Objective):
    """``(estimate, cache_hit)``: the cached analysis plus one estimate.

    Every objective kind takes this one call; the engine picks the
    ladder.
    """
    analysis, hit = cache.get_or_compute(key, lambda: engine.analyze(data))
    return engine.estimate(data, analysis=analysis, objective=objective), hit


class EstimationService:
    """Batched concurrent service over one inference engine.

    Args:
        engine: an :class:`~repro.core.inference.InferenceEngine` (the
            plain or the guarded ladder), or anything exposing
            ``analyze(data)`` and ``estimate(data, analysis=...,
            objective=...)``.
        workers: worker threads draining the queue.
        max_batch: cap on how many same-dataset requests one worker
            coalesces into a single batch.
        default_deadline: deadline (seconds) applied to requests that do
            not carry their own ``deadline_seconds``. ``None`` resolves
            from :attr:`RuntimeConfig.deadline` (0 there means "no
            deadline"); an expired request fails with
            :class:`~repro.errors.DeadlineExceededError` instead of
            being served late or waited on forever.
        ctx: a :class:`~repro.runtime.RuntimeContext`; its config
            supplies the defaults (``RuntimeConfig()`` without one) and
            its registry (or the ambient installed one when no context
            is given, or else a private one) gets the service metrics
            and cache gauges.
        outcome_log: a :class:`~repro.lifecycle.OutcomeLog` every served
            estimate is recorded to, parent-side only; ``None`` defaults
            to the context's :attr:`RuntimeContext.lifecycle`.

    Traced requests (a tracer on the context or installed ambiently,
    sampled by :attr:`RuntimeConfig.trace_sample`) get one
    ``serving.request`` span from admission to resolution.

    With :attr:`RuntimeConfig.scrape_port` >= 0 the service serves
    ``/metrics``, ``/healthz``, ``/slo`` and ``/spans`` from its registry,
    its tracer and an :class:`~repro.obs.SLOTracker` over the
    ``slo_*`` objectives, at :attr:`scrape_url` until :meth:`close`.
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
        config = ctx.config if ctx is not None else RuntimeConfig()
        if default_deadline is None and config.deadline > 0:
            default_deadline = float(config.deadline)
        if default_deadline is not None and default_deadline <= 0:
            raise InvalidConfiguration("default_deadline must be positive")
        if outcome_log is None and ctx is not None:
            outcome_log = ctx.lifecycle
        self.engine = engine
        self.ctx = ctx
        self.outcome_log = outcome_log
        self.default_deadline = default_deadline
        self.max_batch = int(max_batch)
        self.trace_sample = float(config.trace_sample)
        #: The shard lane (:class:`ShardPool`), or ``None`` in-process.
        self.pool: "ShardPool | None" = None
        self._stride = getattr(engine.config, "sampling_stride", 1)
        self._compressor = getattr(
            getattr(engine, "compressor", None), "name", ""
        )
        registry = ctx.registry if ctx is not None else obs.get_registry()
        self._registry = registry or obs.MetricsRegistry()
        self._metrics = MetricsRecorder(self._registry)
        self.cache = FeatureCache(max_entries=FEATURE_CACHE_ENTRIES)
        self._unbind_cache = obs.bind_cache_gauges(
            self._registry, "serving_feature_cache", self.cache
        )
        self._seq = itertools.count(1)
        self._closed = False    # admission refused
        self._stopping = False  # workers exit once the queue is empty
        self._pending: OrderedDict[str, deque[Admitted]] = OrderedDict()
        self._cond = threading.Condition()
        self._obs_server = None
        if config.scrape_port >= 0:
            self._open_scrape_endpoint(config)
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
        shards: int = 0,
        workers: int = 4,
        max_batch: int = 32,
        default_deadline: float | None = None,
        outcome_log=None,
        **shard_options,
    ) -> "EstimationService":
        """A service over a fitted pipeline.

        ``guarded=False`` serves through the plain engine (answers
        identical to ``pipeline.estimate_config``); ``guarded=True``
        builds the robustness ladder with ``guard_options`` forwarded to
        :meth:`FXRZ.guarded`, so degradations show up in the metrics.
        ``ctx`` defaults to the pipeline's own context.

        ``shards=0`` serves in-process and starts no thread besides the
        workers. ``shards=N`` attaches a :class:`ShardPool` of N
        supervised processes serving ``guarded``'s engine, configured by
        ``shard_options`` (ignored when ``shards=0``); the workers then
        serve only what no shard can take, through the guarded engine
        ending in FRaZ.
        """
        if not pipeline.is_fitted:
            raise NotFittedError("serve needs a fitted pipeline")
        if shards < 0:
            raise InvalidConfiguration("shards must be >= 0")
        if ctx is None:
            ctx = getattr(pipeline, "ctx", None)
        # Behind shards the workers are the rescue lane, so their engine
        # is guarded and always ends in FRaZ, whatever the shards run.
        engine = build_engine(
            pipeline, guarded or shards > 0, guard_options, ctx,
            fallback="fraz" if shards else None,
        )
        service = cls(
            engine,
            workers=workers,
            max_batch=max_batch,
            default_deadline=default_deadline,
            ctx=ctx,
            outcome_log=outcome_log,
        )
        if shards:
            # Imported here: the shard lane is built on this module.
            from repro.serving.supervisor import ShardPool

            try:
                service.pool = ShardPool(
                    service,
                    pipeline,
                    shards=shards,
                    guarded=guarded,
                    guard_options=guard_options,
                    **shard_options,
                )
            except BaseException:
                service.close(drain=False)
                raise
        return service

    @property
    def metrics(self) -> MetricsSnapshot:
        """A frozen snapshot of the service's series in its registry."""
        return self._metrics.snapshot(cache=self.cache)

    @property
    def scrape_url(self) -> str | None:
        """Base URL of the scrape endpoint (``None`` when scraping is off)."""
        return self._obs_server.url if self._obs_server is not None else None

    def _open_scrape_endpoint(self, config: RuntimeConfig) -> None:
        """Start the SLO tracker's sampler and the scrape endpoint."""
        tracker = obs.SLOTracker(
            self._registry,
            availability=float(config.slo_availability),
            p99_seconds=float(config.slo_p99_ms) / 1000.0,
            window=float(config.slo_window),
        )
        try:
            self._obs_server = obs.ObservabilityServer(
                self._registry,
                tracer=self._trace_sink(),
                slo_tracker=tracker,
                health=self._health,
                port=int(config.scrape_port),
            )
        except BaseException:
            tracker.close()
            self._unbind_cache()
            raise
        tracker.start()

    def _health(self) -> dict:
        """The ``/healthz`` body; the shard lane adds its shard states
        and supervision counters, and is healthy while a shard is ready."""
        closed = self._closed
        if self.pool is None:
            return {"healthy": not closed, "closed": closed}
        states = self.pool.shard_states()
        return {
            "healthy": not closed
            and any(state["state"] == "ready" for state in states),
            "closed": closed,
            "shards": states,
            "stats": dataclasses.asdict(self.pool.stats),
        }

    # -- client API ------------------------------------------------------------

    def submit(self, request: EstimateRequest) -> Future:
        """Queue one request; the future resolves to a ServedEstimate.

        Raises:
            ServiceOverloadedError: the shard lane's admission queue is
                full (carries a ``retry_after`` hint).
            ServiceClosedError: the service was closed.
        """
        return self.submit_many([request])[0]

    def submit_many(self, requests: list[EstimateRequest]) -> list[Future]:
        """Admit a whole batch before waking the workers, so they see
        full same-dataset groups rather than a trickle."""
        futures = [self._enqueue(self._admit(request)) for request in requests]
        with self._cond:
            self._cond.notify(len(futures))
        return futures

    def run_batch(
        self, requests: list[EstimateRequest], timeout: float | None = None
    ) -> list[ServedEstimate]:
        """Submit ``requests`` and wait for every result, in order.

        ``timeout`` bounds the wait for *each* future; a wait that runs
        out raises :class:`~repro.errors.DeadlineExceededError` rather
        than the bare :class:`concurrent.futures.TimeoutError`, keeping
        every timeout surface of the service under one exception type.
        """
        results = []
        for future in self.submit_many(requests):
            try:
                results.append(future.result(timeout=timeout))
            except FuturesTimeoutError as exc:
                raise DeadlineExceededError(
                    f"no result within {timeout:.3f}s wait budget"
                ) from exc
        return results

    def estimate(
        self, data, target_ratio: float | None = None, *, objective=None
    ) -> ServedEstimate:
        """Synchronous single-request convenience."""
        objective = resolve_objective(target_ratio, objective)
        request = EstimateRequest(data, objective=objective)
        return self.submit(request).result()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop the service; **no future is left unresolved** (idempotent).

        ``drain=True`` (the default) serves everything already admitted
        first; ``timeout`` bounds the shard lane's drain and each worker
        join. Whatever is still unserved after that — or everything
        queued, when ``drain=False`` — fails with
        :class:`~repro.errors.ServiceClosedError`.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
        leftovers = (
            self.pool.stop(drain, timeout) if self.pool is not None else []
        )
        with self._cond:
            self._stopping = True
            if not drain:
                leftovers += [
                    item for queue in self._pending.values() for item in queue
                ]
                self._pending.clear()
            self._cond.notify_all()
        for item in leftovers:
            self._fail(
                item,
                ServiceClosedError(
                    f"estimation service closed before serving "
                    f"{item.request_id}"
                ),
            )
        for thread in self._workers:
            thread.join(timeout=timeout)
        if self._obs_server is not None:
            self._obs_server.close()
            self._obs_server.slo_tracker.close()
        self._unbind_cache()

    # -- admission -------------------------------------------------------------

    def _trace_sink(self):
        """The tracer request spans land in (None = untraced)."""
        tracer = self.ctx.tracer if self.ctx is not None else None
        return tracer if tracer is not None else obs.get_tracer()

    def _sampled(self, seq: int) -> bool:
        """Deterministic per-request sampling decision (keyed on seq):
        the hash lies in [0, 1), so 1.0 samples all and 0.0 none."""
        return ((seq * 0x9E3779B1) & 0xFFFF) / 65536.0 < self.trace_sample

    def _admit(self, request: EstimateRequest) -> Admitted:
        """Validate ``request``, stamp its id, key and deadline, and open
        its request span when it is sampled.

        Raises before anything is queued: an invalid objective and a
        non-positive deadline fail the submit call.
        """
        objective = resolve_objective(
            request.target_ratio or None, request.objective
        )
        relative = (
            request.deadline_seconds
            if request.deadline_seconds is not None
            else self.default_deadline
        )
        if relative is not None and relative <= 0:
            raise InvalidConfiguration("deadline_seconds must be positive")
        if request.dataset_id:
            key = f"id:{request.dataset_id}"
        else:
            key = dataset_fingerprint(request.data, stride=self._stride)
        seq = next(self._seq)
        submitted = time.monotonic()
        item = Admitted(
            request=request,
            future=Future(),
            seq=seq,
            request_id=request.request_id or f"req-{seq}",
            objective=objective,
            dataset_key=key,
            submitted=submitted,
            deadline=None if relative is None else submitted + relative,
        )
        if self._trace_sink() is not None and self._sampled(seq):
            # Join the caller's trace (explicit on the request, or the
            # ambient context) or start a new root one. The span crosses
            # threads and processes, so it is built by hand and closed
            # at resolution rather than held by a ``with`` block.
            parent = request.trace or obs.current_context()
            item.trace = SpanContext(
                parent.trace_id if parent is not None else _new_id(),
                _new_id(),
            )
            item.parent_span = parent.span_id if parent is not None else None
            item.start_unix = time.time()
        return item

    def _enqueue(self, item: Admitted) -> Future:
        """Take custody of an admitted request.

        The open check runs under the lock ``close`` flips the flag
        under, so a racing close either sees the request (and resolves
        it) or the submit is refused.
        """
        with self._cond:
            if self._closed:
                raise ServiceClosedError(
                    "estimation service is closed; no new requests accepted"
                )
            if self.pool is not None:
                return self.pool.admit(item)
            self._push(item)
        return item.future

    def _push(self, item: Admitted) -> None:
        # Coalesce by (objective kind, dataset): same-dataset batches
        # share one analysis either way, but quality batches run the
        # compressor and must not head-of-line-block ratio batches.
        self._pending.setdefault(
            f"{item.objective.kind}|{item.dataset_key}", deque()
        ).append(item)

    def _run_local(self, item: Admitted) -> None:
        """Serve a request the shard lane could not place on a worker."""
        with self._cond:
            self._push(item)
            self._cond.notify()

    # -- workers ---------------------------------------------------------------

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._stopping:
                    self._cond.wait()
                if not self._pending:
                    return  # stopped and drained
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
            for item in batch:
                self._serve_local(item, len(batch))

    def _serve_local(self, item: Admitted, batch_size: int) -> None:
        if item.deadline is not None and time.monotonic() > item.deadline:
            # Serving an already-expired request wastes engine time the
            # caller will never see; fail fast instead.
            self._expire(item)
            return
        tracer = self._trace_sink() if item.trace is not None else None
        token = attach(item.trace) if tracer is not None else None
        # In-process the request span is the lane's own: engine spans go
        # straight under it. A rescue from the shard lane gets a span of
        # its own, naming the shard attempt it rescued.
        span = (
            tracer.span(
                "serving.local",
                request_id=item.request_id,
                generation=item.generation,
                redeliveries=item.redeliveries,
            )
            if token is not None and self.pool is not None
            else obs.NULL_SPAN
        )
        try:
            with span:
                estimate, hit = answer(
                    self.engine,
                    self.cache,
                    item.dataset_key,
                    item.request.data,
                    item.objective,
                )
        except Exception as exc:  # noqa: BLE001 — future carries it
            self._fail(item, exc)
            return
        finally:
            if token is not None:
                detach(token)
        self._complete(
            item,
            estimate,
            hit,
            source="service" if self.pool is None else "fallback",
            batch_size=batch_size,
        )

    # -- resolution: every request ends in exactly one of these ----------------

    def _complete(self, item: Admitted, estimate: Estimate, cache_hit: bool,
                  *, source: str, batch_size: int = 1) -> None:
        """Record a success and resolve the future with its result."""
        latency = time.monotonic() - item.submitted
        trace_id = item.trace.trace_id if item.trace is not None else 0
        if trace_id:
            # The estimate is this request's own (fresh from the engine
            # or unpickled from a shard's reply), so stamp it in place
            # rather than rebuild the frozen dataclass.
            object.__setattr__(estimate, "trace_id", trace_id)
        self._metrics.record_request(
            latency,
            tier=estimate.tier,
            analysis_seconds=estimate.analysis_seconds,
        )
        if self.outcome_log is not None:
            # Parent-side, single writer: a shard's estimate has already
            # crossed the reply pipe, so this append never interleaves
            # with a forked worker's writes. A full disk must not fail
            # the request.
            with contextlib.suppress(OSError):
                self.outcome_log.record_estimate(
                    estimate,
                    dataset_key=item.dataset_key,
                    compressor=self._compressor,
                    source=source,
                )
        # The span closes *before* the future resolves, so a caller that
        # reads the tracer right after ``.result()`` sees the whole tree.
        self._close_span(
            item, "ok", source=source, cache_hit=bool(cache_hit),
            tier=estimate.tier, batch_size=batch_size, shard=item.shard,
        )
        if self.pool is not None:
            self.pool.resolved(item)
        item.future.set_result(
            ServedEstimate(
                request_id=item.request_id,
                dataset_key=item.dataset_key,
                estimate=estimate,
                latency_seconds=latency,
                cache_hit=cache_hit,
                batch_size=batch_size,
                trace_id=trace_id,
            )
        )

    def _fail(self, item: Admitted, exc: BaseException, *,
              expired: bool = False) -> None:
        """Record a failure and resolve the future with ``exc``."""
        self._metrics.record_request(
            time.monotonic() - item.submitted, failed=True
        )
        self._close_span(
            item, "error", error=f"{type(exc).__name__}: {exc}",
            expired=expired,
        )
        if self.pool is not None:
            self.pool.resolved(item, expired=expired)
        item.future.set_exception(exc)

    def _expire(self, item: Admitted) -> None:
        """Fail a request whose deadline passed, wherever it was."""
        self._fail(
            item,
            DeadlineExceededError(
                f"request {item.request_id} expired: missed its "
                f"{item.deadline - item.submitted:.3f}s deadline"
            ),
            expired=True,
        )

    def _close_span(self, item: Admitted, status: str, error: str = "",
                    **attributes) -> None:
        """Record the request's ``serving.request`` span, if traced."""
        if item.trace is not None:
            self._record_span(
                "serving.request",
                *item.trace,
                item.parent_span,
                item.start_unix,
                wall_seconds=time.monotonic() - item.submitted,
                status=status,
                error=error,
                request_id=item.request_id,
                dataset_key=item.dataset_key,
                objective=item.objective.canonical,
                redeliveries=item.redeliveries,
                **attributes,
            )

    def _record_span(self, name: str, trace_id: int, span_id: int,
                     parent_id: int | None, start_unix: float, *,
                     wall_seconds: float = 0.0, status: str = "ok",
                     error: str = "", **attributes) -> None:
        """Hand a span built outside any ``with`` block to the tracer."""
        tracer = self._trace_sink()
        if tracer is not None:
            tracer.absorb([Span(
                name, trace_id, span_id, parent_id, start_unix,
                wall_seconds=wall_seconds, status=status, error=error,
                pid=os.getpid(), attributes=attributes,
            )])
