"""The serving request lifecycle, written once for every front-end.

Both front-ends — the in-process
:class:`~repro.serving.service.EstimationService` and the supervised
:class:`~repro.serving.supervisor.ShardedEstimationService` — and the
shard worker answer requests through this module:

* :func:`build_engine` — the plain or guarded engine a pipeline serves
  through;
* :func:`answer` — the cached per-dataset analysis plus the one
  ``engine.estimate`` call every request ends in;
* :class:`Frontend` — admission (objective, deadline, ``req-N`` id,
  dataset key), the client calls, and completion (metrics record,
  outcome-log append, :class:`ServedEstimate`).
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, replace

import numpy as np

from repro import obs
from repro.core.inference import Estimate, InferenceEngine
from repro.core.objective import Objective, RatioTarget, as_objective
from repro.errors import (
    DeadlineExceededError,
    InvalidConfiguration,
    ServiceClosedError,
)
from repro.serving.cache import FeatureCache, dataset_fingerprint
from repro.serving.metrics import MetricsRecorder


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


def resolved_objective(request: EstimateRequest) -> Objective:
    """The request's :class:`Objective`, from whichever field carried it."""
    if request.objective is not None:
        if request.target_ratio:
            raise InvalidConfiguration(
                "request carries both target_ratio and objective"
            )
        return as_objective(request.objective)
    return RatioTarget(float(request.target_ratio))


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
    """A front-end's record of one admitted request.

    ``submitted`` and ``deadline`` are on the :func:`time.monotonic`
    clock; ``trace`` holds the request span's own coordinates once the
    request is traced.
    """

    request: EstimateRequest
    future: Future
    request_id: str
    objective: Objective
    dataset_key: str
    submitted: float
    deadline: float | None
    trace: "obs.SpanContext | None" = None


def build_engine(pipeline, guarded: bool, guard_options=None, ctx=None,
                 *, fallback: str | None = None):
    """The engine a fitted pipeline serves through.

    ``guarded=False`` gives the plain engine (answers identical to
    ``pipeline.estimate_config``); ``guarded=True`` builds the
    degradation ladder with ``guard_options`` forwarded to
    :meth:`FXRZ.guarded` (a ``ctx`` there wins over ``ctx``), and
    ``fallback`` pins its last rung.
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

    Both engines route a :class:`RatioTarget` objective down their ratio
    path, so every objective kind takes this one call.
    """
    analysis, hit = cache.get_or_compute(key, lambda: engine.analyze(data))
    return engine.estimate(data, analysis=analysis, objective=objective), hit


class Frontend:
    """Admission, client calls and completion shared by both services.

    A subclass calls :meth:`_setup` from its constructor and implements
    ``_enqueue(item) -> Future``, which takes custody of an admitted
    request; ``_wake(n)`` tells its workers ``n`` requests arrived.
    """

    _Item = Admitted

    def _setup(self, *, ctx, outcome_log, default_deadline, stride: int,
               compressor: str, registry=None) -> None:
        self.ctx = ctx
        if outcome_log is None and ctx is not None:
            outcome_log = ctx.lifecycle
        self.outcome_log = outcome_log
        if default_deadline is None and ctx is not None:
            configured = float(getattr(ctx.config, "deadline", 0.0))
            default_deadline = configured if configured > 0 else None
        if default_deadline is not None and default_deadline <= 0:
            raise InvalidConfiguration("default_deadline must be positive")
        self.default_deadline = default_deadline
        self._stride = stride
        self._compressor = compressor
        self._metrics = MetricsRecorder(registry=registry)
        self._ids = itertools.count(1)
        self._closed = False

    # -- client API ------------------------------------------------------------

    def submit(self, request: EstimateRequest) -> Future:
        """Queue one request; the future resolves to a ServedEstimate."""
        return self.submit_many([request])[0]

    def submit_many(self, requests: list[EstimateRequest]) -> list[Future]:
        """Admit a whole batch before waking the workers, so they see
        full same-dataset groups rather than a trickle."""
        futures = [self._enqueue(self._admit(request)) for request in requests]
        self._wake(len(futures))
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
        if objective is not None:
            request = EstimateRequest(data=data, objective=objective)
        else:
            request = EstimateRequest(
                data=data, target_ratio=float(target_ratio)
            )
        return self.submit(request).result()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- admission -------------------------------------------------------------

    def _wake(self, n: int) -> None:
        """Hook: ``n`` requests were just enqueued."""

    def _check_open(self) -> None:
        """Refuse new work once closed (subclasses re-check under their
        lock, atomically with taking custody)."""
        if self._closed:
            raise ServiceClosedError(
                "estimation service is closed; no new requests accepted"
            )

    def _admit(self, request: EstimateRequest) -> Admitted:
        """Validate ``request`` and stamp its id, key and deadline.

        Raises before anything is queued: a closed service, an invalid
        objective and a non-positive deadline all fail the submit call.
        """
        self._check_open()
        objective = resolved_objective(request)
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
        submitted = time.monotonic()
        return self._Item(
            request=request,
            future=Future(),
            request_id=request.request_id or f"req-{next(self._ids)}",
            objective=objective,
            dataset_key=key,
            submitted=submitted,
            deadline=None if relative is None else submitted + relative,
        )

    # -- completion ------------------------------------------------------------

    def _served(self, item: Admitted, estimate: Estimate, cache_hit: bool,
                *, source: str, batch_size: int = 1) -> ServedEstimate:
        """Record a success and build its result (the caller resolves)."""
        latency = time.monotonic() - item.submitted
        trace_id = item.trace.trace_id if item.trace is not None else 0
        if trace_id:
            estimate = replace(estimate, trace_id=trace_id)
        self._metrics.record_request(
            latency,
            tier=estimate.tier,
            analysis_seconds=estimate.analysis_seconds,
        )
        if self.outcome_log is not None:
            # Parent-side, single-writer: a shard's estimate has already
            # crossed the reply pipe, so this append never interleaves
            # with a forked worker's writes.
            try:
                self.outcome_log.record_estimate(
                    estimate,
                    dataset_key=item.dataset_key,
                    compressor=self._compressor,
                    source=source,
                )
            except OSError:
                pass  # a full disk must not fail the request
        return ServedEstimate(
            request_id=item.request_id,
            dataset_key=item.dataset_key,
            estimate=estimate,
            latency_seconds=latency,
            cache_hit=cache_hit,
            batch_size=batch_size,
            trace_id=trace_id,
        )

    def _failed(self, item: Admitted, exc: BaseException) -> None:
        """Record a failure and resolve the future with ``exc``."""
        self._metrics.record_request(
            time.monotonic() - item.submitted, failed=True
        )
        item.future.set_exception(exc)
