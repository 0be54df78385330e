"""Fault-tolerant sharded estimation serving.

:class:`ShardedEstimationService` runs N worker-process shards (see
:mod:`repro.serving.shard`), each holding a warm model replica, behind
a supervisor that keeps the service answering through crashes, hangs
and overload:

* **Backpressure** — admission goes through a bounded queue; a full
  queue sheds the request immediately with
  :class:`~repro.errors.ServiceOverloadedError` carrying a
  ``retry_after`` hint instead of building an unbounded backlog.
* **Deadlines** — every request may carry one; an expired request is
  failed with :class:`~repro.errors.DeadlineExceededError` wherever it
  happens to be (queued, piped, in flight), never served late into a
  future nobody is waiting on.
* **Supervision** — a monitor thread health-checks each shard through
  heartbeat/busy timestamps and process liveness, kills wedged shards,
  and respawns dead ones on the
  :class:`~repro.robustness.faults.RetryPolicy` backoff schedule while
  their in-flight requests are redistributed to surviving shards.
* **Circuit breaking** — each shard sits behind a
  :class:`CircuitBreaker` (closed → open → half-open); a tripped
  shard's traffic routes to the remaining shards or, when none can
  take it, down the PR-1 degradation ladder (model → curve → FRaZ) run
  in-process — degraded answers instead of failures.

The invariant the chaos tests pin down: **every admitted request's
future resolves** — with a result, a typed error, or a deadline — no
matter which shards die when. Resolution is single-owner by
construction: whichever thread pops a request from the live table is
the one that resolves its future; late replies from killed shards find
the table empty and are counted, not raised.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import multiprocessing
import os
import queue
import tempfile
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from multiprocessing import connection, resource_tracker

import numpy as np

from repro import obs
from repro.core.persistence import save_pipeline
from repro.obs.trace import Span, SpanContext, _new_id
from repro.errors import (
    DeadlineExceededError,
    InvalidConfiguration,
    NotFittedError,
    ReproError,
    ServiceClosedError,
    ServiceOverloadedError,
    ShardFailedError,
)
from repro.parallel.shm import SharedNDArray
from repro.robustness.faults import RetryPolicy, backoff_schedule
from repro.serving.cache import FeatureCache
from repro.serving.frontend import Admitted, Frontend, answer, build_engine
from repro.serving.metrics import MetricsSnapshot
from repro.serving.shard import shard_main

#: Shard lifecycle states.
STARTING = "starting"
READY = "ready"
DEAD = "dead"      # awaiting respawn
FAILED = "failed"  # respawn budget exhausted; permanently out
STOPPED = "stopped"

#: Extra seconds past a busy request's own deadline before the shard
#: holding it is declared hung.
HANG_GRACE = 0.5

#: Datasets kept resident at once: shared-memory segments and the
#: fallback ladder's analysis cache.
MAX_DATASETS = 64


class CircuitBreaker:
    """Per-shard failure gate: closed → open → half-open → closed.

    Consecutive *infrastructure* failures (crashes, hang kills — never
    request-level engine errors) trip the breaker open; after
    ``reset_seconds`` one probe request is allowed through
    (half-open). The probe's success closes the breaker, its failure
    reopens it for another full reset window.

    Thread-safe; all transitions happen under an internal lock.
    """

    def __init__(
        self, failure_threshold: int = 5, reset_seconds: float = 30.0
    ) -> None:
        if failure_threshold < 1:
            raise InvalidConfiguration("failure_threshold must be >= 1")
        if reset_seconds < 0:
            raise InvalidConfiguration("reset_seconds must be >= 0")
        self.failure_threshold = int(failure_threshold)
        self.reset_seconds = float(reset_seconds)
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"``."""
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if time.monotonic() - self._opened_at >= self.reset_seconds:
                return "half-open"
            return "open"

    def would_allow(self) -> bool:
        """Whether a request *could* pass now, without consuming the probe."""
        with self._lock:
            if self._opened_at is None:
                return True
            if self._probing:
                return False  # probe already in flight
            return time.monotonic() - self._opened_at >= self.reset_seconds

    def allow(self) -> bool:
        """Admit one request; consumes the half-open probe slot."""
        with self._lock:
            if self._opened_at is None:
                return True
            if self._probing:
                return False
            if time.monotonic() - self._opened_at >= self.reset_seconds:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if self._probing or self._failures >= self.failure_threshold:
                self._opened_at = time.monotonic()
                self._probing = False

    def retry_after(self) -> float:
        """Seconds until the next probe may pass (0 when passable now)."""
        with self._lock:
            if self._opened_at is None or self._probing is False and (
                time.monotonic() - self._opened_at >= self.reset_seconds
            ):
                return 0.0
            return max(
                0.0,
                self.reset_seconds - (time.monotonic() - self._opened_at),
            )


@dataclass(frozen=True)
class SupervisorStats:
    """Counters describing what supervision did (snapshot, immutable).

    Attributes:
        admitted: requests accepted past the admission queue.
        completed: futures resolved with a result (any tier).
        failed: futures resolved with an engine/fallback error.
        shed: submissions rejected by backpressure.
        expired: requests failed on their deadline.
        redelivered: in-flight requests redistributed off dead shards.
        fallbacks: requests answered by the in-process degradation
            ladder because no shard could take them.
        respawns: shard processes restarted after death.
        kills: shards the supervisor killed (hangs, lost heartbeats).
        late_replies: replies from shards for requests already resolved
            elsewhere (deadline, redelivery) — counted, never raised.
    """

    admitted: int = 0
    completed: int = 0
    failed: int = 0
    shed: int = 0
    expired: int = 0
    redelivered: int = 0
    fallbacks: int = 0
    respawns: int = 0
    kills: int = 0
    late_replies: int = 0


@dataclass
class _Inflight(Admitted):
    seq: int = 0
    descriptor: object = None
    shard: int = -1
    redeliveries: int = 0
    # Distributed-tracing state: the span the request span parents
    # under (``parent_span``; None for a root trace) and the wall-clock
    # admit instant the request span starts at. ``generation`` is the
    # incarnation of the last shard this request was dispatched to.
    parent_span: int | None = None
    start_unix: float = 0.0
    generation: int = -1


class _ShardSlot:
    """Mutable supervisor-side record of one shard index."""

    def __init__(self, index: int, breaker: CircuitBreaker) -> None:
        self.index = index
        self.breaker = breaker
        self.generation = 0
        self.state = DEAD
        self.process = None
        self.req_conn = None  # parent write end
        self.res_conn = None  # parent read end
        self.beat = None
        self.busy = None
        self.inflight: set[int] = set()
        self.strikes = 0       # consecutive deaths without reaching READY
        self.respawn_at = 0.0
        self.started_at = 0.0
        self.last_death_reason = ""


class ShardedEstimationService(Frontend):
    """Supervised multi-process estimation service.

    Args:
        pipeline: a fitted :class:`~repro.core.pipeline.FXRZ`; the
            parent keeps it for the degradation-ladder fallback while
            each shard loads its own warm replica from ``model_path``.
        shards: worker-process count.
        queue_depth: admission-queue bound; beyond it submissions shed
            with :class:`~repro.errors.ServiceOverloadedError`.
        model_path: serialized pipeline the shards load. ``None`` saves
            ``pipeline`` to a temporary file owned (and deleted) by the
            service.
        guarded: shards serve through the guarded engine (degradation
            ladder inside the shard) instead of the plain one.
        guard_options: forwarded to :meth:`FXRZ.guarded` in each shard
            and in the parent fallback engine.
        default_deadline: deadline applied to requests without their
            own ``deadline_seconds``; ``None`` resolves from the
            context's :attr:`RuntimeConfig.deadline` (0 = none).
        max_inflight_per_shard: dispatch cap per shard, so queueing
            happens in the supervisor (where it can shed and expire)
            rather than invisibly inside shard pipes.
        max_redeliveries: how many times one request may be
            redistributed off dead shards before it is answered by the
            fallback ladder instead (the poison-request escape hatch).
        heartbeat_timeout: an *idle* shard whose beat is older than
            this is presumed wedged and killed.
        hang_timeout: a *busy* shard serving one request for longer
            than this is killed (its requests redistribute).
        retry_policy: backoff schedule for shard respawns; defaults to
            the context's policy. ``max_attempts`` bounds *consecutive
            failed spawns* — a shard that keeps dying before reaching
            readiness is marked failed and taken out of rotation.
        faults: optional :class:`~repro.robustness.faults.FaultSpec`
            with serving faults, injected inside the shards (chaos
            harness).
        fallback: whether the in-process degradation ladder backstops
            requests no shard can take; ``False`` fails them with
            :class:`~repro.errors.ShardFailedError` instead.
        breaker_options: ``failure_threshold``/``reset_seconds`` for
            the per-shard breakers; defaults to the context's
            :attr:`RuntimeContext.breaker_options`.
        poll_interval: monitor/dispatcher tick.
        trace_sample: fraction of requests traced end to end when a
            tracer is available, in [0, 1]; defaults to the context's
            :attr:`RuntimeConfig.trace_sample` (1.0 without a context).
            Sampling is deterministic in the admission sequence number,
            so reruns trace the same requests.
        scrape_port: when >= 0, start the embedded observability
            endpoint (``/metrics``, ``/healthz``, ``/slo``, ``/spans``)
            on this port (0 = ephemeral; read :attr:`scrape_url`).
            Defaults to the context's :attr:`RuntimeConfig.scrape_port`
            (-1 = off without a context).
        ctx: a :class:`~repro.runtime.RuntimeContext`; supplies config
            defaults, adopts the shared-memory segments, and its spec
            seeds each shard's child context.
        outcome_log: a :class:`~repro.lifecycle.OutcomeLog` the
            supervisor records completions to, **parent-side only** —
            shard estimates travel back over the reply pipe and are
            recorded here, never by the forked workers themselves, so
            the JSONL log has exactly one writer (the shard child
            contexts drop ``outcome_log`` in
            :meth:`~repro.runtime.context.RuntimeContext.spec`).
            ``None`` defaults to the context's
            :attr:`RuntimeContext.lifecycle`.
    """

    _Item = _Inflight

    def __init__(
        self,
        pipeline,
        *,
        shards: int = 2,
        queue_depth: int = 64,
        model_path=None,
        guarded: bool = True,
        guard_options: dict | None = None,
        default_deadline: float | None = None,
        max_inflight_per_shard: int = 4,
        max_redeliveries: int = 2,
        heartbeat_timeout: float = 5.0,
        hang_timeout: float = 10.0,
        retry_policy: RetryPolicy | None = None,
        faults=None,
        fallback: bool = True,
        breaker_options: dict | None = None,
        poll_interval: float = 0.02,
        trace_sample: float | None = None,
        scrape_port: int | None = None,
        ctx=None,
        outcome_log=None,
    ) -> None:
        if not pipeline.is_fitted:
            raise NotFittedError("sharded serving needs a fitted pipeline")
        if shards < 1:
            raise InvalidConfiguration("shards must be >= 1")
        if queue_depth < 1:
            raise InvalidConfiguration("queue_depth must be >= 1")
        if max_inflight_per_shard < 1:
            raise InvalidConfiguration("max_inflight_per_shard must be >= 1")
        if max_redeliveries < 0:
            raise InvalidConfiguration("max_redeliveries must be >= 0")
        self.pipeline = pipeline
        self.n_shards = int(shards)
        self.queue_depth = int(queue_depth)
        self.max_inflight_per_shard = int(max_inflight_per_shard)
        self.max_redeliveries = int(max_redeliveries)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.hang_timeout = float(hang_timeout)
        self.poll_interval = float(poll_interval)
        self.faults = faults
        if retry_policy is None:
            retry_policy = (
                ctx.retry_policy if ctx is not None else RetryPolicy()
            )
        self.retry_policy = retry_policy
        if breaker_options is None:
            breaker_options = (
                dict(ctx.breaker_options)
                if ctx is not None
                else {"failure_threshold": 5, "reset_seconds": 30.0}
            )
        self._breaker_options = breaker_options
        if trace_sample is None:
            trace_sample = (
                float(ctx.config.trace_sample) if ctx is not None else 1.0
            )
        if not 0.0 <= trace_sample <= 1.0:
            raise InvalidConfiguration("trace_sample must be in [0, 1]")
        self.trace_sample = float(trace_sample)
        if scrape_port is None:
            scrape_port = (
                int(ctx.config.scrape_port) if ctx is not None else -1
            )
        if not -1 <= int(scrape_port) <= 65535:
            raise InvalidConfiguration(
                "scrape_port must be -1 (off), 0 (ephemeral) or a TCP port"
            )
        registry = ctx.registry if ctx is not None else obs.get_registry()
        if registry is None and int(scrape_port) >= 0:
            # A scrape endpoint needs something behind /metrics: when
            # neither the context nor the ambient install provides a
            # registry, the service owns one.
            registry = obs.MetricsRegistry()
        self._registry = registry
        self._setup(
            ctx=ctx,
            outcome_log=outcome_log,
            default_deadline=default_deadline,
            stride=getattr(pipeline.config, "sampling_stride", 1),
            compressor=pipeline.compressor.name,
            registry=registry,
        )

        self._owns_model = model_path is None
        if model_path is None:
            fd, model_path = tempfile.mkstemp(
                prefix="fxrz-shard-", suffix=".fxrz"
            )
            os.close(fd)
            save_pipeline(pipeline, model_path)
        self.model_path = str(model_path)

        guard_opts = dict(guard_options or {})
        guard_opts.pop("ctx", None)
        self._shard_spec = {
            "runtime": ctx.spec() if ctx is not None else None,
            "model_path": self.model_path,
            "guarded": bool(guarded),
            "guard_options": guard_opts,
            "faults": faults,
            # Shards run a local tracer only when the parent has a sink
            # to absorb their spans into (and tracing is not sampled
            # fully off).
            "trace": self._trace_sink() is not None
            and self.trace_sample > 0.0,
        }
        # The fallback rung runs in the parent, so it always terminates
        # in FRaZ — it is the last line of defense, not a mirror of the
        # shard's (possibly weaker) ladder.
        self._fallback_engine = (
            build_engine(pipeline, True, guard_opts, ctx, fallback="fraz")
            if fallback
            else None
        )
        self._fallback_cache = FeatureCache(max_entries=MAX_DATASETS)
        self._fallback_pool = ThreadPoolExecutor(
            max_workers=2, thread_name_prefix="fxrz-fallback"
        )

        self._mp = multiprocessing.get_context("fork")
        self._stats = SupervisorStats()
        self._ewma_latency = 0.05
        self._seq = itertools.count(1)
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._live: dict[int, _Inflight] = {}
        self._admission: queue.Queue[_Inflight] = queue.Queue(
            maxsize=queue_depth
        )
        self._redeliver: deque[_Inflight] = deque()
        self._segments: dict[str, SharedNDArray] = {}
        self._stop = threading.Event()
        self._backoff_rng = np.random.default_rng(
            ctx.config.seed if ctx is not None else 0
        )
        self.slots = [
            _ShardSlot(i, CircuitBreaker(**breaker_options))
            for i in range(self.n_shards)
        ]
        self._bind_gauges(registry)
        for slot in self.slots:
            self._spawn(slot)
        self._threads = [
            threading.Thread(
                target=target, daemon=True, name=f"fxrz-supervisor-{name}"
            )
            for name, target in (
                ("dispatch", self._dispatcher),
                ("collect", self._collector),
                ("monitor", self._monitor),
            )
        ]
        for thread in self._threads:
            thread.start()
        self._ts_buffer = None
        self._slo_tracker = None
        self._obs_server = None
        if int(scrape_port) >= 0:
            self._start_telemetry(int(scrape_port), registry)

    # -- construction helpers --------------------------------------------------

    @classmethod
    def for_pipeline(cls, pipeline, **options) -> "ShardedEstimationService":
        """A sharded service over a fitted pipeline (temp model file)."""
        if "ctx" not in options:
            options["ctx"] = getattr(pipeline, "ctx", None)
        return cls(pipeline, **options)

    # -- client API ------------------------------------------------------------

    def _enqueue(self, inf: _Inflight):
        """Take custody of an admitted request.

        Raises:
            ServiceOverloadedError: the admission queue is full.
            ServiceClosedError: the service was closed.
        """
        inf.seq = next(self._seq)
        inf.descriptor = self._segment_for(
            inf.dataset_key, inf.request.data
        ).descriptor
        if self._trace_sink() is not None and self._sampled(inf.seq):
            # Join the caller's trace (explicit on the request, or the
            # ambient context) or start a new root one; the request
            # span itself is closed at resolution time.
            parent = inf.request.trace or obs.current_context()
            inf.trace = SpanContext(
                parent.trace_id if parent is not None else _new_id(),
                _new_id(),
            )
            inf.parent_span = parent.span_id if parent is not None else None
            inf.start_unix = time.time()
        with self._lock:
            # Re-checked here atomically with the insertion: a close
            # racing this submit either sees the entry (and rejects it
            # in its leftover sweep) or we see the flag and refuse.
            self._check_open()
            self._live[inf.seq] = inf
        try:
            self._admission.put_nowait(inf)
        except queue.Full:
            with self._lock:
                self._live.pop(inf.seq, None)
            self._bump(shed=1)
            raise ServiceOverloadedError(
                f"admission queue full ({self.queue_depth} deep); "
                "request shed",
                retry_after=self._retry_after_hint(),
            ) from None
        self._bump(admitted=1)
        if inf.trace is not None:
            self._trace_event(
                "supervisor.admit",
                trace=inf.trace,
                request_id=inf.request_id,
                queue_depth=self._admission.qsize(),
            )
        return inf.future

    @property
    def metrics(self) -> MetricsSnapshot:
        """Latency/tier counters, same shape as :class:`EstimationService`."""
        return self._metrics.snapshot()

    @property
    def stats(self) -> SupervisorStats:
        """A frozen snapshot of the supervision counters."""
        with self._lock:
            return self._stats

    def shard_states(self) -> list[dict]:
        """Per-shard view: state, generation, breaker, inflight depth."""
        with self._lock:
            return [
                {
                    "shard": slot.index,
                    "state": slot.state,
                    "generation": slot.generation,
                    "breaker": slot.breaker.state,
                    "inflight": len(slot.inflight),
                    "pid": slot.process.pid if slot.process else None,
                }
                for slot in self.slots
            ]

    _BREAKER_CODES = {"closed": 0.0, "half-open": 1.0, "open": 2.0}

    def _bind_gauges(self, registry) -> None:
        """Export supervision state as pull-model ``repro_serving_*`` gauges."""
        if registry is None:
            return
        events = registry.gauge(
            "repro_serving_supervisor_events",
            "supervision counters, by event",
        )
        late = registry.gauge(
            "repro_serving_late_replies",
            "shard replies for requests already resolved elsewhere",
        )
        breaker = registry.gauge(
            "repro_serving_breaker_state",
            "per-shard breaker state (0 closed, 1 half-open, 2 open)",
        )
        ready = registry.gauge(
            "repro_serving_shard_ready", "per-shard readiness (1 ready)"
        )

        def collect() -> None:
            stats = self.stats
            for event in (
                "admitted", "completed", "failed", "shed", "expired",
                "redelivered", "fallbacks", "respawns", "kills",
            ):
                events.set(float(getattr(stats, event)), event=event)
            late.set(float(stats.late_replies))
            for state in self.shard_states():
                shard = str(state["shard"])
                breaker.set(
                    self._BREAKER_CODES.get(state["breaker"], -1.0),
                    shard=shard,
                )
                ready.set(
                    1.0 if state["state"] == READY else 0.0, shard=shard
                )

        registry.register_collector(collect)

    # -- telemetry plane -------------------------------------------------------

    def _start_telemetry(self, scrape_port: int, registry) -> None:
        """Stand up the ring sampler, SLO tracker and scrape endpoint."""
        config = self.ctx.config if self.ctx is not None else None
        window = float(getattr(config, "slo_window", 300.0))
        self._ts_buffer = obs.TimeSeriesBuffer(
            registry,
            # one frame per second across the SLO window, plus slack so
            # the window never outruns the ring
            capacity=max(int(window) + 60, 120),
            interval=1.0,
        )
        self._slo_tracker = obs.SLOTracker(
            self._ts_buffer,
            obs.default_serving_slos(
                availability=float(
                    getattr(config, "slo_availability", 0.999)
                ),
                p99_seconds=float(getattr(config, "slo_p99_ms", 250.0))
                / 1000.0,
                calibration_error=float(
                    getattr(config, "slo_calibration_error", 0.25)
                ),
                window=window,
            ),
        )
        self._ts_buffer.sample()  # a baseline frame so deltas exist early
        self._ts_buffer.start()
        self._obs_server = obs.ObservabilityServer(
            registry,
            tracer=self._trace_sink(),
            slo_tracker=self._slo_tracker,
            health=self._health,
            port=scrape_port,
        )

    @property
    def scrape_url(self) -> str | None:
        """Base URL of the embedded scrape endpoint (None when off)."""
        return self._obs_server.url if self._obs_server is not None else None

    def _health(self) -> dict:
        """The ``/healthz`` body: shard states, breakers, stats."""
        states = self.shard_states()
        with self._lock:
            closed = self._closed
        return {
            "healthy": not closed
            and any(state["state"] == READY for state in states),
            "closed": closed,
            "shards": states,
            "breakers": {
                str(state["shard"]): state["breaker"] for state in states
            },
            "stats": dataclasses.asdict(self.stats),
        }

    # -- tracing ---------------------------------------------------------------

    def _trace_sink(self):
        """The tracer supervisor-side spans land in (None = untraced)."""
        if self.ctx is not None:
            tracer = self.ctx.tracer
            if tracer is not None:
                return tracer
        return obs.get_tracer()

    def _sampled(self, seq: int) -> bool:
        """Deterministic per-request sampling decision (keyed on seq)."""
        if self.trace_sample >= 1.0:
            return True
        if self.trace_sample <= 0.0:
            return False
        return ((seq * 0x9E3779B1) & 0xFFFF) / 65536.0 < self.trace_sample

    def _trace_event(
        self, name: str, trace: SpanContext | None = None, **attributes
    ) -> None:
        """Record a zero-duration event span (child of ``trace`` or root)."""
        tracer = self._trace_sink()
        if tracer is None:
            return
        if trace is not None:
            trace_id, parent_id = trace.trace_id, trace.span_id
        else:
            trace_id, parent_id = _new_id(), None
        tracer.absorb(
            [
                Span(
                    name=name,
                    trace_id=trace_id,
                    span_id=_new_id(),
                    parent_id=parent_id,
                    start_unix=time.time(),
                    pid=os.getpid(),
                    attributes=attributes,
                )
            ]
        )

    def _finish_request_span(
        self, inf: _Inflight, status: str, error: str = "", **attributes
    ) -> None:
        """Close the per-request root span (built by hand: the request
        crosses threads and processes, so no ``with`` block can hold it)."""
        if inf.trace is None:
            return
        tracer = self._trace_sink()
        if tracer is None:
            return
        tracer.absorb(
            [
                Span(
                    name="serving.sharded.request",
                    trace_id=inf.trace.trace_id,
                    span_id=inf.trace.span_id,
                    parent_id=inf.parent_span,
                    start_unix=inf.start_unix,
                    wall_seconds=time.monotonic() - inf.submitted,
                    status=status,
                    error=error,
                    pid=os.getpid(),
                    attributes={
                        "request_id": inf.request_id,
                        "dataset_key": inf.dataset_key,
                        "redeliveries": inf.redeliveries,
                        "objective": inf.objective.canonical,
                        **attributes,
                    },
                )
            ]
        )

    def kill_shard(self, index: int) -> None:
        """Kill one shard process outright (chaos/bench hook).

        The monitor detects the death, redistributes the shard's
        in-flight requests and respawns it on the backoff schedule —
        exactly as for an organic crash.
        """
        with self._lock:
            slot = self.slots[index]
            process = slot.process
            self._stats = replace(self._stats, kills=self._stats.kills + 1)
        self._trace_event(
            "supervisor.kill", shard=index, reason="kill_shard"
        )
        if process is not None and process.is_alive():
            process.kill()

    def close(self, drain: bool = True, timeout: float | None = 30.0) -> None:
        """Stop everything; **no future is left unresolved** (idempotent).

        ``drain=True`` waits (up to ``timeout``) for in-flight and
        queued requests to finish; anything still live after that — or
        everything queued, when ``drain=False`` — is failed with
        :class:`~repro.errors.ServiceClosedError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        give_up = (
            None if timeout is None else time.monotonic() + float(timeout)
        )
        if drain:
            while True:
                with self._lock:
                    if not self._live:
                        break
                if give_up is not None and time.monotonic() > give_up:
                    break
                time.sleep(self.poll_interval)
        self._stop.set()
        with self._cond:
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=5.0)
        if self._obs_server is not None:
            self._obs_server.close()
        if self._ts_buffer is not None:
            self._ts_buffer.stop()
        for slot in self.slots:
            with self._lock:
                process, req_conn = slot.process, slot.req_conn
                slot.state = STOPPED
            if req_conn is not None:
                try:
                    req_conn.send({"kind": "stop"})
                except (BrokenPipeError, OSError):
                    pass
            if process is not None:
                process.join(timeout=1.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=0.5)
                if process.is_alive():  # pragma: no cover - stubborn child
                    process.kill()
                    process.join(timeout=0.5)
            self._close_conns(slot)
        with self._lock:
            leftovers = list(self._live.values())
            self._live.clear()
            self._redeliver.clear()
        while True:  # anything still sitting in the admission queue
            try:
                leftovers.append(self._admission.get_nowait())
            except queue.Empty:
                break
        seen = set()
        for inf in leftovers:
            if inf.seq in seen:
                continue
            seen.add(inf.seq)
            if not inf.future.done():
                inf.future.set_exception(
                    ServiceClosedError(
                        f"service closed before serving {inf.request_id}"
                    )
                )
        self._fallback_pool.shutdown(wait=drain, cancel_futures=not drain)
        with self._lock:
            segments, self._segments = self._segments, {}
        for handle in segments.values():
            if self.ctx is not None:
                self.ctx.release_shm(handle)
            handle.close()
            handle.unlink()
        if self._owns_model:
            try:
                os.unlink(self.model_path)
            except OSError:
                pass

    # -- admission internals ---------------------------------------------------

    def _segment_for(self, key: str, data) -> SharedNDArray:
        """The shared segment carrying ``key``'s dataset (LRU-bounded)."""
        with self._lock:
            handle = self._segments.get(key)
            if handle is not None:
                return handle
        # from_array already makes its own contiguous copy; an extra
        # ascontiguousarray here would copy non-contiguous data twice.
        handle = SharedNDArray.from_array(data)
        if self.ctx is not None:
            self.ctx.adopt_shm(handle)
        evicted = []
        with self._lock:
            raced = self._segments.get(key)
            if raced is not None:
                evicted.append(handle)
                handle = raced
            else:
                self._segments[key] = handle
                while len(self._segments) > MAX_DATASETS:
                    # dict preserves insertion order; the oldest key is
                    # the least recently *created*, which is close
                    # enough for an overflow valve.
                    old_key = next(iter(self._segments))
                    if old_key == key:
                        break
                    evicted.append(self._segments.pop(old_key))
        for old in evicted:
            if self.ctx is not None:
                self.ctx.release_shm(old)
            old.close()
            old.unlink()
        return handle

    def _retry_after_hint(self) -> float:
        with self._lock:
            ready = sum(1 for slot in self.slots if slot.state == READY)
            ewma = self._ewma_latency
        return max(0.05, self.queue_depth * ewma / max(1, ready))

    # -- resolution (single-owner: pop from _live first) -----------------------

    def _pop_live(self, seq: int):
        with self._lock:
            inf = self._live.pop(seq, None)
            if inf is not None and 0 <= inf.shard < len(self.slots):
                self.slots[inf.shard].inflight.discard(seq)
            self._cond.notify_all()
        return inf

    def _bump(self, **deltas) -> None:
        with self._lock:
            updates = {
                name: getattr(self._stats, name) + delta
                for name, delta in deltas.items()
            }
            self._stats = replace(self._stats, **updates)

    def _breaker_success(self, slot: _ShardSlot) -> None:
        """Record a request-level success, tracing a breaker close."""
        was = slot.breaker.state
        slot.breaker.record_success()
        if was != "closed":
            self._trace_event(
                "supervisor.breaker_close", shard=slot.index, from_state=was
            )

    def _complete(
        self, inf: _Inflight, estimate, cache_hit: bool, source: str = "shard"
    ) -> None:
        served = self._served(inf, estimate, cache_hit, source=source)
        with self._lock:
            self._ewma_latency = (
                0.8 * self._ewma_latency + 0.2 * served.latency_seconds
            )
        self._bump(completed=1)
        # Close the request span *before* resolving the future, so a
        # caller that inspects the tracer right after .result() sees a
        # complete tree.
        self._finish_request_span(
            inf,
            "ok",
            source=source,
            cache_hit=bool(cache_hit),
            tier=estimate.tier,
            shard=inf.shard,
        )
        inf.future.set_result(served)

    def _fail(self, inf: _Inflight, exc: Exception, *, expired=False) -> None:
        self._bump(expired=1) if expired else self._bump(failed=1)
        self._finish_request_span(
            inf,
            "error",
            error=f"{type(exc).__name__}: {exc}",
            expired=bool(expired),
        )
        self._failed(inf, exc)

    def _expire(self, inf: _Inflight) -> None:
        self._fail(
            inf,
            DeadlineExceededError(
                f"request {inf.request_id} missed its "
                f"{inf.deadline - inf.submitted:.3f}s deadline"
            ),
            expired=True,
        )

    # -- dispatcher ------------------------------------------------------------

    def _next_item(self) -> _Inflight | None:
        with self._lock:
            if self._redeliver:
                return self._redeliver.popleft()
        try:
            return self._admission.get(timeout=self.poll_interval)
        except queue.Empty:
            return None

    def _dispatcher(self) -> None:
        while True:
            item = self._next_item()
            if item is None:
                if self._stop.is_set():
                    return
                continue
            self._place(item)

    def _place(self, item: _Inflight) -> None:
        """Drive one request to a shard, the fallback ladder, or expiry."""
        while not self._stop.is_set():
            with self._lock:
                if item.seq not in self._live:
                    return  # already resolved (deadline, close)
            if item.deadline is not None and time.monotonic() > item.deadline:
                if self._pop_live(item.seq) is not None:
                    self._expire(item)
                return
            action = self._try_dispatch(item)
            if action == "dispatched":
                return
            if action == "fallback":
                self._send_to_fallback(item)
                return
            with self._cond:  # wait: capacity frees or topology changes
                self._cond.wait(timeout=self.poll_interval)

    def _try_dispatch(self, item: _Inflight) -> str:
        """``"dispatched"`` | ``"wait"`` | ``"fallback"``."""
        with self._lock:
            passable = [
                slot
                for slot in self.slots
                if slot.state == READY and slot.breaker.would_allow()
            ]
            open_slots = [
                slot
                for slot in passable
                if len(slot.inflight) < self.max_inflight_per_shard
            ]
            if not open_slots:
                if passable:
                    return "wait"  # healthy shards exist, all at capacity
                if any(
                    slot.state in (STARTING, DEAD) for slot in self.slots
                ):
                    return "wait"  # a shard is (re)spawning
                # Everything ready is breaker-open (or permanently
                # failed): tripped traffic degrades, it does not queue.
                return "fallback"
            slot = min(open_slots, key=lambda s: len(s.inflight))
            if not slot.breaker.allow():  # pragma: no cover - raced probe
                return "wait"
            slot.inflight.add(item.seq)
            item.shard = slot.index
            item.generation = slot.generation
            conn = slot.req_conn
        message = {
            "kind": "request",
            "seq": item.seq,
            "request_id": item.request_id,
            "descriptor": item.descriptor,
            "dataset_key": item.dataset_key,
            # The frozen Objective itself, not its canonical string:
            # the ``%g`` wire form would round quality targets.
            "objective": item.objective,
            "deadline": item.deadline or 0.0,
        }
        if item.trace is not None:
            # The propagated context: the shard's spans re-parent under
            # the request span on the other side of the fork boundary.
            message["trace"] = (item.trace.trace_id, item.trace.span_id)
        try:
            conn.send(message)
        except (OSError, TypeError):
            # The shard died under us; the monitor will respawn it. A
            # conn the monitor closes mid-send raises TypeError (its
            # handle is already None), not OSError.
            with self._lock:
                slot.inflight.discard(item.seq)
                item.shard = -1
            return "wait"
        if item.trace is not None:
            self._trace_event(
                "supervisor.dispatch",
                trace=item.trace,
                shard=item.shard,
                generation=item.generation,
                redeliveries=item.redeliveries,
            )
        return "dispatched"

    # -- fallback ladder -------------------------------------------------------

    def _send_to_fallback(self, item: _Inflight) -> None:
        if self._fallback_engine is None:
            inf = self._pop_live(item.seq)
            if inf is not None:
                self._fail(
                    inf,
                    ShardFailedError(
                        f"no shard available for {item.request_id} and the "
                        "fallback ladder is disabled",
                        shard=item.shard,
                        redeliveries=item.redeliveries,
                    ),
                )
            return
        self._fallback_pool.submit(self._run_fallback, item)

    def _run_fallback(self, item: _Inflight) -> None:
        inf = self._pop_live(item.seq)
        if inf is None:
            return
        if inf.deadline is not None and time.monotonic() > inf.deadline:
            self._expire(inf)
            return
        tracer = self._trace_sink()
        span = (
            tracer.span(
                "serving.sharded.fallback",
                parent=inf.trace,
                shard=inf.shard,
                generation=inf.generation,
                redeliveries=inf.redeliveries,
                request_id=inf.request_id,
            )
            if tracer is not None and inf.trace is not None
            else contextlib.nullcontext(obs.NULL_SPAN)
        )
        try:
            with span as sp:
                estimate, hit = answer(
                    self._fallback_engine,
                    self._fallback_cache,
                    inf.dataset_key,
                    inf.request.data,
                    inf.objective,
                )
                sp.set_attributes(
                    cache_hit=hit,
                    tier=estimate.tier,
                    objective=inf.objective.canonical,
                )
        except Exception as exc:  # noqa: BLE001 — future carries it
            self._fail(inf, exc)
            return
        self._bump(fallbacks=1)
        self._complete(inf, estimate, hit, source="fallback")

    # -- collector -------------------------------------------------------------

    def _collector(self) -> None:
        while not self._stop.is_set():
            with self._lock:
                conns = {
                    slot.res_conn: slot
                    for slot in self.slots
                    if slot.res_conn is not None
                    and slot.state in (STARTING, READY)
                }
            if not conns:
                time.sleep(self.poll_interval)
                continue
            try:
                readable = connection.wait(list(conns), timeout=0.1)
            except OSError:  # a conn was closed under us mid-wait
                continue
            for conn in readable:
                slot = conns[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError, TypeError):
                    # Shard end closed: the process died (or is dying);
                    # the monitor's liveness check owns the respawn.
                    # The dead conn stays readable-at-EOF until then,
                    # so pause instead of spinning on it. TypeError is
                    # a conn the monitor closed mid-recv (its handle is
                    # already None); letting it escape would kill this
                    # thread and strand every later reply.
                    time.sleep(self.poll_interval)
                    continue
                self._handle_message(slot, message)

    def _handle_message(self, slot: _ShardSlot, message: dict) -> None:
        kind = message.get("kind")
        if kind == "ready":
            with self._lock:
                if message.get("generation") == slot.generation:
                    slot.state = READY
                    slot.strikes = 0
                self._cond.notify_all()
            return
        if kind == "init_error":
            with self._lock:
                stale = message.get("generation") != slot.generation
            if not stale:
                self._mark_dead(
                    slot, f"failed to initialize: {message.get('error')}"
                )
            return
        seq = message.get("seq")
        spans = message.get("spans")
        if spans:
            # Absorb the shard-local spans shipped with the reply, even
            # for late replies — the work happened; the trace shows it.
            tracer = self._trace_sink()
            if tracer is not None:
                tracer.absorb(spans)
        if kind == "result":
            self._breaker_success(slot)
            inf = self._pop_live(seq)
            if inf is None:
                self._bump(late_replies=1)
                return
            self._complete(inf, message["estimate"], message["cache_hit"])
        elif kind == "error":
            # Request-level engine error: the shard is healthy (it
            # answered), so the breaker records success, not failure.
            self._breaker_success(slot)
            inf = self._pop_live(seq)
            if inf is None:
                self._bump(late_replies=1)
                return
            exc = message.get("exception")
            if exc is None:
                exc = ReproError(message.get("error", "shard engine error"))
            self._fail(inf, exc)
        elif kind == "expired":
            inf = self._pop_live(seq)
            if inf is None:
                self._bump(late_replies=1)
                return
            self._expire(inf)

    # -- monitor ---------------------------------------------------------------

    def _monitor(self) -> None:
        while not self._stop.is_set():
            self._expire_deadlines()
            self._check_health()
            self._respawn_due()
            time.sleep(self.poll_interval)

    def _expire_deadlines(self) -> None:
        now = time.monotonic()
        with self._lock:
            due = [
                seq
                for seq, inf in self._live.items()
                if inf.deadline is not None and now > inf.deadline
            ]
        for seq in due:
            inf = self._pop_live(seq)
            if inf is not None:
                self._expire(inf)

    def _check_health(self) -> None:
        now = time.monotonic()
        for slot in self.slots:
            with self._lock:
                state = slot.state
                process = slot.process
            if state == STARTING:
                if process is not None and not process.is_alive():
                    self._mark_dead(slot, "died during startup")
            elif state == READY:
                if process is None or not process.is_alive():
                    self._mark_dead(slot, "process exited")
                    continue
                busy_since = slot.busy.value
                if busy_since:
                    allowed = self.hang_timeout
                    deadline = self._earliest_deadline(slot)
                    if deadline is not None:
                        allowed = min(
                            allowed, (deadline - busy_since) + HANG_GRACE
                        )
                    if now - busy_since > max(allowed, HANG_GRACE):
                        self._kill(slot, "hung mid-request")
                elif now - slot.beat.value > self.heartbeat_timeout:
                    self._kill(slot, "heartbeat lost")

    def _earliest_deadline(self, slot: _ShardSlot) -> float | None:
        with self._lock:
            deadlines = [
                self._live[seq].deadline
                for seq in slot.inflight
                if seq in self._live
                and self._live[seq].deadline is not None
            ]
        return min(deadlines) if deadlines else None

    def _kill(self, slot: _ShardSlot, reason: str) -> None:
        self._bump(kills=1)
        self._trace_event("supervisor.kill", shard=slot.index, reason=reason)
        process = slot.process
        if process is not None and process.is_alive():
            process.kill()
            process.join(timeout=1.0)
        self._mark_dead(slot, reason)

    def _mark_dead(self, slot: _ShardSlot, reason: str) -> None:
        """Record a shard death: trip breaker, redistribute, schedule."""
        with self._lock:
            if slot.state in (DEAD, FAILED, STOPPED):
                return
            slot.state = DEAD
            breaker_was = slot.breaker.state
            slot.breaker.record_failure()
            breaker_now = slot.breaker.state
            slot.strikes += 1
            orphans = [
                self._live[seq]
                for seq in slot.inflight
                if seq in self._live
            ]
            slot.inflight.clear()
            delay = float(
                backoff_schedule(
                    self.retry_policy, slot.strikes, rng=self._backoff_rng
                )[-1]
            )
            slot.respawn_at = time.monotonic() + delay
            slot.last_death_reason = reason
            to_fallback = []
            for inf in orphans:
                inf.shard = -1
                inf.redeliveries += 1
                if inf.redeliveries > self.max_redeliveries:
                    to_fallback.append(inf)
                else:
                    self._redeliver.append(inf)
            self._stats = replace(
                self._stats,
                redelivered=self._stats.redelivered + len(orphans),
            )
            self._cond.notify_all()
        if breaker_now == "open" and breaker_was != "open":
            self._trace_event(
                "supervisor.breaker_open", shard=slot.index, reason=reason
            )
        for inf in orphans:
            if inf.trace is not None:
                self._trace_event(
                    "supervisor.redeliver",
                    trace=inf.trace,
                    shard=slot.index,
                    generation=inf.generation,
                    reason=reason,
                    redeliveries=inf.redeliveries,
                )
        process = slot.process
        if process is not None and not process.is_alive():
            process.join(timeout=0.5)
        self._close_conns(slot)
        for inf in to_fallback:
            self._send_to_fallback(inf)

    def _respawn_due(self) -> None:
        now = time.monotonic()
        for slot in self.slots:
            with self._lock:
                # Respawning continues while a close() drains: in-flight
                # requests may need a live shard to complete.
                due = slot.state == DEAD and now >= slot.respawn_at
                if due and slot.strikes >= self.retry_policy.max_attempts:
                    # Only *consecutive pre-ready* failures reach here:
                    # a shard that served requests resets its strikes
                    # on every successful spawn.
                    slot.state = FAILED
                    due = False
                    self._cond.notify_all()
            if due:
                self._bump(respawns=1)
                self._trace_event(
                    "supervisor.respawn",
                    shard=slot.index,
                    strikes=slot.strikes,
                    reason=slot.last_death_reason,
                )
                self._spawn(slot)

    # -- spawning --------------------------------------------------------------

    def _close_conns(self, slot: _ShardSlot) -> None:
        with self._lock:
            conns = (slot.req_conn, slot.res_conn)
            slot.req_conn = slot.res_conn = None
        for conn in conns:
            if conn is not None:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass

    def _spawn(self, slot: _ShardSlot) -> None:
        """Start the next incarnation of one shard (fresh pipes/stream)."""
        # The shard must inherit the parent's resource tracker: a child
        # forked before the tracker exists starts its *own* on first
        # shm attach, and that orphan tracker reports (and re-unlinks)
        # the parent's segments as leaks at shutdown.
        resource_tracker.ensure_running()
        req_read, req_write = self._mp.Pipe(duplex=False)
        res_read, res_write = self._mp.Pipe(duplex=False)
        beat = self._mp.Value("d", time.monotonic(), lock=False)
        busy = self._mp.Value("d", 0.0, lock=False)
        with self._lock:
            slot.generation += 1
            generation = slot.generation
        process = self._mp.Process(
            target=shard_main,
            args=(
                slot.index,
                generation,
                self._shard_spec,
                req_read,
                res_write,
                beat,
                busy,
            ),
            daemon=True,
            name=f"fxrz-shard-{slot.index}g{generation}",
        )
        process.start()
        # The parent must not hold the child's pipe ends: EOF detection
        # on the reply pipe only works when the child's write end lives
        # in exactly one process.
        req_read.close()
        res_write.close()
        with self._lock:
            slot.process = process
            slot.req_conn = req_write
            slot.res_conn = res_read
            slot.beat = beat
            slot.busy = busy
            slot.state = STARTING
            slot.started_at = time.monotonic()
