"""Supervised worker shards: the multi-process lane of the estimation service.

:class:`ShardPool` is what
:meth:`EstimationService.for_pipeline(..., shards=N)
<repro.serving.service.EstimationService.for_pipeline>` attaches: N
worker-process shards (see :mod:`repro.serving.shard`), each holding a
warm model replica, behind a supervisor that keeps them answering
through crashes, hangs and overload:

* **Backpressure** — admission goes through a bounded queue; a full
  queue sheds the request immediately with
  :class:`~repro.errors.ServiceOverloadedError` carrying a
  ``retry_after`` hint instead of building an unbounded backlog.
* **Deadlines** — an expired request is found wherever it happens to
  be (queued, piped, in flight) and handed to the service's expiry
  path, never served late into a future nobody is waiting on.
* **Supervision** — a monitor thread health-checks each shard through
  heartbeat/busy timestamps and process liveness, kills wedged shards,
  and respawns dead ones on the
  :class:`~repro.robustness.faults.RetryPolicy` backoff schedule while
  their in-flight requests are redistributed to surviving shards.
* **Circuit breaking** — each shard sits behind a
  :class:`CircuitBreaker` (closed → open → half-open); a tripped
  shard's traffic routes to the remaining shards or, when none can
  take it, to the service's own in-process worker pool, whose guarded
  engine ends in FRaZ — degraded answers instead of failures.

The pool owns no futures, metrics or request spans: every request it
takes ends in the service's single completion path. Resolution is
single-owner by construction: whichever thread pops a request from the
live table is the one that hands it to the service; late replies from
killed shards find the table empty and are counted, not raised.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import queue
import tempfile
import threading
import time
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, replace
from multiprocessing import connection, resource_tracker

import numpy as np

from repro import obs
from repro.core.persistence import save_pipeline
from repro.obs.trace import SpanContext, _new_id
from repro.errors import (
    InvalidConfiguration,
    ReproError,
    ServiceOverloadedError,
    ShardFailedError,
)
from repro.parallel.shm import SharedNDArray
from repro.robustness.faults import RetryPolicy, backoff_schedule
from repro.runtime.config import RuntimeConfig
from repro.serving.metrics import MetricsRecorder
from repro.serving.service import MAX_DATASETS, Admitted
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
            return self._passable()

    def allow(self) -> bool:
        """Admit one request; consumes the half-open probe slot."""
        with self._lock:
            if not self._passable():
                return False
            self._probing = self._opened_at is not None
            return True

    def _passable(self) -> bool:
        """Closed, or half-open with no probe in flight (lock held)."""
        return self._opened_at is None or not self._probing and (
            time.monotonic() - self._opened_at >= self.reset_seconds
        )

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
            if self._passable():
                return 0.0
            return max(
                0.0,
                self.reset_seconds - (time.monotonic() - self._opened_at),
            )



@dataclass(frozen=True)
class SupervisorStats:
    """Counters describing what supervision did (snapshot, immutable).

    Completions and failures are the service's
    :class:`~repro.serving.metrics.MetricsSnapshot` counts.

    Attributes:
        admitted: requests accepted past the admission queue.
        shed: submissions rejected by backpressure.
        expired: admitted requests failed on their deadline.
        redelivered: in-flight requests redistributed off dead shards.
        fallbacks: requests handed to the in-process lane because no
            shard could take them.
        respawns: shard processes restarted after death.
        kills: shards the supervisor killed (hangs, lost heartbeats).
        late_replies: replies from shards for requests already resolved
            elsewhere (deadline, redelivery) — counted, never raised.
    """

    admitted: int = 0
    shed: int = 0
    expired: int = 0
    redelivered: int = 0
    fallbacks: int = 0
    respawns: int = 0
    kills: int = 0
    late_replies: int = 0


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
        self.last_death_reason = ""


class ShardPool:
    """Supervised worker shards behind one estimation service.

    Args:
        service: the owning
            :class:`~repro.serving.service.EstimationService`; the pool
            resolves every request through its completion path and
            hands what no shard can take to its worker pool.
        pipeline: a fitted :class:`~repro.core.pipeline.FXRZ`; each
            shard loads its own warm replica from ``model_path``.
        shards: worker-process count.
        guarded / guard_options: the engine each shard builds (see
            :func:`~repro.serving.service.build_engine`).
        queue_depth: admission-queue bound; beyond it submissions shed
            with :class:`~repro.errors.ServiceOverloadedError`.
        model_path: serialized pipeline the shards load. ``None`` saves
            ``pipeline`` to a temporary file owned (and deleted) by the
            pool.
        max_inflight_per_shard: dispatch cap per shard, so queueing
            happens in the supervisor (where it can shed and expire)
            rather than invisibly inside shard pipes.
        max_redeliveries: how many times one request may be
            redistributed off dead shards before it goes to the
            in-process lane instead (the poison-request escape hatch).
        heartbeat_timeout: an *idle* shard whose beat is older than
            this is presumed wedged and killed.
        hang_timeout: a *busy* shard serving one request for longer
            than this is killed (its requests redistribute).
        faults: optional :class:`~repro.robustness.faults.FaultSpec`
            with serving faults, injected inside the shards (chaos
            harness).
        fallback: whether the in-process lane backstops requests no
            shard can take; ``False`` fails them with
            :class:`~repro.errors.ShardFailedError` instead.
        poll_interval: monitor/dispatcher tick.

    The service context's :class:`~repro.runtime.RuntimeConfig`
    (``RuntimeConfig()`` without one) supplies the respawn backoff
    (``retry_attempts``/``retry_base_delay``; ``retry_attempts`` bounds
    *consecutive failed spawns* — a shard that keeps dying before
    reaching readiness is marked failed), the breaker thresholds
    (``breaker_failures``/``breaker_reset``) and the embedded scrape
    endpoint (``scrape_port`` >= 0 starts ``/metrics``, ``/healthz``,
    ``/slo`` and ``/spans``; 0 = ephemeral, read :attr:`scrape_url`).
    """

    def __init__(
        self,
        service,
        pipeline,
        *,
        shards: int,
        guarded: bool,
        guard_options: dict | None = None,
        queue_depth: int = 64,
        model_path=None,
        max_inflight_per_shard: int = 4,
        max_redeliveries: int = 2,
        heartbeat_timeout: float = 5.0,
        hang_timeout: float = 10.0,
        faults=None,
        fallback: bool = True,
        poll_interval: float = 0.02,
    ) -> None:
        if queue_depth < 1:
            raise InvalidConfiguration("queue_depth must be >= 1")
        if max_inflight_per_shard < 1:
            raise InvalidConfiguration("max_inflight_per_shard must be >= 1")
        if max_redeliveries < 0:
            raise InvalidConfiguration("max_redeliveries must be >= 0")
        self._service = service
        self.ctx = ctx = service.ctx
        config = ctx.config if ctx is not None else RuntimeConfig()
        self.n_shards = int(shards)
        self.queue_depth = int(queue_depth)
        self.max_inflight_per_shard = int(max_inflight_per_shard)
        self.max_redeliveries = int(max_redeliveries)
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.hang_timeout = float(hang_timeout)
        self.poll_interval = float(poll_interval)
        self.fallback = bool(fallback)
        self.retry_policy = (
            ctx.retry_policy if ctx is not None else RetryPolicy()
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
            "trace": service._trace_sink() is not None
            and service.trace_sample > 0.0,
        }

        self._mp = multiprocessing.get_context("fork")
        self._stats = SupervisorStats()
        self._ewma_latency = 0.05
        self._lock = threading.RLock()
        self._cond = threading.Condition(self._lock)
        self._live: dict[int, Admitted] = {}
        self._admission: queue.Queue[Admitted] = queue.Queue(
            maxsize=queue_depth
        )
        self._redeliver: deque[Admitted] = deque()
        # Shared segments by dataset key, least recently admitted first;
        # ``_pins`` counts the unresolved requests referencing each one.
        self._segments: OrderedDict[str, SharedNDArray] = OrderedDict()
        self._pins: Counter[str] = Counter()
        self._stop = threading.Event()
        self._backoff_rng = np.random.default_rng(config.seed)
        self.slots = [
            _ShardSlot(
                i,
                CircuitBreaker(config.breaker_failures, config.breaker_reset),
            )
            for i in range(self.n_shards)
        ]
        self._ts_buffer = self._obs_server = None
        registry = service._registry
        if registry is None and config.scrape_port >= 0:
            # A scrape endpoint needs something behind /metrics: when
            # neither the context nor the ambient install provides a
            # registry, the service gets one of its own.
            registry = service._registry = obs.MetricsRegistry()
            service._metrics = MetricsRecorder(registry=registry)
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
        if config.scrape_port >= 0:
            self._start_telemetry(config, registry)

    # -- admission ---------------------------------------------------------------

    def admit(self, item: Admitted):
        """Take custody of an admitted request (the service holds its
        lock, so admissions are serialized and close cannot race them).

        Raises:
            ServiceOverloadedError: the admission queue is full.
        """
        item.descriptor = self._pin(item.dataset_key, item.request.data)
        with self._lock:
            self._live[item.seq] = item
        try:
            self._admission.put_nowait(item)
        except queue.Full:
            with self._lock:
                self._live.pop(item.seq, None)
                ready = sum(slot.state == READY for slot in self.slots)
                # Time for the ready shards to work off a full queue.
                wait = self.queue_depth * self._ewma_latency / max(1, ready)
            self._unpin(item.dataset_key)
            self._bump(shed=1)
            raise ServiceOverloadedError(
                f"admission queue full ({self.queue_depth} deep); "
                "request shed",
                retry_after=max(0.05, wait),
            ) from None
        self._bump(admitted=1)
        if item.trace is not None:
            self._trace_event(
                "supervisor.admit",
                trace=item.trace,
                request_id=item.request_id,
                queue_depth=self._admission.qsize(),
            )
        return item.future

    def resolved(self, item: Admitted, *, expired: bool = False) -> None:
        """The service resolved ``item``: unpin its segment."""
        with self._lock:
            self._ewma_latency = 0.8 * self._ewma_latency + 0.2 * (
                time.monotonic() - item.submitted
            )
        if expired:
            self._bump(expired=1)
        self._unpin(item.dataset_key)

    def _pin(self, key: str, data):
        """The descriptor of ``key``'s shared segment, pinned once more."""
        with self._lock:
            handle = self._segments.get(key)
            if handle is not None:
                self._segments.move_to_end(key)
                self._pins[key] += 1
                return handle.descriptor
        # Outside the lock: admissions are serialized, so no other
        # thread creates this key; resolutions only evict unpinned ones.
        # from_array makes its own contiguous copy.
        handle = SharedNDArray.from_array(data)
        if self.ctx is not None:
            self.ctx.adopt_shm(handle)
        with self._lock:
            self._segments[key] = handle
            self._pins[key] += 1
        return handle.descriptor

    def _unpin(self, key: str) -> None:
        """Drop one pin; unlink the least recently admitted unpinned
        segments beyond :data:`MAX_DATASETS`."""
        with self._lock:
            left = self._pins.pop(key, 0) - 1
            if left > 0:
                self._pins[key] = left
            excess = len(self._segments) - MAX_DATASETS
            victims = [k for k in self._segments if k not in self._pins]
            evicted = [self._segments.pop(k) for k in victims[:max(excess, 0)]]
        self._unlink(evicted)

    def _unlink(self, handles) -> None:
        for handle in handles:
            if self.ctx is not None:
                self.ctx.release_shm(handle)
            handle.close()
            handle.unlink()

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
            for event, count in dataclasses.asdict(stats).items():
                if event != "late_replies":
                    events.set(float(count), event=event)
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

    def _start_telemetry(self, config: RuntimeConfig, registry) -> None:
        """Stand up the ring sampler, SLO tracker and scrape endpoint."""
        window = float(config.slo_window)
        self._ts_buffer = obs.TimeSeriesBuffer(
            registry,
            # one frame per second across the SLO window, plus slack so
            # the window never outruns the ring
            capacity=max(int(window) + 60, 120),
            interval=1.0,
        )
        slo_tracker = obs.SLOTracker(
            self._ts_buffer,
            obs.default_serving_slos(
                availability=float(config.slo_availability),
                p99_seconds=float(config.slo_p99_ms) / 1000.0,
                calibration_error=float(config.slo_calibration_error),
                window=window,
            ),
        )
        self._ts_buffer.sample()  # a baseline frame so deltas exist early
        self._ts_buffer.start()
        self._obs_server = obs.ObservabilityServer(
            registry,
            tracer=self._service._trace_sink(),
            slo_tracker=slo_tracker,
            health=self._health,
            port=int(config.scrape_port),
        )

    @property
    def scrape_url(self) -> str | None:
        """Base URL of the embedded scrape endpoint (None when off)."""
        return self._obs_server.url if self._obs_server is not None else None

    def _health(self) -> dict:
        """The ``/healthz`` body: shard states (with breakers), stats."""
        states = self.shard_states()
        closed = self._service._closed
        return {
            "healthy": not closed
            and any(state["state"] == READY for state in states),
            "closed": closed,
            "shards": states,
            "stats": dataclasses.asdict(self.stats),
        }

    # -- tracing ---------------------------------------------------------------

    def _trace_event(
        self, name: str, trace: SpanContext | None = None, **attributes
    ) -> None:
        """Record a zero-duration event span (child of ``trace`` or root)."""
        trace_id, parent_id = trace if trace is not None else (_new_id(), None)
        self._service._record_span(
            name, trace_id, _new_id(), parent_id, time.time(), **attributes
        )

    def kill_shard(self, index: int) -> None:
        """Kill one shard process outright (chaos/bench hook): its
        in-flight requests redistribute and it respawns on the backoff
        schedule, exactly as after a hang kill."""
        self._kill(self.slots[index], "kill_shard")

    def stop(self, drain: bool, timeout: float | None) -> list[Admitted]:
        """Stop threads and shards, unlink every shared segment and the
        pool's own model file; returns the requests still held (for the
        service to fail).

        ``drain=True`` first waits (up to ``timeout``) for every
        admitted request to resolve.
        """
        if drain:  # every resolution pops _live and notifies
            with self._cond:
                self._cond.wait_for(lambda: not self._live, timeout)
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
                    process.kill()
                    process.join(timeout=0.5)
            self._close_conns(slot)
        with self._lock:
            # Every admitted request sits in the live table until it is
            # resolved, so this is everything the pool still owes.
            leftovers = list(self._live.values())
            self._live.clear()
            self._redeliver.clear()
            segments = list(self._segments.values())
            self._segments.clear()
            self._pins.clear()
        self._unlink(segments)
        if self._owns_model:
            try:
                os.unlink(self.model_path)
            except OSError:
                pass
        return leftovers

    # -- internals (resolution is single-owner: pop from _live first) ----------

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

    # -- dispatcher ------------------------------------------------------------

    def _next_item(self) -> Admitted | None:
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

    def _place(self, item: Admitted) -> None:
        """Drive one request to a shard, the in-process lane, or expiry."""
        while not self._stop.is_set():
            with self._lock:
                if item.seq not in self._live:
                    return  # already resolved (deadline, close)
            if item.deadline is not None and time.monotonic() > item.deadline:
                if self._pop_live(item.seq) is not None:
                    self._service._expire(item)
                return
            action = self._try_dispatch(item)
            if action == "dispatched":
                return
            if action == "fallback":
                self._degrade(item)
                return
            with self._cond:  # wait: capacity frees or topology changes
                self._cond.wait(timeout=self.poll_interval)

    def _try_dispatch(self, item: Admitted) -> str:
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

    # -- the in-process lane ----------------------------------------------------

    def _degrade(self, item: Admitted) -> None:
        """Hand a request no shard can take to the service's workers."""
        if self._pop_live(item.seq) is None:
            return  # already resolved (deadline, close)
        if not self.fallback:
            self._service._fail(
                item,
                ShardFailedError(
                    f"no shard available for {item.request_id} and the "
                    "fallback lane is disabled",
                    shard=item.shard,
                    redeliveries=item.redeliveries,
                ),
            )
            return
        self._bump(fallbacks=1)
        self._service._run_local(item)

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
                    # The shard died (the monitor owns the respawn; its
                    # conn stays readable-at-EOF until then, so pause),
                    # or the monitor closed the conn mid-recv (TypeError,
                    # which must not kill this thread).
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
            tracer = self._service._trace_sink()
            if tracer is not None:
                tracer.absorb(spans)
        if kind in ("result", "error"):
            # An engine error is request-level: the shard answered, so
            # its breaker records a success either way.
            self._breaker_success(slot)
        inf = self._pop_live(seq)
        if inf is None:
            self._bump(late_replies=1)
        elif kind == "result":
            self._service._complete(
                inf, message["estimate"], message["cache_hit"], source="shard"
            )
        elif kind == "error":
            exc = message.get("exception")
            if exc is None:
                exc = ReproError(message.get("error", "shard engine error"))
            self._service._fail(inf, exc)
        else:  # expired in the pipe
            self._service._expire(inf)

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
                self._service._expire(inf)

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
            self._bump(redelivered=len(orphans))
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
            self._degrade(inf)

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
            args=(slot.index, generation, self._shard_spec, req_read,
                  res_write, beat, busy),
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
