"""The runtime session object owning every cross-cutting resource.

A :class:`RuntimeContext` is the single seam through which parallelism,
memoization, tracing, metrics, seeding and robustness policy flow into
the library. Resources are built lazily from the resolved
:class:`~repro.runtime.config.RuntimeConfig` (or injected pre-built),
and the context-manager lifecycle guarantees deterministic teardown:
on exit the executor shuts down (unlinking any stray shared-memory
segments), the trace exports to JSONL, the metrics flush to Prometheus
text, and any process-wide observability install is restored.

Process workers reconstruct a *child* context from the driver's pickled
:meth:`RuntimeContext.spec` (see :mod:`repro.runtime.worker`); inside a
worker :func:`current_context` returns that child, so worker code can
derive seeds and read policy exactly as the driver would.
"""

from __future__ import annotations

import dataclasses
import threading

from repro import obs
from repro.errors import InvalidConfiguration
from repro.runtime.config import RuntimeConfig


class RuntimeContext:
    """One session owning the five cross-cutting resources.

    Args:
        config: a pre-resolved :class:`RuntimeConfig`. Mutually
            exclusive with ``profile``/``env``/field overrides.
        tracer: a pre-built :class:`repro.obs.Tracer` to adopt instead
            of building one from ``config.trace``.
        registry: a pre-built :class:`repro.obs.MetricsRegistry` to
            adopt instead of building one from ``config.metrics``.
        executor: a pre-built :class:`repro.parallel.ParallelExecutor`
            to borrow; borrowed executors are not shut down on close.
        memo: a pre-built :class:`repro.parallel.CompressionMemoCache`
            to share instead of lazily creating one.
        outcomes: a pre-built :class:`repro.lifecycle.OutcomeLog` to
            borrow instead of building one from ``config.outcome_log``;
            borrowed logs are not closed on close.
        profile: TOML profile path forwarded to
            :meth:`RuntimeConfig.resolve`.
        env: environment mapping forwarded to
            :meth:`RuntimeConfig.resolve` (tests inject a dict).
        **overrides: explicit :class:`RuntimeConfig` field values
            (``jobs=4``, ``seed=7``, ...); ``None`` means unset.
    """

    def __init__(
        self,
        config: RuntimeConfig | None = None,
        *,
        tracer=None,
        registry=None,
        executor=None,
        memo=None,
        outcomes=None,
        profile=None,
        env=None,
        **overrides,
    ) -> None:
        if config is not None:
            if overrides or profile is not None or env is not None:
                raise InvalidConfiguration(
                    "pass either a pre-resolved config or "
                    "profile/env/overrides, not both"
                )
            self.config = config
        else:
            self.config = RuntimeConfig.resolve(profile=profile, env=env, **overrides)
        self._tracer = tracer
        self._registry = registry
        self._executor = executor
        self._owns_executor = executor is None
        self._executor_built = executor is not None
        self._memo = memo
        self._outcomes = outcomes
        self._owns_outcomes = outcomes is None
        self._outcomes_built = outcomes is not None
        self._entered = 0
        self._closed = False
        self._previous_obs = None
        self._shm_lock = threading.Lock()
        self._shm_handles: list = []
        self.exported_spans = 0
        self.teardown_notes: list[str] = []

    # ------------------------------------------------------------------
    # resources
    # ------------------------------------------------------------------

    @property
    def tracer(self):
        """The session tracer (lazy when ``config.trace`` is set)."""
        if self._tracer is None and self.config.trace:
            self._tracer = obs.Tracer()
        return self._tracer

    @property
    def registry(self):
        """The session metrics registry (lazy when ``config.metrics`` is set)."""
        if self._registry is None and self.config.metrics:
            self._registry = obs.MetricsRegistry()
        return self._registry

    @property
    def executor(self):
        """The session executor, or ``None`` when the config is serial."""
        self._ensure_open("executor")
        if not self._executor_built:
            self._executor_built = True
            if self.config.jobs not in (None, 1):
                from repro.parallel.executor import ParallelExecutor

                executor = ParallelExecutor(
                    n_jobs=self.config.jobs, backend=self.config.backend
                )
                if executor.backend != "serial":
                    executor._ctx = self
                    self._executor = executor
        return self._executor

    @property
    def memo(self):
        """The shared compression memo cache (lazily created once)."""
        self._ensure_open("memo")
        if self._memo is None:
            from repro.parallel.memo import CompressionMemoCache

            self._memo = CompressionMemoCache()
            registry = self.registry
            if registry is not None:
                self._memo.register_metrics(registry)
        return self._memo

    @property
    def lifecycle(self):
        """The session outcome log, or ``None`` when logging is off.

        Built lazily from ``config.outcome_log`` (bound to the session
        metrics registry when one exists). Serving layers that accept
        an ``outcome_log`` argument default to this property, so one
        ``--outcome-log`` flag turns on recording everywhere in the
        session.
        """
        self._ensure_open("lifecycle")
        if not self._outcomes_built:
            self._outcomes_built = True
            if self.config.outcome_log:
                from repro.lifecycle.outcomes import OutcomeLog

                self._outcomes = OutcomeLog(
                    self.config.outcome_log, registry=self.registry
                )
        return self._outcomes

    @property
    def retry_policy(self):
        """The robustness retry policy built from the config knobs."""
        from repro.robustness.faults import RetryPolicy

        return RetryPolicy(
            max_attempts=self.config.retry_attempts,
            base_delay=self.config.retry_base_delay,
        )

    # ------------------------------------------------------------------
    # shared-memory custody
    # ------------------------------------------------------------------

    def adopt_shm(self, handle) -> None:
        """Register an owned :class:`~repro.parallel.SharedNDArray`.

        Adopted segments are unlinked during :meth:`close`, so a
        segment whose owning map or shard died mid-flight is still
        reclaimed at session teardown instead of leaking in
        ``/dev/shm``. A segment adopted after close is unlinked
        immediately.
        """
        with self._shm_lock:
            if not self._closed:
                self._shm_handles.append(handle)
                return
        handle.close()
        handle.unlink()

    def release_shm(self, handle) -> None:
        """Drop custody of ``handle`` (its owner unlinked it itself)."""
        with self._shm_lock:
            try:
                self._shm_handles.remove(handle)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def _ensure_open(self, what: str) -> None:
        if self._closed:
            raise InvalidConfiguration(
                f"cannot use {what} of a closed RuntimeContext"
            )

    def __enter__(self) -> "RuntimeContext":
        self._ensure_open("context")
        if self._entered == 0 and (
            self.tracer is not None or self.registry is not None
        ):
            self._previous_obs = (obs.get_tracer(), obs.get_registry())
            obs.install(tracer=self.tracer, registry=self.registry)
        self._entered += 1
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Tear down deterministically; safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._owns_executor and self._executor is not None:
                self._executor.shutdown()
            with self._shm_lock:
                leftovers, self._shm_handles = self._shm_handles, []
            for handle in leftovers:
                try:
                    handle.close()
                    handle.unlink()
                except OSError:  # pragma: no cover - already gone
                    pass
            if leftovers:
                self.teardown_notes.append(
                    f"unlinked {len(leftovers)} leftover shared-memory "
                    "segment(s)"
                )
            if self._tracer is not None and self.config.trace:
                count = self._tracer.export_jsonl(self.config.trace)
                self.exported_spans = count
                self.teardown_notes.append(
                    f"wrote {count} span(s) to {self.config.trace}"
                )
            if self._owns_outcomes and self._outcomes is not None:
                written = self._outcomes.records_written
                self._outcomes.close()
                self.teardown_notes.append(
                    f"closed outcome log {self.config.outcome_log} "
                    f"({written} record(s) this session)"
                )
            if self._registry is not None and self.config.metrics:
                with open(self.config.metrics, "w", encoding="utf-8") as handle:
                    handle.write(self._registry.render_prometheus())
                self.teardown_notes.append(
                    f"wrote metrics to {self.config.metrics}"
                )
        finally:
            if self._previous_obs is not None:
                obs.install(*self._previous_obs)
                self._previous_obs = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_args(cls, args, env=None) -> "RuntimeContext":
        """Build a context from argparse ``args`` (see ``add_runtime_args``).

        Parser defaults are ``None`` so env/profile values from the
        lower layers still apply when a flag is not given on the
        command line.
        """

        def pick(name):
            value = getattr(args, name, None)
            return value if value != "" else None

        return cls(
            profile=pick("runtime_profile"),
            env=env,
            jobs=pick("jobs"),
            trace=pick("trace"),
            metrics=pick("metrics"),
            seed=pick("seed"),
            fallback=pick("fallback"),
            min_confidence=pick("min_confidence"),
            outcome_log=pick("outcome_log"),
        )

    # ------------------------------------------------------------------
    # worker propagation
    # ------------------------------------------------------------------

    def spec(self) -> dict:
        """A picklable spec workers rebuild a child context from.

        Every resolved field travels except the child overrides below.
        The child is forced serial (workers never nest pools) and
        carries no export paths — worker spans ship back to the driver
        through the executor instead of writing files. ``outcome_log``
        is dropped too: the log is single-writer, so forked shard
        workers must never append to the parent's file (the supervisor
        records shard outcomes parent-side instead). Children never run
        a scrape server of their own; the parent's endpoint is the
        single operator surface.
        """
        spec = dataclasses.asdict(self.config)
        del spec["provenance"]
        spec.update(
            jobs=1,
            backend="serial",
            trace="",
            metrics="",
            outcome_log="",
            scrape_port=-1,
        )
        return spec

    @classmethod
    def from_spec(cls, spec: dict) -> "RuntimeContext":
        """Reconstruct the child context a worker runs under."""
        return cls(RuntimeConfig(**spec))


_WORKER_CONTEXT: RuntimeContext | None = None


def current_context() -> RuntimeContext | None:
    """The child context of the current process worker, if any."""
    return _WORKER_CONTEXT


def _set_worker_context(ctx: RuntimeContext | None) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = ctx
