"""Unified observability: tracing spans, metrics registry, profiling.

The subsystem is opt-in and process-global: nothing records until a
:class:`Tracer` and/or :class:`MetricsRegistry` is :func:`install`\\ ed.
Instrumented call sites throughout the library go through the
module-level accessors here —

- ``with obs.span("fraz.probe", eb=eb) as sp: ...`` — a hierarchical
  span (returns the shared no-op :data:`NULL_SPAN` when no tracer is
  installed, so the disabled cost is one function call).
- ``obs.get_registry()`` — the installed :class:`MetricsRegistry` or
  ``None``; call sites guard with ``if registry is not None`` and
  batch their updates where possible.
- ``with obs.profiled("training.fit") as sp: ...`` — a span annotated
  with before/after RSS and allocation samples.
- ``with obs.session() as (tracer, registry): ...`` — scoped
  install/uninstall for tests and library embedding.

The telemetry plane sits on top: :class:`SLOTracker` holds the two
serving objectives (availability and p99 latency) over a rolling
window of the ``repro_serving_*`` request series and exports their
burn as ``repro_slo_*`` gauges, and :class:`ObservabilityServer`
serves ``/metrics``, ``/healthz``, ``/slo`` and ``/spans``.

See ``docs/OBSERVABILITY.md`` for the span model, the metric naming
convention and the scrape endpoint.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.http import ObservabilityServer
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bind_cache_gauges,
)
from repro.obs.profile import Profiler
from repro.obs.report import (
    cost_tree,
    load_trace,
    render_cost_tree,
    tree_shape,
)
from repro.obs.slo import SLOStatus, SLOTracker
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    SpanContext,
    Tracer,
    _ActiveSpan,
    _AMBIENT,
    attach,
    current_context,
    detach,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "ObservabilityServer",
    "Profiler",
    "SLOStatus",
    "SLOTracker",
    "Span",
    "SpanContext",
    "Tracer",
    "attach",
    "bind_cache_gauges",
    "cost_tree",
    "current_context",
    "detach",
    "get_registry",
    "get_tracer",
    "install",
    "load_trace",
    "profiled",
    "render_cost_tree",
    "session",
    "span",
    "tree_shape",
    "uninstall",
]

_tracer: "Tracer | None" = None
_registry: "MetricsRegistry | None" = None


def install(tracer: "Tracer | None" = None, registry: "MetricsRegistry | None" = None):
    """Make ``tracer``/``registry`` the process-wide instances.

    Both default to None — installing only a registry leaves tracing
    disabled and vice versa. Returns ``(tracer, registry)`` as set.
    """
    global _tracer, _registry
    _tracer = tracer
    _registry = registry
    return tracer, registry


def uninstall() -> None:
    """Disable observability (back to the no-op fast path)."""
    global _tracer, _registry
    _tracer = None
    _registry = None


def get_tracer() -> "Tracer | None":
    return _tracer


def get_registry() -> "MetricsRegistry | None":
    return _registry


def span(name: str, **attributes):
    """A span context manager on the installed tracer, or the shared
    no-op :data:`NULL_SPAN` when tracing is disabled."""
    if _tracer is None:
        return NULL_SPAN
    # Builds the active span directly rather than going through
    # Tracer.span — this call sits on every instrumented hot path and
    # forwarding **attributes would copy the dict a second time.
    return _ActiveSpan(_tracer, name, _AMBIENT, attributes)


@contextmanager
def session(tracer=None, registry=None):
    """Scoped observability: install, yield ``(tracer, registry)``,
    uninstall — restoring whatever was installed before.

    Fresh instances are created when not given, so the common test
    shape is ``with obs.session() as (tracer, registry):``.
    """
    if tracer is None:
        tracer = Tracer()
    if registry is None:
        registry = MetricsRegistry()
    previous = (_tracer, _registry)
    install(tracer, registry)
    try:
        yield tracer, registry
    finally:
        install(*previous)


@contextmanager
def profiled(name: str, **attributes):
    """A span carrying before/after resource samples.

    Attaches ``rss_before_bytes``/``rss_after_bytes`` (and the
    tracemalloc pair when tracing allocations) to the span. No-op when
    no tracer is installed.
    """
    if _tracer is None:
        yield NULL_SPAN
        return
    profiler = Profiler()
    with _tracer.span(name, **attributes) as sp:
        before = profiler.sample()
        sp.set_attribute("rss_before_bytes", before["rss_bytes"])
        if before["alloc_bytes"]:
            sp.set_attribute("alloc_before_bytes", before["alloc_bytes"])
        try:
            yield sp
        finally:
            after = profiler.sample()
            sp.set_attributes(
                rss_after_bytes=after["rss_bytes"],
                rss_delta_bytes=after["rss_bytes"] - before["rss_bytes"],
            )
            if after["alloc_bytes"] or before["alloc_bytes"]:
                sp.set_attributes(
                    alloc_after_bytes=after["alloc_bytes"],
                    alloc_peak_bytes=after["alloc_peak_bytes"],
                )
