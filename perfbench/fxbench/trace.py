"""Outside-in layer trace: timing wrappers on each layer's entry points.

Nothing under ``src/`` is edited. :func:`install` replaces each entry
point, at the name its callers look up, with a wrapper that records a
:class:`Span` (name, start, end, parent, operation id) into a
:class:`Tracer`. Spans stay in memory; :func:`window_metrics` and
:func:`setup_metrics` reduce them when the run ends.

A span's *self time* is its duration minus the time its child spans
cover. Summed over one operation's spans, self times add up to its root
spans' time (``trace.op_ms``); the benchmark checks that this covers
the time its loop measured around each operation.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

#: Spans whose self time is reported as a layer of its own; the self
#: time of every other span (the operation roots, the guarded engine's
#: own glue, the cache lookup) is ``other_ms``.
LAYER_SPANS = {
    "core.features": "core.features.ms",
    "core.adjustment": "core.adjustment.ms",
    "ml.forest.predict": "ml.forest.predict_ms",
    "robustness.validation": "robustness.validation.ms",
    "robustness.confidence.spread": "robustness.confidence.spread_ms",
    "compressors.sz.compress": "compressors.sz.compress_ms",
    "encoding.huffman.encode": "encoding.huffman.encode_ms",
}


@dataclass(eq=False)
class Span:
    name: str
    start: float
    parent: "Span | None"
    op: int
    phase: str
    end: float = float("nan")
    children: float = 0.0
    nbytes: int = 0
    rows: int = 0
    out_bytes: int = 0
    ratio: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


@dataclass
class _ThreadState:
    stack: list = field(default_factory=list)
    op: int = -1
    pending: list = field(default_factory=list)


class Tracer:
    """In-memory span recorder shared by every wrapper of one run.

    ``phase`` labels what the run is doing ("setup", "window", ...).
    Operation ids are bound per thread: closed loops call :meth:`bind`
    around each operation; service worker threads are bound by the
    wrappers that see the request's array (``op_of_data``), and spans
    they opened before that (the cache lookup) are attributed then.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op_of_data: dict[int, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
        return state

    def bind(self, op: int) -> None:
        state = self._state()
        state.op = op
        for span in state.pending:
            span.op = op
        state.pending.clear()

    def unbind(self) -> None:
        self._state().op = -1

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[(self.phase, name)] += amount

    def wrap(self, name, fn, *, measure=None, after=None, resolve=None,
             release=False):
        """``fn`` recording a span per call.

        ``measure(span, args)`` fills input sizes before the call,
        ``after(span, result)`` output sizes after it. ``resolve(args)``
        returns the operation id to bind this thread to (or ``None``);
        ``release`` unbinds the thread when the call returns.
        """

        def traced(*args, **kwargs):
            state = self._state()
            if resolve is not None:
                op = resolve(args)
                if op is not None:
                    self.bind(op)
            parent = state.stack[-1] if state.stack else None
            span = Span(name, time.perf_counter(), parent, state.op, self.phase)
            if measure is not None:
                measure(span, args)
            if span.op < 0 and self.phase == "window":
                state.pending.append(span)
            state.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                state.stack.pop()
                if parent is not None:
                    parent.children += span.duration
                self.spans.append(span)
                if release:
                    self.unbind()
            if after is not None:
                after(span, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        """``fn`` counting its calls, without a span (hot inner calls)."""

        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted


_MISSING = object()


def install(tracer: Tracer):
    """Wrap every layer entry point; returns the function that unwraps them."""
    from repro.compressors.sz import SZCompressor
    from repro.core import inference, pipeline, training
    from repro.datasets import hurricane
    from repro.encoding.huffman import HuffmanCodec
    from repro.ml.forest import RandomForestRegressor
    from repro.ml.tree import DecisionTreeRegressor
    from repro.robustness import confidence, guarded
    from repro.serving.cache import FeatureCache

    undo = []

    def patch(owner, attr, wrapper_factory):
        original = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, wrapper_factory(getattr(owner, attr)))
        undo.append((owner, attr, original))

    def spans(owner, attr, name, **options):
        patch(owner, attr, lambda fn: tracer.wrap(name, fn, **options))

    def array_bytes(index):
        def measure(span, args):
            span.nbytes = int(np.asarray(args[index]).nbytes)

        return measure

    def predict_rows(span, args):
        span.rows = int(np.atleast_2d(args[1]).shape[0])

    def blob_out(span, blob):
        span.out_bytes = blob.nbytes
        span.ratio = blob.compression_ratio

    def data_op(args):
        return tracer.op_of_data.get(id(args[1]))

    # Set-up layers: field generation, the stationary sweep, the forest fit.
    spans(hurricane, "generate_hurricane_field", "datasets.gen")
    spans(training, "build_curve", "core.augmentation.sweep")
    spans(RandomForestRegressor, "fit", "ml.forest.fit")
    # Operation roots.
    spans(pipeline.FXRZ, "estimate_config", "op.estimate")
    spans(pipeline.FXRZ, "compress_to_ratio", "op.compress")
    # Analysis: each caller imported the functions under its own name.
    for module in (inference, guarded, training):
        spans(module, "extract_features", "core.features",
              measure=array_bytes(0))
        spans(module, "nonconstant_fraction", "core.adjustment",
              measure=array_bytes(0))
    # Forest query and the per-tree walks under it.
    spans(RandomForestRegressor, "predict", "ml.forest.predict",
          measure=predict_rows)
    patch(DecisionTreeRegressor, "predict",
          lambda fn: tracer.counter("ml.tree.walks", fn))
    # Guarded ladder.
    spans(guarded, "validate_field", "robustness.validation")
    spans(confidence, "ensemble_spread", "robustness.confidence.spread")
    spans(guarded.GuardedInferenceEngine, "analyze",
          "robustness.guarded.analyze", resolve=data_op)
    spans(guarded.GuardedInferenceEngine, "estimate",
          "robustness.guarded.estimate", resolve=data_op, release=True)
    # Serving.
    spans(FeatureCache, "get_or_compute", "serving.cache.get")
    # Compressor and entropy coder.
    spans(SZCompressor, "compress", "compressors.sz.compress",
          measure=array_bytes(1), after=blob_out)
    spans(HuffmanCodec, "encode", "encoding.huffman.encode",
          measure=array_bytes(1))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        undo.clear()

    return uninstall


def _under(span: Span, name: str) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Set-up layer totals of the traced set-up phase."""
    setup = [s for s in tracer.spans if s.phase == "setup"]

    def total(name):
        return sum(s.duration for s in setup if s.name == name)

    return {
        "datasets.gen_s": total("datasets.gen"),
        "core.augmentation.sweep_s": total("core.augmentation.sweep"),
        "core.augmentation.sweep_runs": sum(
            1 for s in setup
            if s.name == "compressors.sz.compress"
            and _under(s, "core.augmentation.sweep")
        ),
        "ml.forest.fit_s": total("ml.forest.fit"),
    }


def window_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-operation layer metrics of the traced ``window`` phase.

    Times are mean self time per operation (ms), so the named layers
    plus ``other_ms`` add up to ``trace.op_ms``. Throughputs divide
    the input bytes (computed from array sizes) by inclusive call time.
    """
    window = [s for s in tracer.spans if s.phase == "window" and s.op >= 0]
    by_name: dict[str, list[Span]] = {}
    for span in window:
        by_name.setdefault(span.name, []).append(span)

    def per_op_ms(spans):
        return 1e3 * sum(s.self_time for s in spans) / n_ops

    def mb_per_s(spans):
        busy = sum(s.duration for s in spans)
        return sum(s.nbytes for s in spans) / busy / 1e6 if busy > 0 else 0.0

    out = {
        metric: per_op_ms(by_name.get(name, []))
        for name, metric in LAYER_SPANS.items()
    }
    out["other_ms"] = per_op_ms(
        [s for s in window if s.name not in LAYER_SPANS]
    )
    out["trace.op_ms"] = 1e3 * sum(
        s.duration for s in window if s.parent is None
    ) / n_ops
    compresses = by_name.get("compressors.sz.compress", [])
    out["core.features.mb_per_s"] = mb_per_s(by_name.get("core.features", []))
    out["core.adjustment.mb_per_s"] = mb_per_s(
        by_name.get("core.adjustment", [])
    )
    out["compressors.sz.mb_per_s"] = mb_per_s(compresses)
    predicts = by_name.get("ml.forest.predict", [])
    out["ml.forest.predict_calls"] = len(predicts) / n_ops
    out["ml.forest.rows_per_call"] = (
        sum(s.rows for s in predicts) / len(predicts) if predicts else 0.0
    )
    out["ml.tree.walks"] = tracer.counts[("window", "ml.tree.walks")] / n_ops
    out["compressors.sz.ratio_median"] = (
        float(np.median([s.ratio for s in compresses])) if compresses else 0.0
    )
    out["compressors.sz.out_bytes"] = (
        sum(s.out_bytes for s in compresses) / n_ops
    )
    return out
