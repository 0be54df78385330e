"""Worker-process side of the estimation service's shard lane.

One shard is one forked process owning a warm model replica and a
serial child :class:`~repro.runtime.RuntimeContext` rebuilt from the
supervisor's :meth:`~repro.runtime.context.RuntimeContext.spec`. The
supervisor talks to it over two single-writer pipes — requests in,
replies out — because pipes survive ``Process.terminate`` cleanly: a
shard killed mid-``send`` can corrupt at most its *own* reply stream,
never a lock shared with healthy shards (the failure mode of a shared
``multiprocessing.Queue``).

Liveness is reported out-of-band through two shared doubles:

* ``beat`` — refreshed on every idle poll tick, so a shard blocked in
  its request wait still proves its event loop is alive;
* ``busy`` — the monotonic instant the in-flight request started
  (``0.0`` when idle), letting the supervisor distinguish "slow but
  working" from "wedged past the deadline".

Chaos injection (see :class:`~repro.robustness.faults.FaultSpec`) runs
*inside* the shard: per-request draws come from the shard incarnation's
seeded stream, and poison detection is keyed on the request id so the
same request kills every shard it is redelivered to. Every request
consumes a fixed-width draw (crash, hang, slow) whether or not a fault
fires, keeping the stream aligned across fault-probability settings.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict

from repro import obs
from repro.core.persistence import load_pipeline
from repro.obs.trace import SpanContext, attach, detach
from repro.parallel.shm import SharedNDArray
from repro.runtime.context import current_context
from repro.runtime.worker import attach_worker_runtime
from repro.serving.cache import FeatureCache
from repro.serving.service import (
    FEATURE_CACHE_ENTRIES,
    MAX_DATASETS,
    answer,
    build_engine,
)

#: Exit code used by injected crashes, so tests can tell a chaos kill
#: from a genuine interpreter fault.
CRASH_EXIT_CODE = 3


def _send(conn, message: dict) -> None:
    """Best-effort reply; a vanished supervisor is not a shard error."""
    try:
        conn.send(message)
    except (BrokenPipeError, OSError):  # pragma: no cover - parent gone
        os._exit(0)


def _apply_chaos(faults, rng, request_id: str) -> None:
    """Draw and apply this request's injected faults, if any.

    The draw is fixed-width (three uniforms) so the shard's fault
    stream stays aligned whatever mix of probabilities is enabled.
    Crashes use ``os._exit`` — an abrupt death with no teardown, which
    is exactly what the supervisor must survive.
    """
    if faults is None or not faults.has_serving_faults:
        return
    if faults.is_poison(request_id):
        os._exit(CRASH_EXIT_CODE)
    crash, hang, slow = rng.uniform(size=3)
    if crash < faults.worker_crash_prob:
        os._exit(CRASH_EXIT_CODE)
    if hang < faults.worker_hang_prob:
        # A wedge, not a crash: the loop stops beating and ``busy``
        # ages until the supervisor's hang detector kills us.
        time.sleep(faults.hang_seconds)
    if slow < faults.slow_reply_prob:
        time.sleep(faults.slow_reply_seconds)


def shard_main(
    shard: int,
    generation: int,
    spec: dict,
    req_conn,
    res_conn,
    beat,
    busy,
) -> None:
    """Entry point of one shard process (runs until ``stop`` or death).

    Args:
        shard: stable shard index (survives respawns).
        generation: incarnation counter; folded into the fault stream
            so a respawn does not replay the draws that killed it.
        spec: picklable setup — ``runtime`` (context spec), ``model_path``,
            ``guarded``/``guard_options``, optional ``faults``, and a
            ``trace`` flag turning the shard-local tracer on.
        req_conn: read end of the request pipe.
        res_conn: write end of the reply pipe.
        beat / busy: shared doubles for liveness reporting (see module
            docstring).
    """
    # A forked shard holds copies of its siblings' pipe ends, so a
    # supervisor that dies without close() never shows up as EOF on the
    # request pipe; being re-parented is the signal to exit instead.
    supervisor = os.getppid()
    attach_worker_runtime({"runtime": spec.get("runtime")})
    if spec.get("trace"):
        # The shard runs its own tracer; spans ship home inside each
        # reply and re-parent under the supervisor's request span (the
        # executor re-parenting idiom, across the fork boundary). The
        # worker-runtime attach above uninstalled any inherited obs
        # state, so this install is the shard's whole obs surface.
        obs.install(tracer=obs.Tracer())
    faults = spec.get("faults")
    rng = faults.serving_rng(shard, generation) if faults is not None else None
    try:
        engine = build_engine(
            load_pipeline(spec["model_path"]),
            spec.get("guarded", True),
            spec.get("guard_options"),
            current_context(),
        )
    except Exception as exc:  # noqa: BLE001 — reported, not raised
        _send(
            res_conn,
            {
                "kind": "init_error",
                "generation": generation,
                "error": f"{type(exc).__name__}: {exc}",
            },
        )
        return

    _send(res_conn, {"kind": "ready", "generation": generation})

    analyses = FeatureCache(max_entries=FEATURE_CACHE_ENTRIES)
    segments: OrderedDict[str, tuple[SharedNDArray, str]] = OrderedDict()
    try:
        while os.getppid() == supervisor:
            beat.value = time.monotonic()
            if not req_conn.poll(0.2):
                continue
            try:
                message = req_conn.recv()
            except (EOFError, OSError):  # supervisor went away
                break
            if message.get("kind") == "stop":
                break
            if message.get("kind") != "request":  # pragma: no cover
                continue
            busy.value = time.monotonic()
            try:
                _serve(message, engine, analyses, segments, res_conn,
                       faults, rng, shard, generation)
            finally:
                busy.value = 0.0
    finally:
        for handle, _ in segments.values():
            handle.close()


def _mapped(segments: OrderedDict, analyses: FeatureCache, descriptor,
            key: str) -> SharedNDArray:
    """The shard's mapping of ``descriptor`` (dataset ``key``), in an LRU
    of :data:`MAX_DATASETS` mappings that unmaps what it evicts.

    An evicted mapping's dataset also leaves the analysis cache: the
    guarded engine's analysis keeps a view of the array it validated
    (float64 input is not copied), which must not outlive the mapping.
    """
    entry = segments.pop(descriptor.name, None)
    handle = entry[0] if entry else SharedNDArray.attach(descriptor)
    segments[descriptor.name] = (handle, key)
    while len(segments) > MAX_DATASETS:
        old, old_key = segments.popitem(last=False)[1]
        analyses.discard(old_key)
        old.close()
    return handle


def _serve(
    message: dict,
    engine,
    analyses: FeatureCache,
    segments: OrderedDict,
    res_conn,
    faults,
    rng,
    shard: int,
    generation: int,
) -> None:
    seq = message["seq"]
    deadline = message.get("deadline") or 0.0
    tracer = obs.get_tracer()
    trace = message.get("trace")
    token = None
    if tracer is not None and trace is not None:
        # Re-parent everything this request does under the supervisor's
        # request span: the attached context makes the supervisor's
        # (trace_id, span_id) the ambient parent in this process.
        token = attach(SpanContext(int(trace[0]), int(trace[1])))
    try:
        if deadline and time.monotonic() > deadline:
            # Expired in the pipe; answering would waste engine time
            # the caller already gave up on.
            reply = {"kind": "expired", "seq": seq}
        else:
            reply = _answer(message, engine, analyses, segments, faults,
                            rng, shard, generation, tracer)
        if tracer is not None:
            reply["spans"] = [span.to_dict() for span in tracer.drain()]
        try:
            res_conn.send(reply)
        except Exception:  # noqa: BLE001 — an unpicklable exception
            reply.pop("exception", None)
            _send(res_conn, reply)
    finally:
        if token is not None:
            detach(token)


def _answer(message, engine, analyses, segments, faults, rng, shard,
            generation, tracer) -> dict:
    """The reply to one request: its result, or the error it raised."""
    _apply_chaos(faults, rng, message["request_id"])
    span = (
        tracer.span(
            "shard.serve",
            shard=shard,
            generation=generation,
            request_id=message["request_id"],
        )
        if tracer is not None
        else obs.NULL_SPAN
    )
    try:
        with span as sp:
            handle = _mapped(
                segments, analyses, message["descriptor"],
                message["dataset_key"],
            )
            objective = message["objective"]
            estimate, hit = answer(
                engine,
                analyses,
                message["dataset_key"],
                handle.asarray(),
                objective,
            )
            sp.set_attributes(
                cache_hit=hit,
                tier=estimate.tier,
                objective=objective.canonical,
            )
    except Exception as exc:  # noqa: BLE001 — shipped to the future
        return {
            "kind": "error",
            "seq": message["seq"],
            "error": f"{type(exc).__name__}: {exc}",
            "exception": exc,
        }
    return {
        "kind": "result",
        "seq": message["seq"],
        "estimate": estimate,
        "cache_hit": hit,
    }
