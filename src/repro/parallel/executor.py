"""Backend-pluggable task execution with deterministic results.

Every parallel loop in this library — the ~25-point stationary sweeps
of augmentation, FRaZ's window-edge probes, per-tile compression — is
a map over independent tasks. :class:`ParallelExecutor`
gives those loops one seam: a ``map`` that runs serially or on a
process pool, always returning results in task order so callers are
bit-identical to their serial selves.

Backend guidance (the GIL decides):

* ``"process"`` — CPU-bound work that holds the GIL (the compressors'
  Python-level passes). Tasks and results cross process
  boundaries by pickling, so large ndarrays should travel through
  ``shared=`` (see :mod:`repro.parallel.shm`) instead of task tuples.
* ``"serial"`` — the reference behavior; also what any ``n_jobs=1``
  executor collapses to.

Worker functions used with the process backend must be module-level
(picklable by reference). The uniform signature is
``fn(task, arrays, context)`` where ``arrays`` is the dict passed as
``shared=`` (reconstructed zero-copy in workers) and ``context`` is the
per-map constant shipped once per worker instead of once per task.
:meth:`ParallelExecutor.map_batched` calls the same signature with a
contiguous *list* of tasks and expects one result per task back.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from repro import obs
from repro.errors import InvalidConfiguration
from repro.obs import trace as obs_trace
from repro.parallel.shm import SharedNDArray
from repro.runtime.config import _BACKENDS


def available_cpus() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` request to a concrete worker count.

    ``None`` and ``0`` mean "all available CPUs"; negative values count
    back from the CPU pool (``-1`` = all, ``-2`` = all but one, the
    joblib convention); positive values are taken literally.
    """
    cpus = available_cpus()
    if n_jobs is None or n_jobs == 0:
        return cpus
    n_jobs = int(n_jobs)
    if n_jobs < 0:
        return max(1, cpus + 1 + n_jobs)
    return n_jobs


# -- process-backend worker plumbing -----------------------------------------
#
# The pool initializer attaches every shared segment once per worker and
# stashes (arrays, fn, context) in module globals; per-task traffic is
# then just the task tuple and the result.

_WORKER_STATE: dict | None = None


def _worker_init(descriptors, fn, context, handoff=None) -> None:
    global _WORKER_STATE
    handles = {
        name: SharedNDArray.attach(desc) for name, desc in descriptors.items()
    }
    # Runtime handoff: span re-parenting and the driver context's child
    # spec both attach here (imported lazily — repro.runtime imports
    # this module for ParallelExecutor).
    from repro.runtime.worker import attach_worker_runtime

    tracer = attach_worker_runtime(handoff)
    _WORKER_STATE = {
        "handles": handles,
        "arrays": {name: handle.asarray() for name, handle in handles.items()},
        "fn": fn,
        "context": context,
        "tracer": tracer,
    }


def _worker_call(task):
    state = _WORKER_STATE
    result = state["fn"](task, state["arrays"], state["context"])
    tracer = state["tracer"]
    if tracer is None:
        return result
    # Ship this task's spans home with its result; the driver absorbs
    # them into its tracer (same trace id, parented under the map span).
    return result, [span.to_dict() for span in tracer.drain()]


class ParallelExecutor:
    """Map independent tasks over a serial or process backend.

    Args:
        n_jobs: worker count (``None``/``0`` = all CPUs, negatives count
            back from the pool, joblib-style).
        backend: ``"auto"`` clamps the worker count to the CPUs this
            process may actually use and picks ``"process"`` when that
            leaves more than one worker, ``"serial"`` otherwise — so
            ``n_jobs=4`` on a 1-CPU host runs the serial reference path
            instead of paying pool dispatch for no parallelism. Forcing
            ``"serial"``/``"process"`` skips the clamp.

    The executor is stateless between ``map`` calls (pools live only for
    the duration of one map), so one instance can be shared freely.
    """

    def __init__(self, n_jobs: int | None = None, backend: str = "auto") -> None:
        if backend not in _BACKENDS:
            raise InvalidConfiguration(
                f"backend must be one of {_BACKENDS}, got {backend!r}"
            )
        self.n_jobs = resolve_n_jobs(n_jobs)
        if backend == "auto":
            # Oversubscribing CPU-bound workers is strictly worse than
            # serial (pool startup + pickling with no parallel gain).
            self.n_jobs = min(self.n_jobs, available_cpus())
            backend = "process" if self.n_jobs > 1 else "serial"
        if self.n_jobs == 1 and backend != "serial":
            # One worker gains nothing from a pool; collapse to the
            # reference path so n_jobs=1 is exactly the serial code.
            backend = "serial"
        self.backend = backend
        # Set by an owning RuntimeContext; its spec travels to process
        # workers so they can rebuild a child context.
        self._ctx = None
        self._live_handles: list[SharedNDArray] = []
        self._closed = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(n_jobs={self.n_jobs}, backend={self.backend!r})"

    @property
    def closed(self) -> bool:
        return self._closed

    def shutdown(self) -> None:
        """Refuse further maps and release any leftover shared memory.

        Pools already live only per-``map``, so the work here is
        unlinking ``SharedNDArray`` segments a failed map left behind;
        idempotent and safe after errors.
        """
        if self._closed:
            return
        self._closed = True
        leftovers, self._live_handles = self._live_handles, []
        for handle in leftovers:
            try:
                handle.close()
                handle.unlink()
            except OSError:  # pragma: no cover - already gone
                pass

    def map(
        self,
        fn,
        tasks,
        *,
        shared: dict[str, np.ndarray] | None = None,
        context=None,
    ) -> list:
        """``[fn(task, arrays, context) for task in tasks]``, maybe parallel.

        Results are always returned in task order, whatever the backend
        or scheduling, so callers see serial semantics. ``shared``
        ndarrays are shipped to process workers once (via shared
        memory), not per task; the serial backend passes them through
        zero-copy.
        """
        if self._closed:
            raise InvalidConfiguration(
                "cannot map on a shut-down ParallelExecutor"
            )
        tasks = list(tasks)
        if not tasks:
            return []
        arrays = dict(shared) if shared else {}
        if obs.get_tracer() is None:
            return self._dispatch(fn, tasks, arrays, context, None)
        with obs.span(
            "parallel.map",
            backend=self.backend,
            n_jobs=self.n_jobs,
            n_tasks=len(tasks),
        ):
            return self._dispatch(
                fn, tasks, arrays, context, obs_trace.current_context()
            )

    def map_batched(
        self,
        fn,
        tasks,
        *,
        shared: dict[str, np.ndarray] | None = None,
        context=None,
    ) -> list:
        """Like :meth:`map`, but hands each worker one fat batch.

        Tasks are grouped into at most ``n_jobs`` contiguous batches,
        each submitted as a *single* pool task: ``fn(batch, arrays,
        context)`` receives the whole batch (a list of tasks) and
        returns one result per task, in batch order. Results come back
        flattened in task order, so callers see :meth:`map` semantics
        with per-worker instead of per-task dispatch cost, and a worker
        can carry state (a compression stream's arena) across its
        batch.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        n_batches = min(self.n_jobs, len(tasks))
        bounds = np.linspace(0, len(tasks), n_batches + 1).astype(int)
        batches = [
            tasks[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
        ]
        grouped = self.map(fn, batches, shared=shared, context=context)
        return [result for batch in grouped for result in batch]

    def _dispatch(self, fn, tasks, arrays, context, span_ctx) -> list:
        if self.backend == "serial" or len(tasks) == 1:
            return [fn(task, arrays, context) for task in tasks]
        return self._process_map(fn, tasks, arrays, context, span_ctx)

    def _process_map(self, fn, tasks, arrays, context, span_ctx=None) -> list:
        handles = {
            name: SharedNDArray.from_array(array)
            for name, array in arrays.items()
        }
        descriptors = {
            name: handle.descriptor for name, handle in handles.items()
        }
        workers = min(self.n_jobs, len(tasks))
        spec = self._ctx.spec() if self._ctx is not None else None
        handoff = None
        if span_ctx is not None or spec is not None:
            handoff = {
                "trace_id": span_ctx.trace_id if span_ctx else None,
                "parent_id": span_ctx.span_id if span_ctx else None,
                "runtime": spec,
            }
        self._live_handles.extend(handles.values())
        if self._ctx is not None:
            # Custody chain for abnormal exits: a borrowed executor is
            # never shut down by the context, so the context adopts the
            # segments directly — close() reclaims them even when the
            # owning map died mid-flight.
            for handle in handles.values():
                self._ctx.adopt_shm(handle)
        try:
            with ProcessPoolExecutor(
                max_workers=workers,
                initializer=_worker_init,
                initargs=(descriptors, fn, context, handoff),
            ) as pool:
                chunksize = max(1, len(tasks) // (workers * 4))
                results = list(
                    pool.map(_worker_call, tasks, chunksize=chunksize)
                )
        finally:
            for handle in handles.values():
                handle.close()
                handle.unlink()
                self._live_handles.remove(handle)
                if self._ctx is not None:
                    self._ctx.release_shm(handle)
        if handoff is None or handoff["trace_id"] is None:
            return results
        # Workers returned (result, spans) pairs; unwrap in task order
        # and absorb the shipped spans into the driver's tracer.
        tracer = obs.get_tracer()
        out = []
        for result, payloads in results:
            out.append(result)
            if tracer is not None:
                tracer.absorb(payloads)
        return out
