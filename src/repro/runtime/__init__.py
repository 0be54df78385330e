"""Unified runtime session: one seam for every cross-cutting concern.

After the parallel (PR 3), observability (PR 4) and robustness (PR 1)
layers landed, four concerns were re-plumbed ad hoc through every
layer of the library — ``executor=``/``memo=``/``n_jobs=`` for
parallelism, ``obs.install``-style globals plus ``--trace/--metrics``
for observability, fallback/retry knobs for robustness, and seed
threading for determinism. This package folds them into a single
session object:

* :class:`RuntimeConfig` — frozen, layered configuration resolved from
  defaults -> environment (``REPRO_JOBS``, ``REPRO_TRACE``, ...) ->
  optional TOML profile -> explicit overrides.
* :class:`RuntimeContext` — owns the five cross-cutting resources (a
  :class:`~repro.parallel.ParallelExecutor`, a
  :class:`~repro.parallel.CompressionMemoCache`, a
  :class:`~repro.obs.Tracer`, a :class:`~repro.obs.MetricsRegistry`
  and the master seed + robustness policy)
  with a context-manager lifecycle: on exit the pool shuts down,
  stray shared memory is unlinked, the trace exports and metrics
  flush deterministically.
* :func:`add_runtime_args` / :meth:`RuntimeContext.from_args` — one
  shared argparse surface replacing the per-subcommand CLI wiring.
* :func:`current_context` — the child context a process worker
  reconstructs from the driver's pickled spec (spans re-parent and
  seeds derive exactly as the parity tests pin).

Every consumer accepts ``ctx: RuntimeContext | None`` as its only
runtime seam. See ``docs/RUNTIME.md`` for the precedence table.
"""

from repro.runtime.args import add_runtime_args, runtime_parent_parser
from repro.runtime.config import RuntimeConfig
from repro.runtime.context import RuntimeContext, current_context

__all__ = [
    "RuntimeConfig",
    "RuntimeContext",
    "add_runtime_args",
    "current_context",
    "runtime_parent_parser",
]
