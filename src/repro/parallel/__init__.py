"""Shared parallel execution layer (executor, shm transport, memo cache).

The three pieces compose into one story: :class:`ParallelExecutor`
fans independent compressor/tile tasks over processes with
serial-identical results, :class:`SharedNDArray` ships the large
fields those tasks read to process workers once instead of per task,
and :class:`CompressionMemoCache` makes sure no execution path in the
library ever pays for the same compression twice. Ratio probes — the
augmentation sweep and FRaZ's searches — all measure through
:func:`measure_ratios`, which combines the memo and the executor.
Every parallel loop (those probes and tiled compression) reaches them
through a :class:`~repro.runtime.RuntimeContext`; the CLI exposes
them as ``--jobs``.
"""

from repro.parallel.executor import (
    ParallelExecutor,
    available_cpus,
    resolve_n_jobs,
)
from repro.parallel.memo import (
    CompressionMemoCache,
    MemoRecord,
    measure_ratios,
)
from repro.parallel.shm import SharedNDArray, ShmDescriptor

__all__ = [
    "CompressionMemoCache",
    "MemoRecord",
    "ParallelExecutor",
    "SharedNDArray",
    "ShmDescriptor",
    "available_cpus",
    "measure_ratios",
    "resolve_n_jobs",
]
