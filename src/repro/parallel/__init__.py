"""Shared parallel execution layer (executor, shm transport, memo cache).

The three pieces compose into one story: :class:`ParallelExecutor`
fans independent compressor/tree/tile tasks over processes or threads
with serial-identical results, :class:`SharedNDArray` ships the large
fields those tasks read to process workers once instead of per task,
and :class:`CompressionMemoCache` makes sure no execution path in the
library ever pays for the same compression twice. Every hot loop
(augmentation sweeps, FRaZ probes, forest fit/predict, tiled
estimation) reaches them through a
:class:`~repro.runtime.RuntimeContext` (the forest also takes
``n_jobs=``); the CLI exposes them as ``--jobs``.
"""

from repro.parallel.executor import (
    ParallelExecutor,
    available_cpus,
    derive_seeds,
    resolve_n_jobs,
)
from repro.parallel.memo import CompressionMemoCache, MemoRecord
from repro.parallel.shm import SharedNDArray, ShmDescriptor

__all__ = [
    "CompressionMemoCache",
    "MemoRecord",
    "ParallelExecutor",
    "SharedNDArray",
    "ShmDescriptor",
    "available_cpus",
    "derive_seeds",
    "resolve_n_jobs",
]
