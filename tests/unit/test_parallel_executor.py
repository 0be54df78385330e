"""Executor and shared-memory transport unit tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InvalidConfiguration
from repro.parallel import (
    ParallelExecutor,
    SharedNDArray,
    available_cpus,
    resolve_n_jobs,
)

pytestmark = pytest.mark.parallel


def _scale_task(task, arrays, context):
    return float(arrays["x"][task] * context)


def _index_task(task, arrays, context):  # noqa: ARG001
    return task


def _tag_batch(batch, arrays, context):  # noqa: ARG001
    """Batch worker: each result carries the batch it ran in."""
    first = batch[0]
    return [(task * context, first) for task in batch]


class TestResolveNJobs:
    def test_none_and_zero_mean_all_cpus(self):
        assert resolve_n_jobs(None) == available_cpus()
        assert resolve_n_jobs(0) == available_cpus()

    def test_positive_is_literal(self):
        assert resolve_n_jobs(3) == 3

    def test_negative_counts_back_joblib_style(self):
        cpus = available_cpus()
        assert resolve_n_jobs(-1) == cpus
        assert resolve_n_jobs(-cpus - 5) == 1  # floors at one worker


class TestParallelExecutor:
    def test_rejects_unknown_backend(self):
        with pytest.raises(InvalidConfiguration):
            ParallelExecutor(backend="mpi")

    def test_single_job_collapses_to_serial(self):
        assert ParallelExecutor(n_jobs=1, backend="process").backend == "serial"
        assert ParallelExecutor(n_jobs=1, backend="auto").backend == "serial"

    def test_empty_tasks(self):
        assert ParallelExecutor(n_jobs=2).map(_index_task, []) == []

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_map_preserves_task_order(self, backend):
        executor = ParallelExecutor(n_jobs=4, backend=backend)
        tasks = list(range(23))
        assert executor.map(_index_task, tasks) == tasks

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_shared_arrays_and_context_reach_workers(self, backend):
        x = np.arange(10, dtype=np.float64)
        executor = ParallelExecutor(n_jobs=2, backend=backend)
        out = executor.map(
            _scale_task, list(range(10)), shared={"x": x}, context=3.0
        )
        assert out == [float(v) * 3.0 for v in x]

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_map_batched_hands_each_call_one_batch(self, backend):
        executor = ParallelExecutor(n_jobs=2, backend=backend)
        tasks = list(range(11))
        out = executor.map_batched(_tag_batch, tasks, context=10)
        assert [value for value, _ in out] == [t * 10 for t in tasks]
        # Batches are contiguous runs of tasks, at most one per worker,
        # and ``fn`` ran once per batch (every task saw its batch head).
        heads = [head for _, head in out]
        assert heads == sorted(heads)
        assert len(set(heads)) == executor.n_jobs == 2
        assert executor.map_batched(_tag_batch, []) == []


class TestSharedNDArray:
    def test_roundtrip_preserves_contents(self):
        array = np.random.default_rng(0).normal(size=(7, 5)).astype(np.float32)
        owner = SharedNDArray.from_array(array)
        try:
            attached = SharedNDArray.attach(owner.descriptor)
            np.testing.assert_array_equal(attached.asarray(), array)
            attached.close()
        finally:
            owner.close()
            owner.unlink()

    def test_closed_handle_refuses_views(self):
        owner = SharedNDArray.from_array(np.zeros(3))
        owner.close()
        owner.unlink()
        with pytest.raises(ValueError):
            owner.asarray()

    def test_context_manager_cleans_up(self):
        with SharedNDArray.from_array(np.ones(4)) as owner:
            name = owner.descriptor.name
            np.testing.assert_array_equal(owner.asarray(), np.ones(4))
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
