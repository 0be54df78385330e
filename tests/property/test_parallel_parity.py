"""Serial-vs-parallel parity: every hot path must be bit-identical.

The executor's whole contract is that ``n_jobs`` changes the wall
clock, never the numbers: sweeps assemble in config order, the forest
draws its seeds serially before fanning out and reduces predictions in
tree order, FRaZ's prefetch only relocates where probes are computed,
and tiles are independent by construction. These tests pin that
contract at n_jobs=4 against the serial reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.fraz import FRaZ
from repro.compressors import get_compressor
from repro.config import FXRZConfig
from repro.core.augmentation import build_curve
from repro.core.pipeline import FXRZ
from repro.core.tiling import TiledFixedRatio
from repro.ml.forest import RandomForestRegressor
from repro.parallel import CompressionMemoCache, ParallelExecutor
from repro.runtime import RuntimeContext

from tests.conftest import small_forest_factory

pytestmark = pytest.mark.parallel


@pytest.fixture(scope="module")
def field():
    lin = np.linspace(0, 4 * np.pi, 20)
    x, y, z = np.meshgrid(lin, lin, lin, indexing="ij")
    noise = np.random.default_rng(3).standard_normal((20, 20, 20))
    return (np.sin(x) * np.cos(y + z) + 0.02 * noise).astype(np.float32)


@pytest.fixture(scope="module")
def executor4():
    return ParallelExecutor(n_jobs=4, backend="process")


class TestSweepParity:
    def test_build_curve_identical_at_four_workers(self, field, executor4):
        sz = get_compressor("sz")
        serial = build_curve(sz, field, n_points=6)
        with RuntimeContext(env={}, executor=executor4) as ctx:
            parallel = build_curve(sz, field, n_points=6, ctx=ctx)
        np.testing.assert_array_equal(parallel.configs, serial.configs)
        np.testing.assert_array_equal(parallel.ratios, serial.ratios)
        assert parallel.log_config == serial.log_config

    def test_memo_warmed_curve_identical(self, field, executor4):
        sz = get_compressor("sz")
        memo = CompressionMemoCache()
        with RuntimeContext(env={}, executor=executor4, memo=memo) as ctx:
            cold = build_curve(sz, field, n_points=6, ctx=ctx)
        with RuntimeContext(env={}, memo=memo) as ctx:
            warm = build_curve(sz, field, n_points=6, ctx=ctx)
        np.testing.assert_array_equal(warm.ratios, cold.ratios)
        assert memo.hits >= 6  # the second sweep never ran the compressor
        assert warm.build_seconds == cold.build_seconds  # recorded seconds


class TestForestParity:
    def test_fit_and_predict_identical(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(120, 6))
        y = x @ rng.normal(size=6) + 0.1 * rng.normal(size=120)
        serial = RandomForestRegressor(
            n_estimators=12, random_state=9, min_samples_leaf=2
        ).fit(x, y)
        parallel = RandomForestRegressor(
            n_estimators=12, random_state=9, min_samples_leaf=2, n_jobs=4
        ).fit(x, y)
        queries = rng.normal(size=(30, 6))
        np.testing.assert_array_equal(
            parallel.predict(queries), serial.predict(queries)
        )


class TestFRaZParity:
    def test_search_trace_identical_with_executor(self, field, executor4):
        sz = get_compressor("sz")
        serial = FRaZ(sz, max_iterations=6).search(field, 20.0)
        with RuntimeContext(env={}, executor=executor4) as ctx:
            parallel = FRaZ(sz, max_iterations=6, ctx=ctx).search(field, 20.0)
        assert parallel.evaluations == serial.evaluations
        assert parallel.config == serial.config
        assert parallel.measured_ratio == serial.measured_ratio
        assert parallel.iterations == serial.iterations


class TestTiledParity:
    @pytest.fixture(scope="class")
    def pipeline(self, field):
        fxrz = FXRZ(
            get_compressor("sz"),
            config=FXRZConfig(stationary_points=6, augmented_samples=40),
            model_factory=small_forest_factory,
        )
        fxrz.fit([field])
        return fxrz

    def test_tiles_identical_at_four_workers(self, pipeline, field):
        serial = TiledFixedRatio(pipeline, (10, 10, 10)).compress(field, 15.0)
        with RuntimeContext(env={}, jobs=4, backend="process") as ctx:
            parallel = TiledFixedRatio(
                pipeline, (10, 10, 10), ctx=ctx
            ).compress(field, 15.0)
        assert len(parallel.tiles) == len(serial.tiles)
        for ser, par in zip(serial.tiles, parallel.tiles):
            assert par.index == ser.index
            assert par.slices == ser.slices
            assert par.blob.config == ser.blob.config
            assert par.blob.data == ser.blob.data
        assert parallel.measured_ratio == serial.measured_ratio


def _explode(task, arrays, context):  # pragma: no cover - runs in workers
    raise RuntimeError(f"task {task} failed")


def _report_worker_runtime(task, arrays, context):  # pragma: no cover - workers
    from repro.runtime import current_context

    ctx = current_context()
    if ctx is None:
        return None
    return (ctx.config.seed, ctx.config.jobs, tuple(ctx.derive_seeds(3)))


@pytest.mark.runtime
class TestRuntimeContextParity:
    """The ctx= path must honor the same bit-identity contract.

    A RuntimeContext only *routes* the executor/memo into the layers;
    it must not perturb a single number relative to the serial
    reference, and its spec must hand workers the exact seed the driver
    derives from.
    """

    def test_curve_identical_through_context(self, field):
        from repro.runtime import RuntimeContext

        sz = get_compressor("sz")
        serial = build_curve(sz, field, n_points=6)
        with RuntimeContext(env={}, jobs=4) as ctx:
            parallel = build_curve(sz, field, n_points=6, ctx=ctx)
        np.testing.assert_array_equal(parallel.configs, serial.configs)
        np.testing.assert_array_equal(parallel.ratios, serial.ratios)
        assert parallel.log_config == serial.log_config

    def test_forest_identical_through_context(self, field):
        from repro.runtime import RuntimeContext

        config = FXRZConfig(stationary_points=6, augmented_samples=40)

        def fit(ctx):
            fxrz = FXRZ(
                get_compressor("sz"),
                config=config,
                model_factory=small_forest_factory,
                ctx=ctx,
            )
            fxrz.fit([field])
            return fxrz

        with RuntimeContext(env={}, jobs=1) as serial_ctx:
            serial = fit(serial_ctx)
        with RuntimeContext(env={}, jobs=4) as parallel_ctx:
            parallel = fit(parallel_ctx)
        estimate_s = serial.estimate_config(field, 15.0)
        estimate_p = parallel.estimate_config(field, 15.0)
        assert estimate_p.config == estimate_s.config
        assert estimate_p.adjusted_target == estimate_s.adjusted_target

    def test_fraz_identical_through_context(self, field):
        from repro.runtime import RuntimeContext

        sz = get_compressor("sz")
        serial = FRaZ(sz, max_iterations=6).search(field, 20.0)
        with RuntimeContext(env={}, jobs=4) as ctx:
            parallel = FRaZ(sz, max_iterations=6, ctx=ctx).search(field, 20.0)
        assert parallel.evaluations == serial.evaluations
        assert parallel.config == serial.config
        assert parallel.measured_ratio == serial.measured_ratio

    def test_workers_see_child_context_with_driver_seed(self, field):
        from repro.runtime import RuntimeContext, current_context

        assert current_context() is None  # drivers have no worker context
        # backend pinned: "auto" collapses jobs=2 to serial (executor
        # None) on 1-CPU hosts, and this test is about process workers.
        with RuntimeContext(env={}, jobs=2, seed=987, backend="process") as ctx:
            expected = tuple(ctx.derive_seeds(3))
            reports = ctx.executor.map(_report_worker_runtime, [0, 1])
        assert reports == [(987, 1, expected)] * 2
        assert current_context() is None  # nothing leaked into the driver


@pytest.mark.runtime
@pytest.mark.obs
class TestRuntimeSpanParity:
    """Worker spans re-parent identically when the tracer rides a ctx."""

    def test_ctx_driven_sweep_matches_serial_shape(self, field):
        from repro import obs
        from repro.runtime import RuntimeContext

        sz = get_compressor("sz")

        def sweep(jobs):
            # A ctx with jobs=1 has no executor (sweeps run inline with
            # no parallel.map span), so the serial reference borrows an
            # n_jobs=1 executor to keep the tree shapes comparable.
            tracer = obs.Tracer()
            if jobs == 1:
                extra = {"executor": ParallelExecutor(n_jobs=1, backend="process")}
            else:
                # backend pinned: "auto" would collapse to serial on
                # 1-CPU hosts and drop the parallel.map span this
                # shape comparison expects.
                extra = {"jobs": jobs, "backend": "process"}
            with RuntimeContext(env={}, tracer=tracer, **extra) as ctx:
                build_curve(sz, field, n_points=6, ctx=ctx)
            return tracer.spans

        serial_spans = sweep(1)
        pool_spans = sweep(4)
        assert obs.tree_shape(pool_spans) == obs.tree_shape(serial_spans)
        assert len(pool_spans) == len(serial_spans)
        compress_spans = [
            s for s in pool_spans if s.name == "compressor.compress"
        ]
        assert len(compress_spans) == 6
        driver_pid = next(s.pid for s in pool_spans if s.name == "parallel.map")
        assert any(s.pid != driver_pid for s in compress_spans)
        assert len({s.trace_id for s in pool_spans}) == 1


@pytest.mark.obs
class TestSpanTreeParity:
    """Cross-process span re-parenting: the trace must not depend on n_jobs.

    A process-pool sweep records its per-task compressor spans in the
    workers, ships them back with the results, and re-parents them under
    the driver's ``parallel.map`` span — so serial and 4-worker runs of
    the same sweep must produce the same span tree *shape* (sibling
    order aside, which worker scheduling legitimately permutes).
    """

    def _sweep_shape(self, field, jobs):
        from repro import obs

        sz = get_compressor("sz")
        with obs.session() as (tracer, _registry):
            executor = ParallelExecutor(n_jobs=jobs, backend="process")
            with RuntimeContext(env={}, executor=executor) as ctx:
                build_curve(sz, field, n_points=6, ctx=ctx)
            spans = tracer.spans
        return spans, obs.tree_shape(spans)

    def test_process_pool_sweep_matches_serial_shape(self, field):
        serial_spans, serial_shape = self._sweep_shape(field, 1)
        pool_spans, pool_shape = self._sweep_shape(field, 4)
        assert pool_shape == serial_shape
        # Same span population too, not just a coincidentally equal tree.
        assert len(pool_spans) == len(serial_spans)
        compress_spans = [
            s for s in pool_spans if s.name == "compressor.compress"
        ]
        assert len(compress_spans) == 6
        # The pool run's compressor spans really came from workers and
        # were re-parented into the driver's trace.
        driver_pid = next(
            s.pid for s in pool_spans if s.name == "parallel.map"
        )
        assert any(s.pid != driver_pid for s in compress_spans)
        # One logical operation, one trace id — worker spans included.
        assert len({s.trace_id for s in pool_spans}) == 1

    def test_worker_failure_marks_map_span(self, field):
        from repro import obs

        with obs.session() as (tracer, _registry):
            executor = ParallelExecutor(n_jobs=4, backend="process")
            with pytest.raises(RuntimeError):
                executor.map(_explode, [1, 2, 3, 4])
            [map_span] = [
                s for s in tracer.spans if s.name == "parallel.map"
            ]
        assert map_span.status == "error"
        assert "RuntimeError" in map_span.error
