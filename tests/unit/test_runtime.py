"""Unit tests of the runtime session layer.

Pins the RuntimeConfig layering contract (defaults -> env -> TOML
profile -> explicit overrides, with provenance naming the winning
layer), the RuntimeContext lifecycle (lazy resources, deterministic
teardown, ambient observability install/restore) and the ``ctx=``-only
constructors.
"""

from __future__ import annotations

import warnings

import pytest

from repro import obs
from repro.config import DEFAULT_SEED
from repro.errors import InvalidConfiguration
from repro.runtime import RuntimeConfig, RuntimeContext

pytestmark = pytest.mark.runtime


class TestConfigLayering:
    def test_defaults(self):
        config = RuntimeConfig.resolve(env={})
        assert config.jobs == 1
        assert config.backend == "auto"
        assert config.trace == "" and config.metrics == ""
        assert config.seed == DEFAULT_SEED
        assert config.fallback == "fraz"
        assert config.min_confidence == 0.5
        assert all(layer == "default" for layer in config.provenance.values())

    def test_env_layer(self):
        config = RuntimeConfig.resolve(
            env={"REPRO_JOBS": "3", "REPRO_FALLBACK": "curve"}
        )
        assert config.jobs == 3
        assert config.fallback == "curve"
        assert config.provenance["jobs"] == "env"
        assert config.provenance["seed"] == "default"

    def test_profile_layer_beats_env(self, tmp_path):
        profile = tmp_path / "runtime.toml"
        profile.write_text("[runtime]\njobs = 5\nmin_confidence = 0.8\n")
        config = RuntimeConfig.resolve(
            profile=profile, env={"REPRO_JOBS": "3", "REPRO_SEED": "11"}
        )
        assert config.jobs == 5  # profile wins over env
        assert config.seed == 11  # env survives where the profile is silent
        assert config.min_confidence == 0.8
        assert config.provenance["jobs"] == "profile"
        assert config.provenance["seed"] == "env"

    def test_profile_named_by_env(self, tmp_path):
        profile = tmp_path / "runtime.toml"
        profile.write_text("[runtime]\nseed = 99\n")
        config = RuntimeConfig.resolve(env={"REPRO_PROFILE": str(profile)})
        assert config.seed == 99
        assert config.provenance["seed"] == "profile"

    def test_override_beats_everything(self, tmp_path):
        profile = tmp_path / "runtime.toml"
        profile.write_text("[runtime]\njobs = 5\n")
        config = RuntimeConfig.resolve(
            profile=profile, env={"REPRO_JOBS": "3"}, jobs=7
        )
        assert config.jobs == 7
        assert config.provenance["jobs"] == "override"

    def test_none_override_means_unset(self):
        config = RuntimeConfig.resolve(env={"REPRO_JOBS": "3"}, jobs=None)
        assert config.jobs == 3

    def test_unknown_override_rejected(self):
        with pytest.raises(InvalidConfiguration, match="unknown runtime option"):
            RuntimeConfig.resolve(env={}, workers=4)

    def test_unknown_profile_key_rejected(self, tmp_path):
        profile = tmp_path / "runtime.toml"
        profile.write_text("[runtime]\nworkers = 4\n")
        with pytest.raises(InvalidConfiguration, match="unknown option"):
            RuntimeConfig.resolve(profile=profile, env={})

    def test_bad_env_value_blames_the_variable(self):
        with pytest.raises(InvalidConfiguration, match="REPRO_JOBS"):
            RuntimeConfig.resolve(env={"REPRO_JOBS": "many"})

    def test_validation(self):
        with pytest.raises(InvalidConfiguration):
            RuntimeConfig(backend="mpi")
        with pytest.raises(InvalidConfiguration):
            RuntimeConfig(fallback="panic")
        with pytest.raises(InvalidConfiguration):
            RuntimeConfig(min_confidence=1.5)
        with pytest.raises(InvalidConfiguration):
            RuntimeConfig(retry_attempts=0)

    def test_replace_marks_provenance(self):
        config = RuntimeConfig.resolve(env={}).replace(jobs=4)
        assert config.jobs == 4
        assert config.provenance["jobs"] == "override"

    def test_serving_knobs_layer_like_any_other(self, tmp_path):
        config = RuntimeConfig.resolve(
            env={
                "REPRO_BREAKER_FAILURES": "3",
                "REPRO_BREAKER_RESET": "1.5",
                "REPRO_DEADLINE": "2.5",
            }
        )
        assert config.breaker_failures == 3
        assert config.breaker_reset == 1.5
        assert config.deadline == 2.5
        assert config.provenance["breaker_failures"] == "env"
        profile = tmp_path / "runtime.toml"
        profile.write_text("[runtime]\nbreaker_failures = 7\ndeadline = 0.5\n")
        layered = RuntimeConfig.resolve(
            profile=profile,
            env={"REPRO_BREAKER_FAILURES": "3", "REPRO_BREAKER_RESET": "1.5"},
            deadline=9.0,
        )
        assert layered.breaker_failures == 7  # profile beats env
        assert layered.breaker_reset == 1.5  # env survives profile silence
        assert layered.deadline == 9.0  # override beats profile
        assert layered.provenance["deadline"] == "override"

    def test_serving_knob_validation(self):
        with pytest.raises(InvalidConfiguration):
            RuntimeConfig(breaker_failures=0)
        with pytest.raises(InvalidConfiguration):
            RuntimeConfig(breaker_reset=-0.1)
        with pytest.raises(InvalidConfiguration):
            RuntimeConfig(deadline=-1.0)


class TestContextLifecycle:
    def test_serial_config_has_no_executor(self):
        with RuntimeContext(env={}) as ctx:
            assert ctx.executor is None

    def test_parallel_config_builds_executor_once(self):
        # Force the process backend: the "auto" default collapses to
        # serial (no executor) on 1-CPU hosts.
        with RuntimeContext(env={}, jobs=2, backend="process") as ctx:
            executor = ctx.executor
            assert executor is not None
            assert executor.n_jobs == 2
            assert executor._ctx is ctx
            assert ctx.executor is executor
        assert executor.closed

    def test_memo_is_lazy_and_shared(self):
        with RuntimeContext(env={}) as ctx:
            assert ctx.memo is ctx.memo

    def test_borrowed_executor_not_shut_down(self):
        from repro.parallel import ParallelExecutor

        executor = ParallelExecutor(n_jobs=2, backend="thread")
        ctx = RuntimeContext(env={}, executor=executor)
        ctx.close()
        assert not executor.closed
        executor.shutdown()

    def test_close_is_idempotent_and_final(self):
        ctx = RuntimeContext(env={}, jobs=2)
        ctx.close()
        ctx.close()
        assert ctx.closed
        with pytest.raises(InvalidConfiguration, match="closed RuntimeContext"):
            ctx.executor
        with pytest.raises(InvalidConfiguration, match="closed RuntimeContext"):
            ctx.memo

    def test_derive_seeds_match_executor_derivation(self):
        from repro.parallel.executor import derive_seeds

        with RuntimeContext(env={}, seed=42) as ctx:
            assert ctx.derive_seeds(4) == derive_seeds(42, 4)

    def test_retry_policy_from_config(self):
        with RuntimeContext(env={}, retry_attempts=7, retry_base_delay=0.1) as ctx:
            policy = ctx.retry_policy
            assert policy.max_attempts == 7
            assert policy.base_delay == 0.1

    def test_guard_options(self):
        with RuntimeContext(env={}, fallback="curve", min_confidence=0.9) as ctx:
            assert ctx.guard_options == {
                "fallback": "curve",
                "min_confidence": 0.9,
            }

    def test_trace_and_metrics_export_on_close(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.txt"
        ctx = RuntimeContext(env={}, trace=str(trace), metrics=str(metrics))
        with ctx:
            with obs.span("unit.work"):
                pass
            ctx.registry.counter("repro_unit_total", "unit test counter").inc()
        assert ctx.exported_spans == 1
        spans = obs.load_trace(trace)
        assert [s.name for s in spans] == ["unit.work"]
        assert "repro_unit_total" in metrics.read_text()
        assert any("span" in note for note in ctx.teardown_notes)
        assert any("metrics" in note for note in ctx.teardown_notes)

    def test_enter_installs_and_close_restores_obs(self, tmp_path):
        previous_tracer = obs.get_tracer()
        ctx = RuntimeContext(env={}, trace=str(tmp_path / "t.jsonl"))
        with ctx:
            assert obs.get_tracer() is ctx.tracer
        assert obs.get_tracer() is previous_tracer

    def test_plain_context_leaves_obs_alone(self):
        previous = (obs.get_tracer(), obs.get_registry())
        with RuntimeContext(env={}):
            assert (obs.get_tracer(), obs.get_registry()) == previous

    def test_config_and_overrides_are_exclusive(self):
        with pytest.raises(InvalidConfiguration, match="not both"):
            RuntimeContext(RuntimeConfig(), jobs=2)

    def test_from_args_resolution(self):
        import argparse

        from repro.runtime import add_runtime_args

        parser = argparse.ArgumentParser()
        add_runtime_args(parser)
        args = parser.parse_args(["--jobs", "2", "--fallback", "curve"])
        ctx = RuntimeContext.from_args(args, env={"REPRO_SEED": "17"})
        try:
            assert ctx.config.jobs == 2
            assert ctx.config.fallback == "curve"
            assert ctx.config.seed == 17  # env fills what flags left unset
        finally:
            ctx.close()

    def test_breaker_options_mirror_config(self):
        with RuntimeContext(
            env={}, breaker_failures=2, breaker_reset=0.75
        ) as ctx:
            assert ctx.breaker_options == {
                "failure_threshold": 2,
                "reset_seconds": 0.75,
            }

    def test_adopted_shm_unlinked_at_close(self):
        from repro.parallel.shm import SharedNDArray

        import numpy as np

        ctx = RuntimeContext(env={})
        handle = SharedNDArray.from_array(np.arange(8, dtype=np.float32))
        descriptor = handle.descriptor
        ctx.adopt_shm(handle)
        ctx.close()
        with pytest.raises(FileNotFoundError):
            SharedNDArray.attach(descriptor)
        assert any("shared-memory" in note for note in ctx.teardown_notes)

    def test_released_shm_stays_with_its_owner(self):
        from repro.parallel.shm import SharedNDArray

        import numpy as np

        ctx = RuntimeContext(env={})
        handle = SharedNDArray.from_array(np.arange(8, dtype=np.float32))
        descriptor = handle.descriptor
        ctx.adopt_shm(handle)
        ctx.release_shm(handle)
        ctx.close()
        attached = SharedNDArray.attach(descriptor)  # still alive
        attached.close()
        handle.close()
        handle.unlink()
        assert not any("shared-memory" in note for note in ctx.teardown_notes)

    def test_adopt_after_close_unlinks_immediately(self):
        from repro.parallel.shm import SharedNDArray

        import numpy as np

        ctx = RuntimeContext(env={})
        ctx.close()
        handle = SharedNDArray.from_array(np.arange(4, dtype=np.float32))
        descriptor = handle.descriptor
        ctx.adopt_shm(handle)
        with pytest.raises(FileNotFoundError):
            SharedNDArray.attach(descriptor)

    def test_spec_roundtrip_forces_serial_child(self, tmp_path):
        with RuntimeContext(
            env={}, jobs=4, seed=123, trace=str(tmp_path / "t.jsonl"),
            breaker_failures=2, breaker_reset=0.5, deadline=4.0,
        ) as ctx:
            child = RuntimeContext.from_spec(ctx.spec())
            assert child.config.jobs == 1
            assert child.config.backend == "serial"
            assert child.config.trace == "" and child.config.metrics == ""
            assert child.config.seed == 123
            # supervision policy rides the spec into shard children
            assert child.config.breaker_failures == 2
            assert child.config.breaker_reset == 0.5
            assert child.config.deadline == 4.0
            assert child.executor is None
            child.close()


class TestDeprecationShims:
    """The per-layer ``executor=``/``memo=``/``n_jobs=`` kwargs are gone;
    the ``ctx=`` constructors must not trip any DeprecationWarning."""

    def test_ctx_first_constructors_stay_silent(self, smooth_field3d):
        from repro.baselines.fraz import FRaZ
        from repro.compressors import get_compressor
        from repro.core.pipeline import FXRZ

        with RuntimeContext(env={}) as ctx:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("error", DeprecationWarning)
                FRaZ(get_compressor("sz"), ctx=ctx)
                FXRZ(get_compressor("sz"), ctx=ctx)
            assert caught == []
