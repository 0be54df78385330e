"""Runtime wiring of the lifecycle subsystem: knobs, context, spec."""

from __future__ import annotations

import pytest

from repro.errors import InvalidConfiguration
from repro.lifecycle import read_outcomes
from repro.runtime import RuntimeConfig, RuntimeContext

from tests.unit.test_lifecycle_outcomes import make_record

pytestmark = [pytest.mark.runtime, pytest.mark.lifecycle]


class TestLifecycleKnobs:
    """``outcome_log`` is the one lifecycle knob of the runtime config;
    the retrain and canary settings are arguments of ``retrain()`` and
    flags of ``repro retrain``."""

    _REMOVED = (
        "drift_window",
        "drift_ood_threshold",
        "drift_error_threshold",
        "drift_hysteresis",
        "retrain_min_samples",
        "canary_fraction",
        "canary_margin",
    )

    def test_defaults(self):
        config = RuntimeConfig.resolve(env={})
        assert config.outcome_log == ""
        assert config.provenance["outcome_log"] == "default"

    def test_layering(self, tmp_path):
        profile = tmp_path / "runtime.toml"
        profile.write_text('[runtime]\noutcome_log = "/tmp/p.jsonl"\n')
        env = {"REPRO_OUTCOME_LOG": "/tmp/o.jsonl"}
        config = RuntimeConfig.resolve(env=env)
        assert config.outcome_log == "/tmp/o.jsonl"
        assert config.provenance["outcome_log"] == "env"
        config = RuntimeConfig.resolve(profile=profile, env=env)
        assert config.outcome_log == "/tmp/p.jsonl"  # profile beats env
        assert config.provenance["outcome_log"] == "profile"

    def test_validation(self):
        for name in self._REMOVED:
            with pytest.raises(InvalidConfiguration, match="unknown runtime"):
                RuntimeConfig.resolve(env={}, **{name: 1})


class TestContextLifecycleWiring:
    def test_lifecycle_is_none_when_logging_off(self):
        with RuntimeContext() as ctx:
            assert ctx.lifecycle is None

    def test_lifecycle_built_lazily_and_closed_with_context(self, tmp_path):
        path = tmp_path / "outcomes.jsonl"
        config = RuntimeConfig.resolve(env={}, outcome_log=str(path))
        ctx = RuntimeContext(config=config)
        log = ctx.lifecycle
        assert log is ctx.lifecycle  # one log per session
        log.record(make_record(0))
        ctx.close()
        with pytest.raises(InvalidConfiguration):
            log.record(make_record(1))
        assert len(read_outcomes(path).records) == 1

    def test_closed_context_refuses_lifecycle(self):
        ctx = RuntimeContext()
        ctx.close()
        with pytest.raises(InvalidConfiguration):
            _ = ctx.lifecycle

    def test_borrowed_log_not_closed(self, tmp_path):
        from repro.lifecycle import OutcomeLog

        log = OutcomeLog(tmp_path / "o.jsonl")
        ctx = RuntimeContext(outcomes=log)
        assert ctx.lifecycle is log
        ctx.close()
        log.record(make_record(0))  # still open: the borrower must not close
        log.close()

    def test_spec_never_forwards_the_outcome_log(self, tmp_path):
        """Child processes must not write the parent's log (single writer)."""
        config = RuntimeConfig.resolve(
            env={},
            outcome_log=str(tmp_path / "o.jsonl"),
            min_confidence=0.9,
        )
        with RuntimeContext(config=config) as ctx:
            spec = ctx.spec()
        assert spec["outcome_log"] == ""
        assert spec["min_confidence"] == 0.9  # policy knobs do travel

    def test_from_args_picks_up_outcome_log(self, tmp_path):
        from repro.cli import build_parser

        path = tmp_path / "o.jsonl"
        args = build_parser().parse_args(
            ["search", "data.npy", "--outcome-log", str(path), "--ratio", "8"]
        )
        with RuntimeContext.from_args(args, env={}) as ctx:
            assert ctx.config.outcome_log == str(path)
            assert ctx.config.provenance["outcome_log"] == "override"
