"""Unit tests for the CLI argument parser (no workflows executed)."""

import pytest

from repro.cli import build_parser


@pytest.fixture(scope="module")
def parser():
    return build_parser()


class TestParser:
    def test_train_defaults(self, parser):
        args = parser.parse_args(["train", "a.npy", "b.npy", "--model", "m.npz"])
        assert args.inputs == ["a.npy", "b.npy"]
        assert args.compressor == "sz"
        assert args.stride == 4
        assert args.stationary_points == 25
        assert not args.no_adjustment

    def test_train_overrides(self, parser):
        args = parser.parse_args(
            [
                "train", "a.npy", "--model", "m.npz", "--compressor", "zfp",
                "--stride", "2", "--no-adjustment",
            ]
        )
        assert args.compressor == "zfp"
        assert args.stride == 2
        assert args.no_adjustment

    def test_unknown_compressor_rejected(self, parser):
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["train", "a.npy", "--model", "m.npz", "--compressor", "lz4"]
            )

    def test_estimate_accepts_any_target_kind(self, parser):
        # The target moved from a required --ratio to one-of-four
        # objective flags; absence is a command-time ReproError now
        # (the parser cannot express "exactly one of").
        from repro.cli import _objective_from_args

        args = parser.parse_args(["estimate", "a.npy", "--model", "m.npz"])
        assert _objective_from_args(args) is None
        args = parser.parse_args(
            ["estimate", "a.npy", "--model", "m.npz", "--target-psnr", "60"]
        )
        assert _objective_from_args(args).canonical == "psnr:60"
        args = parser.parse_args(
            ["estimate", "a.npy", "--model", "m.npz", "--target-ssim", "0.99"]
        )
        assert _objective_from_args(args).canonical == "ssim:0.99"
        args = parser.parse_args(
            ["estimate", "a.npy", "--model", "m.npz", "--target-ratio", "12"]
        )
        assert _objective_from_args(args).canonical == "ratio:12"

    def test_conflicting_targets_rejected(self, parser):
        from repro.cli import _objective_from_args
        from repro.errors import ReproError

        args = parser.parse_args(
            ["estimate", "a.npy", "--model", "m.npz", "--ratio", "8",
             "--target-psnr", "60"]
        )
        with pytest.raises(ReproError):
            _objective_from_args(args)

    def test_frontier_flags(self, parser):
        args = parser.parse_args(
            ["estimate", "a.npy", "--model", "m.npz",
             "--frontier", "cr>=10", "--frontier-points", "8"]
        )
        assert args.frontier == "cr>=10"
        assert args.frontier_points == 8

    def test_compress_round_trip_args(self, parser):
        args = parser.parse_args(
            ["compress", "a.npy", "--model", "m.npz", "--ratio", "12.5",
             "--output", "a.fxrz"]
        )
        assert args.ratio == 12.5
        assert args.output == "a.fxrz"

    def test_search_defaults(self, parser):
        args = parser.parse_args(["search", "a.npy", "--ratio", "8"])
        assert args.iterations == 15
        assert args.compressor == "sz"

    def test_export_args(self, parser):
        args = parser.parse_args(["export", "nyx-1", "temperature", "--out", "d"])
        assert args.dataset == "nyx-1"
        assert args.field == "temperature"

    def test_command_required(self, parser):
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_all_compressors_offered(self, parser):
        for name in ("sz", "sz2", "zfp", "fpzip", "mgard", "digit"):
            args = parser.parse_args(
                ["search", "a.npy", "--ratio", "5", "--compressor", name]
            )
            assert args.compressor == name


@pytest.mark.robustness
class TestGuardFlags:
    def test_estimate_defaults(self, parser):
        # Parser defaults are None so env/TOML-profile layers can apply;
        # the resolved policy defaults live in RuntimeConfig.
        args = parser.parse_args(
            ["estimate", "a.npy", "--model", "m.npz", "--ratio", "10"]
        )
        assert args.fallback is None
        assert args.min_confidence is None
        from repro.runtime import RuntimeContext

        ctx = RuntimeContext.from_args(args, env={})
        assert ctx.config.fallback == "fraz"
        assert ctx.config.min_confidence == 0.5
        ctx.close()

    def test_fallback_choices(self, parser):
        for choice in ("none", "curve", "fraz"):
            args = parser.parse_args(
                ["compress", "a.npy", "--model", "m.npz", "--ratio", "10",
                 "--output", "o", "--fallback", choice]
            )
            assert args.fallback == choice

    def test_bad_fallback_rejected(self, parser):
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["estimate", "a.npy", "--model", "m.npz", "--ratio", "10",
                 "--fallback", "panic"]
            )

    def test_min_confidence_override(self, parser):
        args = parser.parse_args(
            ["estimate", "a.npy", "--model", "m.npz", "--ratio", "10",
             "--min-confidence", "0.9"]
        )
        assert args.min_confidence == 0.9


@pytest.mark.robustness
class TestDumpFlags:
    def test_defaults(self, parser):
        args = parser.parse_args(["dump"])
        assert args.ranks == 1024
        assert args.fault_seed == 0
        assert args.fail_prob == 0.0
        assert args.retries == 4
        assert not args.no_retry

    def test_fault_knobs(self, parser):
        args = parser.parse_args(
            ["dump", "--ranks", "64", "--fault-seed", "7",
             "--fail-prob", "0.12", "--straggler-prob", "0.1",
             "--write-error-prob", "0.05", "--retries", "8",
             "--base-delay", "0.1"]
        )
        assert args.ranks == 64
        assert args.fault_seed == 7
        assert args.fail_prob == 0.12
        assert args.straggler_prob == 0.1
        assert args.write_error_prob == 0.05
        assert args.retries == 8
        assert args.base_delay == 0.1

    def test_no_retry_flag(self, parser):
        args = parser.parse_args(["dump", "--no-retry"])
        assert args.no_retry


@pytest.mark.lifecycle
class TestLifecycleFlags:
    def test_outcome_log_rides_the_runtime_group(self, parser):
        args = parser.parse_args(
            ["estimate", "data.npy", "--model", "m.fxrz", "--ratio", "8",
             "--outcome-log", "/tmp/o.jsonl"]
        )
        assert args.outcome_log == "/tmp/o.jsonl"

    def test_outcomes_report_takes_a_log(self, parser):
        args = parser.parse_args(["outcomes-report", "o.jsonl"])
        assert args.log == "o.jsonl"

    def test_retrain_defaults(self, parser):
        args = parser.parse_args(
            ["retrain", "--registry", "reg", "--outcomes", "o.jsonl"]
        )
        assert args.registry == "reg"
        assert args.compressor == "sz"
        assert args.fingerprint == ""
        assert args.canary_fraction == 0.25
        assert args.canary_margin == 0.0
        assert args.oversample == 4
        assert not args.no_promote

    def test_retrain_overrides(self, parser):
        args = parser.parse_args(
            ["retrain", "--registry", "reg", "--outcomes", "o.jsonl",
             "--compressor", "zfp", "--fingerprint", "abc",
             "--canary-fraction", "0.5",
             "--canary-margin", "0.05", "--oversample", "2", "--no-promote"]
        )
        assert args.compressor == "zfp"
        assert args.fingerprint == "abc"
        assert args.canary_fraction == 0.5
        assert args.canary_margin == 0.05
        assert args.oversample == 2
        assert args.no_promote

    def test_retrain_requires_registry_and_outcomes(self, parser):
        with pytest.raises(SystemExit):
            parser.parse_args(["retrain", "--registry", "reg"])
        with pytest.raises(SystemExit):
            parser.parse_args(["retrain", "--outcomes", "o.jsonl"])
