"""Integration tests of the command-line interface."""

import json
import pathlib

import numpy as np
import pytest

from repro.cli import main, read_blob, write_blob
from repro.compressors import get_compressor
from repro.errors import ReproError


@pytest.fixture(scope="module")
def npy_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-data")
    rng = np.random.default_rng(4)
    lin = np.linspace(0, 4 * np.pi, 20)
    x, y, z = np.meshgrid(lin, lin, lin, indexing="ij")
    paths = []
    for i in range(2):
        data = (
            np.sin(x + 0.3 * i) * np.cos(y)
            + 0.03 * rng.standard_normal((20,) * 3)
        ).astype(np.float32)
        path = root / f"train{i}.npy"
        np.save(path, data)
        paths.append(str(path))
    test_data = (np.sin(x + 0.9) * np.cos(y) + 0.05 * rng.standard_normal((20,) * 3)).astype(np.float32)
    test_path = root / "test.npy"
    np.save(test_path, test_data)
    return paths, str(test_path), root


class TestBlobContainer:
    def test_roundtrip(self, tmp_path, smooth_field3d):
        comp = get_compressor("sz")
        blob = comp.compress(smooth_field3d, 0.01)
        path = tmp_path / "x.fxrz"
        write_blob(blob, path)
        restored = read_blob(path)
        assert restored.compressor == "sz"
        assert restored.original_shape == smooth_field3d.shape
        recon = comp.decompress(restored)
        assert np.array_equal(recon, comp.decompress(blob))

    def test_rejects_non_blob(self, tmp_path):
        path = tmp_path / "junk"
        path.write_bytes(b"not a blob at all")
        with pytest.raises(ReproError):
            read_blob(path)


class TestCommands:
    def test_full_workflow(self, npy_files, capsys):
        train_paths, test_path, root = npy_files
        model = str(root / "model.npz")
        blob = str(root / "out.fxrz")
        recon = str(root / "recon.npy")

        assert main(
            ["train", *train_paths, "--model", model,
             "--stationary-points", "8", "--augmented-samples", "50"]
        ) == 0
        assert "trained on 2 arrays" in capsys.readouterr().out

        assert main(["estimate", test_path, "--model", model, "--ratio", "6"]) == 0
        assert "estimated config" in capsys.readouterr().out

        assert main(
            ["compress", test_path, "--model", model, "--ratio", "6",
             "--output", blob]
        ) == 0
        out = capsys.readouterr().out
        assert "measured" in out

        assert main(["decompress", blob, "--output", recon]) == 0
        capsys.readouterr()
        original = np.load(test_path)
        reconstructed = np.load(recon)
        assert reconstructed.shape == original.shape

    @pytest.mark.objective
    def test_quality_objective_workflow(self, npy_files, capsys, tmp_path):
        train_paths, test_path, root = npy_files
        model = str(root / "model-q.npz")
        assert main(
            ["train", *train_paths, "--model", model,
             "--stationary-points", "8", "--augmented-samples", "50"]
        ) == 0
        capsys.readouterr()

        assert main(
            ["estimate", test_path, "--model", model, "--target-psnr", "50"]
        ) == 0
        out = capsys.readouterr().out
        assert "psnr:50" in out

        blob = str(tmp_path / "q.fxrz")
        assert main(
            ["compress", test_path, "--model", model, "--target-psnr", "50",
             "--output", blob]
        ) == 0
        out = capsys.readouterr().out
        assert "psnr:50" in out and "measured" in out

        assert main(
            ["estimate", test_path, "--model", model, "--frontier", "cr>=4"]
        ) == 0
        out = capsys.readouterr().out
        assert "frontier(cr>=4)" in out

        assert main(
            ["estimate", test_path, "--model", model]
        ) == 2  # no target given

    @pytest.mark.objective
    def test_estimate_batch_objective_grammar(
        self, npy_files, capsys, tmp_path
    ):
        train_paths, test_path, root = npy_files
        model = str(root / "model-q2.npz")
        assert main(
            ["train", *train_paths, "--model", model,
             "--stationary-points", "8", "--augmented-samples", "50"]
        ) == 0
        capsys.readouterr()

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "\n".join(
                [
                    '{"input": "%s", "ratio": 6.0, "id": "r1"}' % test_path,
                    '{"input": "%s", "objective": "psnr:50", "id": "q1"}'
                    % test_path,
                ]
            )
            + "\n"
        )
        output = tmp_path / "results.jsonl"
        assert main(
            ["estimate-batch", str(requests), "--model", model,
             "--engine", "plain", "--workers", "1",
             "--output", str(output)]
        ) == 0
        capsys.readouterr()
        rows = [
            json.loads(line)
            for line in output.read_text().splitlines()
            if line
        ]
        assert len(rows) == 2
        by_id = {row["id"]: row for row in rows}
        assert by_id["r1"]["objective"] == "ratio:6"
        assert by_id["q1"]["objective"] == "psnr:50"
        assert by_id["q1"]["config"] > 0

    def test_search_command(self, npy_files, capsys):
        _, test_path, _ = npy_files
        assert main(
            ["search", test_path, "--ratio", "5", "--iterations", "6"]
        ) == 0
        assert "FRaZ(6)" in capsys.readouterr().out

    def test_datasets_command(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "nyx-1" in out and "hurricane" in out

    def test_export_command(self, tmp_path, capsys):
        out_dir = tmp_path / "exported"
        assert main(
            ["export", "qmcpack-1", "spin0", "--out", str(out_dir)]
        ) == 0
        capsys.readouterr()
        files = list(out_dir.glob("*.npy"))
        assert len(files) == 1
        data = np.load(files[0])
        assert data.ndim == 4

    def test_error_paths_return_nonzero(self, npy_files, capsys):
        _, test_path, root = npy_files
        bogus_model = str(root / "missing.npz")
        np.savez(bogus_model, junk=np.arange(3))
        code = main(
            ["estimate", test_path, "--model", bogus_model, "--ratio", "5"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.runtime
class TestRuntimeTeardown:
    """A failing subcommand must not leak workers or shared memory.

    The pre-runtime CLI built its ParallelExecutor per subcommand with
    no teardown path: an exception between pool creation and the end of
    the command left worker processes (and any shared-memory segments a
    map was using) alive. main() now funnels every command through one
    RuntimeContext whose close() runs in a finally, so failure paths
    tear down exactly like successes.
    """

    @staticmethod
    def _shm_segments():
        import pathlib

        shm = pathlib.Path("/dev/shm")
        if not shm.is_dir():  # pragma: no cover - non-Linux fallback
            return set()
        return {p.name for p in shm.glob("psm_*")}

    def test_failing_command_tears_down_runtime(self, npy_files, capsys):
        import multiprocessing

        from repro import cli
        from repro.errors import InvalidConfiguration

        _, test_path, root = npy_files
        bogus_model = str(root / "leak-model.npz")
        np.savez(bogus_model, junk=np.arange(3))
        before = self._shm_segments()
        code = main(
            ["estimate", test_path, "--model", bogus_model, "--ratio", "5",
             "--jobs", "2"]
        )
        capsys.readouterr()
        assert code == 2
        ctx = cli._LAST_CONTEXT
        assert ctx is not None and ctx.closed
        # The pool the context would have used is gone, not orphaned.
        assert multiprocessing.active_children() == []
        assert self._shm_segments() <= before
        # And the context refuses to hand out resources post-mortem.
        with pytest.raises(InvalidConfiguration, match="closed RuntimeContext"):
            ctx.executor

    def test_unresolvable_runtime_config_is_a_usage_error(
        self, monkeypatch, capsys
    ):
        from repro import cli

        monkeypatch.setenv("REPRO_BACKEND", "mpi")
        assert main(["datasets"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: backend must be one of")
        assert "Traceback" not in err
        # No context was built, so none is left to tear down.
        assert cli._LAST_CONTEXT is None

    def test_successful_parallel_command_tears_down(self, npy_files, capsys):
        import multiprocessing

        from repro import cli

        _, test_path, _ = npy_files
        before = self._shm_segments()
        assert main(
            ["search", test_path, "--ratio", "5", "--iterations", "6",
             "--jobs", "2"]
        ) == 0
        capsys.readouterr()
        ctx = cli._LAST_CONTEXT
        assert ctx is not None and ctx.closed
        executor = ctx._executor
        from repro.parallel.executor import available_cpus

        if available_cpus() > 1:
            assert executor is not None and executor.closed
        else:
            # The auto backend clamps --jobs to the CPUs actually
            # available: on a 1-CPU host the context never builds a
            # pool, so there is nothing to tear down.
            assert executor is None
        assert multiprocessing.active_children() == []
        assert self._shm_segments() <= before


@pytest.mark.obs
class TestObservabilityFlags:
    @pytest.fixture(scope="class")
    def model(self, npy_files):
        train_paths, _, root = npy_files
        model = str(root / "obs-model.npz")
        assert main(
            ["train", *train_paths, "--model", model,
             "--stationary-points", "8", "--augmented-samples", "50"]
        ) == 0
        return model

    def test_estimate_trace_and_metrics(self, npy_files, model, tmp_path, capsys):
        from repro import obs

        _, test_path, _ = npy_files
        trace = str(tmp_path / "trace.jsonl")
        metrics = str(tmp_path / "metrics.txt")
        assert main(
            ["estimate", test_path, "--model", model, "--ratio", "6",
             "--trace", trace, "--metrics", metrics]
        ) == 0
        captured = capsys.readouterr()
        assert "estimated config" in captured.out
        assert f"wrote" in captured.err and trace in captured.err
        # main() must restore the disabled state for in-process callers.
        assert obs.get_tracer() is None and obs.get_registry() is None

        spans = obs.load_trace(trace)
        names = {s.name for s in spans}
        for phase in (
            "cli.estimate",
            "inference.estimate",
            "inference.analyze",
            "inference.validate",
            "features.extract",
            "inference.confidence",
            "inference.tier",
        ):
            assert phase in names
        # Every phase hangs off the single command-root span.
        [root_span] = [s for s in spans if s.parent_id is None]
        assert root_span.name == "cli.estimate"

        text = pathlib.Path(metrics).read_text()
        assert "repro_guarded_tier_total" in text

    def test_obs_report_renders_cost_tree(self, npy_files, model, tmp_path, capsys):
        _, test_path, _ = npy_files
        trace = str(tmp_path / "report-trace.jsonl")
        assert main(
            ["estimate", test_path, "--model", model, "--ratio", "6",
             "--trace", trace]
        ) == 0
        capsys.readouterr()
        assert main(["obs-report", trace]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "wall" in out
        assert "cli.estimate" in out
        assert "features.extract" in out

    def test_obs_top_on_in_process_service(self, model, capsys):
        from repro.core.persistence import load_pipeline
        from repro.runtime import RuntimeContext
        from repro.serving import EstimationService

        pipeline = load_pipeline(model)
        with RuntimeContext(
            env={}, scrape_port=0
        ) as ctx, EstimationService.for_pipeline(
            pipeline, ctx=ctx, workers=1
        ) as service:
            assert main(
                ["obs-top", service.scrape_url, "--iterations", "1"]
            ) == 0
        out = capsys.readouterr().out
        assert "[1/1] healthy=True lane in-process" in out
        assert "shards" not in out
        for name in ("availability", "latency_p99"):
            assert f"slo {name}" in out

    def test_trace_flag_on_search(self, npy_files, tmp_path, capsys):
        from repro import obs

        _, test_path, _ = npy_files
        trace = str(tmp_path / "search-trace.jsonl")
        metrics = str(tmp_path / "search-metrics.txt")
        assert main(
            ["search", test_path, "--ratio", "5", "--iterations", "6",
             "--trace", trace, "--metrics", metrics]
        ) == 0
        capsys.readouterr()
        names = {s.name for s in obs.load_trace(trace)}
        assert "fraz.search" in names and "fraz.probe" in names
        text = pathlib.Path(metrics).read_text()
        assert "repro_fraz_searches_total 1" in text
        assert 'repro_fraz_probes_total{source="run"}' in text

    def test_train_trace_records_profiled_fit(self, npy_files, tmp_path, capsys):
        from repro import obs

        train_paths, _, _ = npy_files
        model = str(tmp_path / "m.npz")
        trace = str(tmp_path / "train-trace.jsonl")
        assert main(
            ["train", *train_paths, "--model", model,
             "--stationary-points", "6", "--augmented-samples", "40",
             "--trace", trace]
        ) == 0
        capsys.readouterr()
        spans = obs.load_trace(trace)
        [fit] = [s for s in spans if s.name == "training.fit"]
        assert fit.attributes["n_datasets"] == 2
        assert "rss_after_bytes" in fit.attributes
        assert any(s.name == "augmentation.build_curve" for s in spans)
        assert any(s.name == "compressor.compress" for s in spans)
