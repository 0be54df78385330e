"""Cross-path differential test: one request, one answer, every path.

The same estimation request is sent through every way the system can
answer it — the plain and guarded engines called directly, the
in-process :class:`EstimationService`, its shard lane, its in-process
lane standing in for shards that cannot start, and the
``estimate-batch`` CLI with and without shards, plus the single-shot
``estimate`` command for the guarded engine — and each path must
return a bit-identical ``(config, tier)``. Targets are deliberately
non-round so that any lossy re-encoding of the objective between
layers (e.g. a ``%g``-formatted wire string) changes the answer.
"""

import json

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.compressors import get_compressor
from repro.core.inference import InferenceEngine
from repro.core.objective import PSNRTarget, RatioTarget, SSIMTarget
from repro.core.persistence import save_pipeline
from repro.runtime import RuntimeContext
from repro.serving import EstimateRequest, EstimationService

from tests.conftest import small_forest_factory

pytestmark = [pytest.mark.serving, pytest.mark.objective]

OBJECTIVES = (
    RatioTarget(7.123456789),
    RatioTarget(4.987654321),
    PSNRTarget(50.123456789),
    SSIMTarget(0.987654321),
)


def _make_fields(n: int, side: int = 20) -> list[np.ndarray]:
    rng = np.random.default_rng(31)
    lin = np.linspace(0, 4 * np.pi, side)
    x, y, _ = np.meshgrid(lin, lin, lin, indexing="ij")
    return [
        (
            np.sin(x + 0.4 * i) * np.cos(y + 0.1 * i)
            + (0.02 + 0.01 * i) * rng.standard_normal((side,) * 3)
        ).astype(np.float32)
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    fields = _make_fields(4)
    config = repro.FXRZConfig(stationary_points=8, augmented_samples=60)
    pipeline = repro.FXRZ(
        get_compressor("sz"), config=config, model_factory=small_forest_factory
    )
    pipeline.fit(fields[:3])
    root = tmp_path_factory.mktemp("cross-path")
    model = root / "model.fxrz"
    save_pipeline(pipeline, model)
    probe = root / "probe.npy"
    np.save(probe, fields[3])
    return pipeline, fields[3], root, str(model), str(probe)


def _request(data, objective) -> EstimateRequest:
    return EstimateRequest(data=data, objective=objective, dataset_id="probe")


def _service_answers(service, data) -> list[tuple[float, str]]:
    served = service.run_batch(
        [_request(data, objective) for objective in OBJECTIVES], timeout=120
    )
    return [(s.estimate.config, s.estimate.tier) for s in served]


def _cli_answers(root, model, probe, engine, shards) -> list[tuple[float, str]]:
    requests = root / f"requests-{engine}-{shards}.jsonl"
    lines = []
    for n, objective in enumerate(OBJECTIVES):
        spec = {"id": f"r{n}", "input": probe}
        if isinstance(objective, RatioTarget):
            spec["ratio"] = objective.tcr
        else:
            spec["objective"] = f"{objective.kind}:{objective.value!r}"
        lines.append(json.dumps(spec))
    requests.write_text("\n".join(lines) + "\n")
    out = root / f"results-{engine}-{shards}.jsonl"
    code = main(
        [
            "estimate-batch",
            str(requests),
            "--model",
            model,
            "--engine",
            engine,
            "--shards",
            str(shards),
            "--output",
            str(out),
        ]
    )
    assert code == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return [(r["config"], r["tier"]) for r in records]


def _single_shot_answers(root, model, probe) -> list[tuple[float, str]]:
    """One ``estimate`` command per objective, read back exactly from the
    ``--outcome-log`` rows (the printed config is rounded)."""
    log = root / "single-shot.jsonl"
    flags = {
        "ratio": "--ratio",
        "psnr": "--target-psnr",
        "ssim": "--target-ssim",
    }
    for objective in OBJECTIVES:
        code = main(
            [
                "estimate",
                probe,
                "--model",
                model,
                flags[objective.kind],
                repr(objective.value),
                "--outcome-log",
                str(log),
            ]
        )
        assert code == 0
    records = [json.loads(line) for line in log.read_text().splitlines()]
    return [(r["config"], r["tier"]) for r in records]


@pytest.mark.parametrize("guarded", [False, True], ids=["plain", "guarded"])
def test_every_path_gives_the_same_answer(fitted, guarded):
    pipeline, data, root, model, probe = fitted
    if guarded:
        engine = pipeline.guarded()
    else:
        engine = InferenceEngine(
            pipeline.model, pipeline.compressor, config=pipeline.config
        )
    expected = []
    for objective in OBJECTIVES:
        estimate = engine.estimate(data, objective=objective)
        expected.append((estimate.config, estimate.tier))

    paths = {}
    with EstimationService.for_pipeline(
        pipeline, guarded=guarded, workers=2
    ) as service:
        paths["service"] = _service_answers(service, data)
    with EstimationService.for_pipeline(
        pipeline,
        guarded=guarded,
        shards=1,
        model_path=model,
        poll_interval=0.01,
    ) as service:
        paths["sharded"] = _service_answers(service, data)
    engine_name = "guarded" if guarded else "plain"
    for shards in (0, 1):
        paths[f"cli-shards-{shards}"] = _cli_answers(
            root, model, probe, engine_name, shards
        )
    if guarded:
        paths["cli-estimate"] = _single_shot_answers(root, model, probe)

    for name, answers in paths.items():
        assert answers == expected, f"{name} diverged from the engine"


def test_fallback_lane_gives_the_guarded_answer(fitted):
    """Shards that never start leave every request to the in-process
    lane, which must answer exactly as the guarded engine does."""
    pipeline, data, root, _model, _probe = fitted
    expected = []
    for objective in OBJECTIVES:
        estimate = pipeline.guarded().estimate(data, objective=objective)
        expected.append((estimate.config, estimate.tier))
    unreadable = root / "unreadable.fxrz"
    unreadable.write_bytes(b"not a model")
    with RuntimeContext(env={}, retry_attempts=1) as ctx:
        with EstimationService.for_pipeline(
            pipeline,
            ctx=ctx,
            shards=1,
            model_path=str(unreadable),
            poll_interval=0.01,
        ) as service:
            answers = _service_answers(service, data)
            stats = service.pool.stats
            states = service.pool.shard_states()
    assert answers == expected
    assert stats.fallbacks == len(OBJECTIVES)
    assert states[0]["state"] == "failed"
