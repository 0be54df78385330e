"""Online learning loop — logging overhead and canary gain.

Two guards on the serve→observe→retrain→promote loop:

* **Logging overhead** — serving with an :class:`OutcomeLog` attached
  must cost at most 3% wall time over serving without one (best-of-3
  per arm; the log is one buffered JSON line per request).
* **Canary gain** — after a synchronous retrain on a drifted
  workload's logged outcomes and the canary's promotion, the median
  relative CR error on fresh drifted estimates must be lower than the
  frozen incumbent's (measured with real compressor runs — not just
  the canary's replay).

Results land in the repo-root ``BENCH_online_learning.json``.
"""

import json
import pathlib
import time

import numpy as np

from conftest import BENCH_CONFIG
from repro.experiments.corpus import held_out_snapshots
from repro.experiments.harness import get_trained_fxrz
from repro.experiments.tables import render_table
from repro.lifecycle import (
    OutcomeLog,
    OutcomeRecord,
    read_outcomes,
    retrain,
)
from repro.runtime import RuntimeContext
from repro.serving import LATEST, ModelRegistry

_LEARNING_JSON = (
    pathlib.Path(__file__).resolve().parents[1] / "BENCH_online_learning.json"
)


def _merge_json(update: dict) -> None:
    """Merge ``update`` so either phase can run alone without clobbering."""
    existing: dict = {}
    if _LEARNING_JSON.is_file():
        try:
            existing = json.loads(_LEARNING_JSON.read_text())
        except ValueError:
            existing = {}
    if not isinstance(existing, dict):
        existing = {}
    existing.update(update)
    _LEARNING_JSON.write_text(json.dumps(existing, indent=2) + "\n")


def _noisy_fields(n: int, side: int = 24, seed: int = 23) -> list[np.ndarray]:
    """A drifted workload: pure noise, nothing like the training corpus."""
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal((side,) * 3).astype(np.float32) for _ in range(n)
    ]


def _measured_records(pipeline, fields, targets) -> list[OutcomeRecord]:
    compressor = pipeline.compressor
    records = []
    for i, field in enumerate(fields):
        for target in targets:
            estimate = pipeline.estimate_config(field, target)
            measured = compressor.compression_ratio(field, estimate.config)
            records.append(
                OutcomeRecord.from_estimate(
                    estimate,
                    dataset_key=f"drift-{i}",
                    compressor=compressor.name,
                    measured_ratio=measured,
                    source="bench",
                )
            )
    return records


def test_logging_overhead(report, tmp_path):
    pipeline = get_trained_fxrz("hurricane", "TC", "sz", config=BENCH_CONFIG)
    snapshot = held_out_snapshots("hurricane", "TC")[0]
    lo, hi = pipeline.trained_ratio_range(snapshot.data)
    rounds = 4
    targets = np.linspace(lo * 1.05, hi * 0.95, 24)

    for target in targets:  # warm the analysis path before timing
        pipeline.estimate_config(snapshot.data, float(target))
    # Wall time drifts several percent over seconds on a shared host,
    # so differencing a logged arm against a bare arm cannot resolve a
    # sub-3% effect (the logging call is ~25us against a ~3ms
    # estimate). Time the logging *in situ* instead: inside the serving
    # loop, split each request into its estimate and its record, and
    # charge the log exactly the wall time its call consumed.
    serve_seconds = 0.0
    logging_seconds = 0.0
    with OutcomeLog(tmp_path / "outcomes.jsonl") as log:
        for _ in range(rounds):
            for target in targets:
                tick = time.perf_counter()
                estimate = pipeline.estimate_config(
                    snapshot.data, float(target)
                )
                mid = time.perf_counter()
                log.record_estimate(
                    estimate,
                    dataset_key=snapshot.name,
                    compressor="sz",
                    source="bench",
                )
                logging_seconds += time.perf_counter() - mid
                serve_seconds += mid - tick
        records_written = log.records_written
    per_record = logging_seconds / records_written
    overhead = 1.0 + logging_seconds / serve_seconds

    report(
        render_table(
            ["metric", "value"],
            [
                ["requests", str(records_written)],
                ["serving time", f"{serve_seconds * 1e3:.1f} ms"],
                ["logging time", f"{logging_seconds * 1e3:.1f} ms"],
                ["logging per record", f"{per_record * 1e6:.1f} us"],
                ["overhead ratio", f"{overhead:.4f}"],
            ],
            title="Outcome logging overhead - one JSON line per request",
        )
    )
    _merge_json(
        {
            "logging_overhead": {
                "requests": int(records_written),
                "serving_seconds": serve_seconds,
                "logging_seconds": logging_seconds,
                "logging_seconds_per_record": per_record,
                "overhead_ratio": overhead,
                "guard": "overhead_ratio <= 1.03",
            }
        }
    )
    assert records_written == rounds * len(targets)
    assert overhead <= 1.03, (
        f"outcome logging cost {overhead:.1%} of serving time (limit 3%)"
    )


def test_drift_retrain_canary(report, tmp_path):
    pipeline = get_trained_fxrz("hurricane", "TC", "sz", config=BENCH_CONFIG)
    registry = ModelRegistry(tmp_path / "reg")
    incumbent = registry.publish(pipeline)

    # -- log a drifted workload's measured outcomes ------------------------
    log_path = tmp_path / "outcomes.jsonl"
    with OutcomeLog(log_path) as log:
        for record in _measured_records(
            pipeline, _noisy_fields(8), (5.0, 8.0, 11.0)
        ):
            log.record(record)
    replay = read_outcomes(log_path)

    # -- retrain from the replay; fits land in executor workers ------------
    with RuntimeContext(env={}, jobs=2) as ctx:
        result = retrain(
            registry,
            "sz",
            replay.records,
            canary_fraction=0.25,
            oversample=4,
            n_candidates=2,
            ctx=ctx,
        )

    # -- before/after estimation error on fresh drifted estimates ----------
    assert result.report.promote, result.report.reason
    assert result.promoted is not None
    frozen = registry.load("sz", incumbent.fingerprint, incumbent.version)
    promoted = registry.load("sz", None, LATEST)
    probes = _noisy_fields(6, seed=97)

    def median_error(serving) -> float:
        errors = []
        for field in probes:
            for target in (6.0, 9.0):
                estimate = serving.estimate_config(field, target)
                measured = serving.compressor.compression_ratio(
                    field, estimate.config
                )
                errors.append(abs(measured - target) / target)
        return float(np.median(errors))

    error_before = median_error(frozen)
    error_after = median_error(promoted)

    report(
        render_table(
            ["metric", "value"],
            [
                ["outcome records", str(len(replay.records))],
                ["retrain wall", f"{result.seconds:.2f} s"],
                ["canary verdict", result.report.reason],
                ["median rel CR error before", f"{error_before:.2%}"],
                ["median rel CR error after", f"{error_after:.2%}"],
            ],
            title="Online retrain - synchronous, canary-promoted",
        )
    )
    _merge_json(
        {
            "online_retrain": {
                "outcome_records": len(replay.records),
                "retrain_seconds": result.seconds,
                "promoted_version": result.promoted.version,
                "canary_incumbent_error": result.report.incumbent_error,
                "canary_candidate_error": result.report.candidate_error,
                "median_error_before": error_before,
                "median_error_after": error_after,
                "guard": "median_error_after < median_error_before",
            }
        }
    )
    assert error_after < error_before, (
        "the promoted model must serve the drifted workload better than "
        "the frozen incumbent"
    )
