"""Ablation — the accuracy/cost frontier between FXRZ and FRaZ.

An extension beyond the paper ("we plan to further improve the
accuracy by exploring other optimization strategies"): FXRZ can spend
1-2 extra compressions re-querying its own model with a miss-corrected
target. This bench maps the frontier: compressor runs spent per
request vs mean estimation error, from pure FXRZ (1 run: the final
compression itself) through refined FXRZ to FRaZ-6/15.
"""

import numpy as np

from conftest import BENCH_CONFIG
from repro.baselines.fraz import FRaZ
from repro.experiments.corpus import held_out_snapshots
from repro.experiments.harness import get_trained_fxrz, target_ratio_grid
from repro.experiments.tables import render_table
from repro.runtime import RuntimeContext

_CASES = (("hurricane", "TC", "sz"), ("nyx", "baryon_density", "sz"))


def test_ablation_refinement_frontier(benchmark, report):
    rows = []
    frontier = {}
    for refinements in (0, 1, 2):
        errors = []
        runs = []
        for app, field, comp_name in _CASES:
            pipeline = get_trained_fxrz(app, field, comp_name, config=BENCH_CONFIG)
            snapshot = held_out_snapshots(app, field)[0]
            for tcr in target_ratio_grid(pipeline.compressor, snapshot, 5):
                result = pipeline.compress_to_ratio(
                    snapshot.data, float(tcr), max_refinements=refinements
                )
                errors.append(result.estimation_error)
                runs.append(result.compressions)
        frontier[f"fxrz+{refinements}"] = (
            float(np.mean(runs)),
            float(np.mean(errors)),
        )

    for budget in (6, 15):
        errors = []
        for app, field, comp_name in _CASES:
            pipeline = get_trained_fxrz(app, field, comp_name, config=BENCH_CONFIG)
            snapshot = held_out_snapshots(app, field)[0]
            # One memo per field: the searches share its compressor runs.
            with RuntimeContext(env={}) as ctx:
                for tcr in target_ratio_grid(pipeline.compressor, snapshot, 5):
                    outcome = FRaZ(
                        pipeline.compressor, max_iterations=budget, ctx=ctx
                    ).search(snapshot.data, float(tcr))
                    errors.append(outcome.estimation_error)
        # FRaZ's final compression at the chosen config is one more run.
        frontier[f"fraz-{budget}"] = (budget + 1.0, float(np.mean(errors)))

    for name, (runs, err) in frontier.items():
        rows.append([name, f"{runs:.1f}", f"{err:.1%}"])

    pipeline = get_trained_fxrz("hurricane", "TC", "sz", config=BENCH_CONFIG)
    snapshot = held_out_snapshots("hurricane", "TC")[0]
    benchmark.pedantic(
        lambda: pipeline.compress_to_ratio(snapshot.data, 15.0, max_refinements=1),
        rounds=2,
        iterations=1,
    )

    report(
        render_table(
            ["strategy", "mean compressor runs", "mean estimation error"],
            rows,
            title="Ablation - accuracy vs compressor-run cost frontier",
        )
    )

    # Refinement must trade runs for accuracy monotonically-ish, and
    # refined FXRZ must dominate FRaZ-6 (fewer runs AND lower error).
    assert frontier["fxrz+1"][1] <= frontier["fxrz+0"][1] + 1e-9
    assert frontier["fxrz+2"][0] < frontier["fraz-6"][0]
    assert frontier["fxrz+2"][1] < frontier["fraz-6"][1]
