"""Fig. 14 — robustness across application scopes.

Trains FXRZ on a corpus mixing *all four* applications and tests on
RTM-BigScale (whose precision and scale differ from every training
dataset). The paper reports FXRZ keeping low errors (6.76-19.81 %)
despite the mixed-scope training; the bench asserts FXRZ stays
accurate and competitive with FRaZ under the same conditions.
"""

import numpy as np

from conftest import BENCH_CONFIG
from repro.baselines.fraz import FRaZ
from repro.compressors import get_compressor
from repro.core.pipeline import FXRZ
from repro.experiments.corpus import cross_scope_corpus
from repro.experiments.harness import target_ratio_grid
from repro.experiments.tables import render_table
from repro.runtime import RuntimeContext

_COMPRESSORS = ("sz", "zfp", "mgard", "fpzip")


def test_fig14_cross_scope_training(benchmark, report):
    train, test = cross_scope_corpus()
    snapshot = test[-1]

    rows = []
    fxrz_errors = {}
    fraz_errors = {}
    for comp_name in _COMPRESSORS:
        comp = get_compressor(comp_name)
        pipeline = FXRZ(comp, config=BENCH_CONFIG)
        pipeline.fit(train)
        targets = target_ratio_grid(comp, snapshot, 5)
        # Same request discipline as the harness: stay inside the
        # mixed-scope model's trained span.
        lo_t, hi_t = pipeline.trained_ratio_range(snapshot.data)
        lo = max(float(targets[0]), lo_t)
        hi = min(float(targets[-1]), hi_t * 0.95)
        if hi <= lo:
            hi = lo * 1.5
        targets = np.linspace(lo, hi, 5)
        fx, fr = [], []
        with RuntimeContext(env={}) as ctx:
            for tcr in targets:
                result = pipeline.compress_to_ratio(snapshot.data, float(tcr))
                fx.append(result.estimation_error)
                outcome = FRaZ(comp, max_iterations=15, ctx=ctx).search(
                    snapshot.data, float(tcr)
                )
                fr.append(outcome.estimation_error)
        fxrz_errors[comp_name] = float(np.mean(fx))
        fraz_errors[comp_name] = float(np.mean(fr))
        rows.append(
            [
                comp_name,
                f"{fxrz_errors[comp_name]:.1%}",
                f"{fraz_errors[comp_name]:.1%}",
            ]
        )

    benchmark(lambda: pipeline.estimate_config(snapshot.data, 10.0))

    report(
        render_table(
            ["compressor", "FXRZ (mixed-scope training)", "FRaZ-15"],
            rows,
            title=(
                "Fig. 14 - train on all applications, test on RTM-Big "
                "(paper: FXRZ 6.76-19.81%)"
            ),
        )
    )

    # Shape assertions: mixed-scope training still yields usable
    # accuracy, and FXRZ stays competitive with the 15-iteration search.
    assert float(np.mean(list(fxrz_errors.values()))) < 0.45
    assert float(np.mean(list(fxrz_errors.values()))) < float(
        np.mean(list(fraz_errors.values()))
    ) + 0.10
