"""Ablation — do the five adopted features earn their keep end-to-end?

Table II justified the feature choice by correlation; this ablation
closes the loop on the actual task: FXRZ is trained with (a) the five
adopted features, (b) only the three gradient features the paper
rejected, and (c) only the target-ratio column (no data features at
all), and compared on held-out estimation error.
"""

import numpy as np

from conftest import BENCH_CONFIG
from repro.compressors import get_compressor
from repro.core.adjustment import adjusted_ratio, nonconstant_fraction
from repro.core.augmentation import build_curve
from repro.core.features import extract_features, gradient_features
from repro.experiments.corpus import held_out_snapshots, training_arrays
from repro.experiments.harness import target_ratio_grid
from repro.experiments.tables import render_table
from repro.ml.forest import RandomForestRegressor

_VARIANTS = {
    "adopted-5": lambda d: extract_features(d, stride=4).selected(),
    "gradients-3": lambda d: np.array(gradient_features(d, stride=4)),
    "ratio-only": lambda d: np.zeros(0),
}

_CASES = (("hurricane", "TC", "sz"), ("nyx", "baryon_density", "sz"))


def _run_variant(comp, train, snapshot, feature_fn):
    """A minimal FXRZ loop with a pluggable feature vector."""
    rows, targets_y = [], []
    for data in train:
        features = feature_fn(data)
        r = nonconstant_fraction(data)
        curve = build_curve(comp, data, n_points=BENCH_CONFIG.stationary_points)
        ratios, configs = curve.sample(BENCH_CONFIG.augmented_samples, seed=1)
        for ratio, config in zip(ratios, configs):
            rows.append(
                np.concatenate((features, [adjusted_ratio(float(ratio), r)]))
            )
            targets_y.append(np.log10(config))
    model = RandomForestRegressor(
        n_estimators=40, min_samples_leaf=2, max_features=None, random_state=0
    )
    model.fit(np.vstack(rows), np.array(targets_y))

    test_features = feature_fn(snapshot.data)
    r = nonconstant_fraction(snapshot.data)
    errors = []
    for tcr in target_ratio_grid(comp, snapshot, 5):
        row = np.concatenate(
            (test_features, [adjusted_ratio(float(tcr), r)])
        )[None, :]
        config = comp.normalize_config(10.0 ** float(model.predict(row)[0]))
        measured = comp.compression_ratio(snapshot.data, config)
        errors.append(abs(measured - tcr) / tcr)
    return float(np.mean(errors))


def test_ablation_feature_sets(benchmark, report):
    rows = []
    means = {name: [] for name in _VARIANTS}
    for app, field, comp_name in _CASES:
        comp = get_compressor(comp_name)
        train = training_arrays(app, field)
        snapshot = held_out_snapshots(app, field)[0]
        errs = {}
        for name, fn in _VARIANTS.items():
            errs[name] = _run_variant(comp, train, snapshot, fn)
            means[name].append(errs[name])
        rows.append(
            [f"{app}/{field} ({comp_name})"]
            + [f"{errs[n]:.1%}" for n in _VARIANTS]
        )
    rows.append(
        ["average"] + [f"{float(np.mean(means[n])):.1%}" for n in _VARIANTS]
    )

    data = held_out_snapshots("hurricane", "TC")[0].data
    benchmark(lambda: extract_features(data, stride=4))

    report(
        render_table(
            ["case"] + list(_VARIANTS),
            rows,
            title="Ablation - estimation error by feature set",
        )
    )

    avg = {n: float(np.mean(means[n])) for n in _VARIANTS}
    # The adopted features must not lose to either ablation on average.
    assert avg["adopted-5"] <= min(avg.values()) + 0.05
