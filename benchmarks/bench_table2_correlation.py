"""Table II — correlation between features and compression ratio.

For each compressor, compression ratios are collected across many
(dataset, error bound) pairs; each candidate feature's |Pearson r|
against the ratios is averaged over error bounds. The paper's
conclusion to reproduce: the five adopted features correlate well and
the gradient features correlate worst (hence their exclusion).
"""

import numpy as np

from repro.compressors import get_compressor
from repro.core.features import (
    FEATURE_NAMES,
    extract_features,
    gradient_features,
)
from repro.datasets import load_series
from repro.experiments.tables import render_table
from repro.ml.metrics import pearson_correlation

_SNAPSHOT_SOURCES = (
    ("nyx-1", "baryon_density"),
    ("nyx-1", "temperature"),
    ("rtm-small", "pressure"),
    ("hurricane", "TC"),
    ("hurricane", "QCLOUD"),
)

_SELECTED = ("value_range", "mean_value", "mnd", "mld", "msd")
_GRADIENTS = ("mean_gradient", "min_gradient", "max_gradient")


def _collect(comp_name: str):
    """|r(feature, log CR)| averaged over relative error bounds."""
    snapshots = []
    for name, field in _SNAPSHOT_SOURCES:
        series = load_series(name, field)
        snapshots.extend(snap.data for snap in list(series)[:3])
    # Columns in FEATURE_NAMES order: the five adopted, then the trio.
    features = np.array(
        [
            np.concatenate(
                (
                    extract_features(d, stride=4).selected(),
                    gradient_features(d, stride=4),
                )
            )
            for d in snapshots
        ]
    )
    comp = get_compressor(comp_name)
    correlations = []
    for rel_eb in (1e-4, 1e-3, 1e-2):
        ratios = []
        for data in snapshots:
            if comp.error_mode == "abs":
                config = max(rel_eb * float(np.ptp(data)), 1e-12)
            else:
                config = {1e-4: 24, 1e-3: 18, 1e-2: 12}[rel_eb]
            ratios.append(comp.compression_ratio(data, config))
        log_ratios = np.log(ratios)
        row = [
            abs(pearson_correlation(np.log1p(np.abs(features[:, i])), log_ratios))
            for i in range(len(FEATURE_NAMES))
        ]
        correlations.append(row)
    return np.mean(correlations, axis=0)


def test_table2_feature_correlations(benchmark, report):
    rows = []
    table = {}
    for comp_name in ("sz", "zfp", "mgard", "fpzip"):
        avg = _collect(comp_name)
        table[comp_name] = dict(zip(FEATURE_NAMES, avg))
        rows.append([comp_name] + [f"{v:.2f}" for v in avg])

    benchmark(lambda: pearson_correlation(np.arange(50.0), np.arange(50.0) ** 2))

    report(
        render_table(
            ["comp"] + list(FEATURE_NAMES),
            rows,
            title="Table II - avg |Pearson r| between features and log CR",
        )
    )

    # Shape assertion: averaged over compressors, the adopted features
    # out-correlate the gradient features (the paper's Table II story).
    adopted = np.mean(
        [[table[c][f] for f in _SELECTED] for c in table]
    )
    gradients = np.mean(
        [[table[c][f] for f in _GRADIENTS] for c in table]
    )
    assert adopted > gradients, (
        f"adopted features ({adopted:.2f}) must beat gradients ({gradients:.2f})"
    )
