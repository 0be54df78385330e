"""Two-pass forest inference: the oracle for the one-pass guarded path.

:func:`repro.ml.forest.tree_mean` averages a forest's per-tree
predictions with one accumulate, and the guarded ladder answers its
model rung from the per-tree predictions its confidence step already
made. This module keeps the plain formulation both must match bit for
bit: add each tree's row into a zeroed total, and let the model rung
ask the forest again for the row it was just scored on.
"""

from __future__ import annotations

import numpy as np

from repro.robustness.guarded import GuardedInferenceEngine


def zeroed_total_mean(per_tree: np.ndarray) -> np.ndarray:
    """The mean over axis 0, adding the rows one by one into zeros."""
    total = np.zeros(per_tree.shape[1:], dtype=np.float64)
    for prediction in per_tree:
        total += prediction
    return total / per_tree.shape[0]


def predict(model, rows: np.ndarray) -> np.ndarray:
    """The model's answer, a forest's through :func:`zeroed_total_mean`."""
    tree_predictions = getattr(model, "tree_predictions", None)
    if tree_predictions is None:
        return model.predict(rows)
    return zeroed_total_mean(tree_predictions(rows))


class TwoPassGuardedEngine(GuardedInferenceEngine):
    """The guarded ladder whose model rung makes its own forest pass."""

    def _model(self, query):
        if query.confidence < self.min_confidence:
            return super()._model(query)  # declines with the same message
        features = query.analysis.features
        row = np.concatenate((features, [query.acr]))[None, :]
        raw = float(predict(self.model, row)[0])
        if self.compressor.config_scale == "log":
            raw = 10.0**raw * max(float(features[0]), 1e-30)
        return self.compressor.normalize_config(raw), "model", None
