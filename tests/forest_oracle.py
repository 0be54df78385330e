"""Plain forest formulations the optimised paths must match bit for bit.

Inference: :func:`repro.ml.forest.tree_mean` averages a forest's
per-tree predictions with one accumulate, and the guarded ladder
answers its model rung from the per-tree predictions its confidence
step already made. The oracle adds each tree's row into a zeroed
total, and lets the model rung ask the forest again for the row it was
just scored on.

Fitting: :meth:`repro.ml.forest.RandomForestRegressor.fit` grows groups
of trees together in one level loop. :func:`per_tree_fit` grows them
one after another, each with its own ``DecisionTreeRegressor.fit``.
"""

from __future__ import annotations

import numpy as np

from repro.ml.tree import DecisionTreeRegressor
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


def per_tree_fit(forest, features, targets) -> list[DecisionTreeRegressor]:
    """The trees ``forest.fit(features, targets)`` must grow, one at a time.

    Each tree's seed and bootstrap rows are drawn from the master
    generator just before the tree is grown.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    n = features.shape[0]
    max_features = forest._resolve_max_features(features.shape[1])
    rng = np.random.default_rng(forest.random_state)
    trees = []
    for _ in range(forest.n_estimators):
        seed = int(rng.integers(0, 2**31 - 1))
        idx = rng.integers(0, n, size=n) if forest.bootstrap else np.arange(n)
        tree = DecisionTreeRegressor(
            max_depth=forest.max_depth,
            min_samples_leaf=forest.min_samples_leaf,
            max_features=max_features,
            random_state=seed,
        )
        trees.append(tree.fit(features[idx], targets[idx]))
    return trees
