"""Random Forest regression — the model FXRZ adopts (Sec. IV-D).

Bootstrap-aggregated CART trees with per-split feature subsampling.
The paper selects RFR because "it has the special ability to correct
overfitting problem by building lots of trees"; Table III shows it
beats AdaBoost and SVR on estimation error.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import InvalidConfiguration, NotFittedError
from repro.ml.tree import _NO_CHILD, DecisionTreeRegressor

#: Rows per packed pass; bounds the ``(n_trees, rows)`` index scratch.
_CHUNK_ROWS = 4096


class _PackedForest(NamedTuple):
    """Every tree of a forest in one flat node table.

    Node indices are offset per tree and ``roots`` holds each tree's
    root. Leaves point to themselves with feature 0 and threshold 0,
    so ``depth`` rounds of descent leave every row at its leaf without
    a branch.
    """

    roots: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    depth: int
    n_features: int


def _pack(trees: list[DecisionTreeRegressor]) -> _PackedForest:
    """Concatenate the trees' node arrays into one :class:`_PackedForest`."""
    nodes = [tree._nodes for tree in trees]
    sizes = np.array([n["value"].size for n in nodes], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    roots = offsets[:-1]

    def column(key, dtype):
        return np.concatenate([np.asarray(n[key], dtype=dtype) for n in nodes])

    feature = column("feature", np.int64)
    leaf = feature == _NO_CHILD
    shift = np.repeat(roots, sizes)
    self_index = np.arange(offsets[-1], dtype=np.int64)
    left = np.where(leaf, self_index, column("left", np.int64) + shift)
    right = np.where(leaf, self_index, column("right", np.int64) + shift)
    # Depth of the deepest tree: walk all trees' frontiers level by level.
    depth = 0
    frontier = roots[~leaf[roots]]
    while frontier.size:
        depth += 1
        frontier = np.concatenate((left[frontier], right[frontier]))
        frontier = frontier[~leaf[frontier]]
    return _PackedForest(
        roots=roots,
        feature=np.where(leaf, 0, feature),
        threshold=np.where(leaf, 0.0, column("threshold", np.float64)),
        left=left,
        right=right,
        value=column("value", np.float64),
        depth=depth,
        n_features=int(feature.max()) + 1,
    )


def _fit_tree_task(task, arrays: dict, context: dict) -> DecisionTreeRegressor:
    """Fit one tree on its bootstrap rows (executor worker)."""
    seed, idx = task
    tree = DecisionTreeRegressor(
        max_depth=context["max_depth"],
        min_samples_leaf=context["min_samples_leaf"],
        max_features=context["max_features"],
        random_state=seed,
    )
    tree.fit(arrays["x"][idx], arrays["y"][idx])
    return tree


class RandomForestRegressor:
    """Bagged ensemble of :class:`DecisionTreeRegressor`.

    Args:
        n_estimators: number of trees.
        max_depth: per-tree depth cap.
        min_samples_leaf: per-tree leaf size floor.
        max_features: features per split; ``None`` -> d, ``"sqrt"`` ->
            ``ceil(sqrt(d))``, ``"third"`` -> ``max(1, d // 3)`` (the
            classic regression-forest default).
        bootstrap: draw each tree's sample with replacement.
        random_state: master seed; trees get derived seeds.
        n_jobs: default worker count for :meth:`fit` (``None``/1 =
            serial; tree fitting is pure-python and GIL-bound, so
            parallel runs use a process pool).
    """

    def __init__(
        self,
        n_estimators: int = 100,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: int | str | None = "third",
        bootstrap: bool = True,
        random_state: int | None = None,
        n_jobs: int | None = None,
    ) -> None:
        if n_estimators < 1:
            raise InvalidConfiguration("n_estimators must be >= 1")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.random_state = random_state
        self.n_jobs = n_jobs
        self._trees: list[DecisionTreeRegressor] | None = None
        #: ``(trees, table)``: the packed table and the list it was built
        #: from; derived data, never saved.
        self._packed: tuple[list, _PackedForest] | None = None

    def _executor(self, n_jobs: int | None):
        """The executor for one call: ``n_jobs`` overrides the instance."""
        if n_jobs is None:
            n_jobs = self.n_jobs
        if n_jobs is None or n_jobs == 1:
            return None
        from repro.parallel.executor import ParallelExecutor

        executor = ParallelExecutor(n_jobs=n_jobs, backend="process")
        return executor if executor.backend != "serial" else None

    def _resolve_max_features(self, n_features: int) -> int | None:
        if self.max_features is None:
            return None
        if self.max_features == "sqrt":
            return max(1, int(np.ceil(np.sqrt(n_features))))
        if self.max_features == "third":
            return max(1, n_features // 3)
        if isinstance(self.max_features, int):
            if self.max_features < 1:
                raise InvalidConfiguration("max_features must be >= 1")
            return min(self.max_features, n_features)
        raise InvalidConfiguration(f"bad max_features {self.max_features!r}")

    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        n_jobs: int | None = None,
    ) -> "RandomForestRegressor":
        """Fit ``n_estimators`` trees on bootstrap resamples.

        With ``n_jobs > 1`` the trees are fitted on a process pool. The
        per-tree seeds and bootstrap rows are drawn serially from the
        master generator first (the draws are cheap; the tree fits are
        not), so the resulting forest is bit-identical at any worker
        count.
        """
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if features.ndim != 2 or targets.shape != (features.shape[0],):
            raise InvalidConfiguration("bad training data shapes")
        n = features.shape[0]
        max_features = self._resolve_max_features(features.shape[1])
        rng = np.random.default_rng(self.random_state)
        tasks: list[tuple[int, np.ndarray]] = []
        for _ in range(self.n_estimators):
            seed = int(rng.integers(0, 2**31 - 1))
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
            else:
                idx = np.arange(n)
            tasks.append((seed, idx))
        context = {
            "max_depth": self.max_depth,
            "min_samples_leaf": self.min_samples_leaf,
            "max_features": max_features,
        }
        executor = self._executor(n_jobs)
        if executor is not None:
            trees = executor.map(
                _fit_tree_task,
                tasks,
                shared={"x": features, "y": targets},
                context=context,
            )
        else:
            arrays = {"x": features, "y": targets}
            trees = [_fit_tree_task(task, arrays, context) for task in tasks]
        self._trees = trees
        return self

    def _table(self) -> _PackedForest:
        """The packed node table of the current ``_trees`` list.

        Built on first use after every reassignment of ``_trees`` (by
        :meth:`fit` or by the archive loader) and published with one
        tuple assignment, so concurrent queries see either the old pair
        or the new one, never a half-built table. Concurrent first
        queries may each build it; the builds are identical.
        """
        trees = self._trees
        if trees is None:
            raise NotFittedError("RandomForestRegressor is not fitted")
        packed = self._packed
        if packed is None or packed[0] is not trees:
            packed = (trees, _pack(trees))
            self._packed = packed
        return packed[1]

    def tree_predictions(self, features: np.ndarray) -> np.ndarray:
        """Per-tree predictions, shape ``(n_trees, n_rows)``.

        One branch-free pass over the packed table: every level of
        descent is a handful of gathers across all trees x rows. Row
        ``t`` equals ``estimators_[t].predict(features)`` bit for bit,
        NaN features included (they fail ``x <= threshold`` and go
        right in both).
        """
        table = self._table()
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        n_rows, n_features = features.shape
        if n_features < table.n_features:
            raise InvalidConfiguration(
                f"query rows have {n_features} features, the forest splits "
                f"on {table.n_features}"
            )
        flat = features.ravel()
        out = np.empty((table.roots.size, n_rows), dtype=np.float64)
        for lo in range(0, n_rows, _CHUNK_ROWS):
            hi = min(lo + _CHUNK_ROWS, n_rows)
            row_base = np.arange(lo, hi) * n_features
            cur = np.repeat(table.roots[:, None], hi - lo, axis=1)
            for _ in range(table.depth):
                x = flat[row_base + table.feature[cur]]
                cur = np.where(
                    x <= table.threshold[cur], table.left[cur], table.right[cur]
                )
            out[:, lo:hi] = table.value[cur]
        return out

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Average of the per-tree predictions.

        The rows of :meth:`tree_predictions` are added in tree order
        into a zeroed total, so the mean is bit-identical to summing
        each tree's own ``predict``.
        """
        per_tree = self.tree_predictions(features)
        total = np.zeros(per_tree.shape[1], dtype=np.float64)
        for prediction in per_tree:
            total += prediction
        return total / per_tree.shape[0]

    @property
    def estimators_(self) -> list[DecisionTreeRegressor]:
        """The fitted trees."""
        if self._trees is None:
            raise NotFittedError("RandomForestRegressor is not fitted")
        return list(self._trees)
