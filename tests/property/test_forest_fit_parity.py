"""The forest's one-level-loop fit against growing its trees one by one.

``RandomForestRegressor.fit`` stacks the bootstrap samples of a group
of trees and grows them together. :func:`tests.forest_oracle.per_tree_fit`
grows the same trees one after another; every tree's five node arrays
must be byte-equal, whatever the batch and group budgets. The memory
guard pins that the fit's scratch does not grow with the tree count.
"""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from repro.core.training import default_model_factory
from repro.ml import forest as forest_module
from repro.ml import tree as tree_module
from repro.ml.forest import RandomForestRegressor

from tests.forest_oracle import per_tree_fit
from tests.property.test_tree_fit_parity import _assert_same_nodes, _fxrz_like_matrix

pytestmark = pytest.mark.kernels

_DATA_MODES = (
    "normal", "ties", "non-finite", "constant", "tiny", "one-row", "two-rows", "fxrz"
)


def _data(mode: str, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """One seeded training matrix of the given kind."""
    if mode == "fxrz":
        return _fxrz_like_matrix(seed=int(rng.integers(100)), n_datasets=3, rows=30)
    n = {"one-row": 1, "two-rows": 2}.get(mode, int(rng.choice([7, 40, 120])))
    d = int(rng.integers(1, 5))
    x = rng.standard_normal((n, d))
    y = x[:, 0] + 0.1 * rng.standard_normal(n)
    if mode == "ties":
        x = np.round(x * 2) / 2
        y = np.round(y)
    elif mode == "non-finite":
        cells = rng.choice(x.size, size=max(1, x.size // 6), replace=False)
        x.flat[cells] = rng.choice([np.nan, np.inf, -np.inf], size=cells.size)
    elif mode == "constant":
        y = np.full(n, -1.5)
    elif mode == "tiny":
        y = 3.25 + 1e-7 * rng.standard_normal(n)  # gains under 1e-12
    return x, y


_GRID = list(
    itertools.product((1, 2, 7, 40), (True, False), (None, 1, "sqrt", "third"))
)


def _case(index: int):
    n_estimators, bootstrap, max_features = _GRID[index]
    rng = np.random.default_rng(index)
    x, y = _data(_DATA_MODES[index % len(_DATA_MODES)], rng)
    forest = RandomForestRegressor(
        n_estimators=n_estimators,
        max_depth=[None, 1, 3, 8][index % 4],
        min_samples_leaf=[1, 2, 5][index % 3],
        max_features=max_features,
        bootstrap=bootstrap,
        random_state=int(rng.integers(2**31 - 1)),
    )
    return forest, x, y


def _assert_matches_oracle(forest, x, y):
    expected = per_tree_fit(forest, x, y)
    actual = forest.fit(x, y).estimators_
    assert len(actual) == len(expected)
    for tree, oracle in zip(actual, expected):
        assert tree.random_state == oracle.random_state
        _assert_same_nodes(tree._nodes, oracle._nodes)


@pytest.mark.parametrize("index", range(len(_GRID)))
def test_forest_fit_matches_per_tree_fits(index):
    _assert_matches_oracle(*_case(index))


@pytest.mark.parametrize("index", range(len(_GRID)))
@pytest.mark.parametrize("batch_cells, group_cells", [(64, None), (None, 1), (64, 100)])
def test_tiny_budgets_match_per_tree_fits(monkeypatch, index, batch_cells, group_cells):
    # One tree per group, or a few, and many small split batches.
    if batch_cells is not None:
        monkeypatch.setattr(tree_module, "_BATCH_CELLS", batch_cells)
    if group_cells is not None:
        monkeypatch.setattr(forest_module, "_GROUP_CELLS", group_cells)
    _assert_matches_oracle(*_case(index))


def test_groups_split_the_default_forest():
    x, y = _fxrz_like_matrix(n_datasets=6, rows=150)
    per_group = forest_module._GROUP_CELLS // x.size
    assert 1 < per_group < 9 and 9 % per_group  # several groups, the last short
    forest = default_model_factory(7)
    forest.n_estimators = 9
    _assert_matches_oracle(forest, x, y)


# -- memory -------------------------------------------------------------------------


def _fit_memory(n_estimators: int) -> tuple[float, float]:
    """(peak, peak above the fitted forest) traced bytes of one fit, in MB."""
    x, y = _fxrz_like_matrix(n_datasets=6, rows=150)
    forest = default_model_factory(7)
    forest.n_estimators = n_estimators
    tracemalloc.start()
    try:
        forest.fit(x, y)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6, (peak - kept) / 1e6


def test_fit_scratch_is_bounded_and_flat_in_tree_count():
    _fit_memory(2)  # first-call allocations of numpy and the fit path
    peak_40, scratch_40 = _fit_memory(40)
    assert peak_40 <= 4.5
    # The forest itself doubles; the scratch beside it must not grow.
    _, scratch_80 = _fit_memory(80)
    assert scratch_80 <= scratch_40 + 0.5
