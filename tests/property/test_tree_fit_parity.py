"""Level-wise CART fit against the depth-first reference, bit for bit.

``DecisionTreeRegressor.fit`` grows a tree one level at a time. The
depth-first fit it replaced is kept below as the oracle: it pops one
node at a time and searches each feature with its own argsort and
cumsums. Both must produce the same five node arrays, node order
included, so saved archives and every prediction stay byte-identical.
The pinned digests were recorded with the depth-first fit.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

import repro
from repro.compressors import get_compressor
from repro.core.persistence import save_pipeline
from repro.core.training import default_model_factory
from repro.ml.forest import RandomForestRegressor
from repro.ml import tree as tree_module
from repro.ml.tree import DecisionTreeRegressor

from tests.conftest import small_forest_factory

pytestmark = pytest.mark.kernels

_NO_CHILD = -1
_KEYS = ("feature", "threshold", "left", "right", "value")


# -- the depth-first oracle -------------------------------------------------------


def _reference_best_split(tree, features, targets, weights, rng):
    """Return (feature, threshold) with the largest SSE reduction."""
    n, d = features.shape
    if tree.max_features is not None and tree.max_features < d:
        candidates = rng.choice(d, size=tree.max_features, replace=False)
    else:
        candidates = np.arange(d)

    best_gain = 1e-12
    best = None
    wy = weights * targets
    wy2 = weights * targets * targets
    parent_sse = wy2.sum() - (wy.sum() ** 2) / max(weights.sum(), 1e-300)
    for feat in candidates:
        order = np.argsort(features[:, feat], kind="stable")
        x_sorted = features[order, feat]
        w_sorted = weights[order]
        wy_sorted = wy[order]
        wy2_sorted = wy2[order]
        cw = np.cumsum(w_sorted)
        cwy = np.cumsum(wy_sorted)
        cwy2 = np.cumsum(wy2_sorted)
        total_w, total_wy, total_wy2 = cw[-1], cwy[-1], cwy2[-1]
        pos = np.arange(1, n)
        valid = x_sorted[1:] > x_sorted[:-1]
        valid &= pos >= tree.min_samples_leaf
        valid &= (n - pos) >= tree.min_samples_leaf
        if not valid.any():
            continue
        k = pos[valid] - 1
        lw = cw[k]
        rw = total_w - lw
        ok = (lw > 0) & (rw > 0)
        if not ok.any():
            continue
        k = k[ok]
        lw = lw[ok]
        rw = rw[ok]
        left_sse = cwy2[k] - (cwy[k] ** 2) / lw
        right_sse = (total_wy2 - cwy2[k]) - ((total_wy - cwy[k]) ** 2) / rw
        gain = parent_sse - (left_sse + right_sse)
        j = int(np.argmax(gain))
        if gain[j] > best_gain:
            best_gain = float(gain[j])
            thr = 0.5 * (x_sorted[k[j]] + x_sorted[k[j] + 1])
            best = (int(feat), float(thr))
    return best


def reference_fit(tree, features, targets, sample_weight=None):
    """The depth-first fit: one node popped off a stack at a time.

    Returns the five node arrays. Children get ids when their parent
    splits, and the right child is processed first.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if sample_weight is None:
        sample_weight = np.ones(features.shape[0], dtype=np.float64)
    rng = np.random.default_rng(tree.random_state)
    feature_ids, thresholds, lefts, rights, values = [], [], [], [], []

    def new_node():
        feature_ids.append(_NO_CHILD)
        thresholds.append(0.0)
        lefts.append(_NO_CHILD)
        rights.append(_NO_CHILD)
        values.append(0.0)
        return len(values) - 1

    root = new_node()
    stack = [(root, np.arange(features.shape[0]), 0)]
    while stack:
        node, idx, depth = stack.pop()
        y = targets[idx]
        w = sample_weight[idx]
        total_w = w.sum()
        values[node] = (
            float(np.average(y, weights=w)) if total_w > 0 else float(y.mean())
        )
        if (
            idx.size < tree.min_samples_split
            or (tree.max_depth is not None and depth >= tree.max_depth)
            or np.all(y == y[0])
        ):
            continue
        # ±inf neighbours give a NaN midpoint: a split nothing passes.
        with np.errstate(invalid="ignore", over="ignore"):
            split = _reference_best_split(tree, features[idx], y, w, rng)
        if split is None:
            continue
        feat, thr = split
        mask = features[idx, feat] <= thr
        left_idx = idx[mask]
        right_idx = idx[~mask]
        if (
            left_idx.size < tree.min_samples_leaf
            or right_idx.size < tree.min_samples_leaf
        ):
            continue
        feature_ids[node] = feat
        thresholds[node] = thr
        left = new_node()
        right = new_node()
        lefts[node] = left
        rights[node] = right
        stack.append((left, left_idx, depth + 1))
        stack.append((right, right_idx, depth + 1))

    return {
        "feature": np.array(feature_ids, dtype=np.int64),
        "threshold": np.array(thresholds, dtype=np.float64),
        "left": np.array(lefts, dtype=np.int64),
        "right": np.array(rights, dtype=np.int64),
        "value": np.array(values, dtype=np.float64),
    }


def _assert_same_nodes(actual, expected):
    for key in _KEYS:
        assert actual[key].dtype == expected[key].dtype, key
        assert actual[key].tobytes() == expected[key].tobytes(), key


# -- the random grid ------------------------------------------------------------------


def _grid_case(seed):
    """One seeded fit problem: data, weights and stopping rules."""
    rng = np.random.default_rng(seed)
    n = int(rng.choice([1, 2, 3, 7, 16, 40, 90, 160]))
    d = int(rng.integers(1, 5))
    x = rng.standard_normal((n, d))
    x_mode = rng.integers(0, 3)
    if x_mode == 1:
        x = np.round(x, 1)  # many ties
    elif x_mode == 2:
        x = np.round(x * 2) / 2  # few distinct values
    if rng.random() < 0.3 and n > 1:
        x.flat[rng.choice(x.size, size=max(1, x.size // 8), replace=False)] = (
            rng.choice([np.nan, np.inf, -np.inf], size=max(1, x.size // 8))
        )
    y_mode = rng.integers(0, 5)
    if y_mode == 0:
        y = rng.standard_normal(n)
    elif y_mode == 1:
        y = np.round(rng.standard_normal(n))
    elif y_mode == 2:
        y = np.full(n, 3.25)
    elif y_mode == 3:
        y = 3.25 + 1e-7 * rng.standard_normal(n)  # gains under 1e-12
    else:
        y = x[:, 0].copy()
        y[~np.isfinite(y)] = 0.0
        y = y + 0.1 * rng.standard_normal(n)
    w_mode = rng.integers(0, 3)
    if w_mode == 0:
        weights = None
    elif w_mode == 1:
        weights = rng.uniform(0.0, 2.0, n)
        weights[rng.random(n) < 0.3] = 0.0
    else:
        weights = rng.integers(0, 3, n).astype(np.float64)
    params = {
        "max_depth": [None, 1, 3, 8][int(rng.integers(0, 4))],
        "min_samples_leaf": int(rng.integers(1, 6)),
        "min_samples_split": int(rng.integers(2, 8)),
    }
    return x, y, weights, params


@pytest.mark.parametrize("seed", range(200))
def test_level_wise_fit_matches_depth_first_oracle(seed):
    x, y, weights, params = _grid_case(seed)
    tree = DecisionTreeRegressor(**params).fit(x, y, sample_weight=weights)
    _assert_same_nodes(tree._nodes, reference_fit(tree, x, y, weights))


@pytest.mark.parametrize("seed", range(0, 200, 8))
def test_many_small_batches_match_oracle(monkeypatch, seed):
    # A tiny cell budget splits every level into many node batches.
    monkeypatch.setattr(tree_module, "_BATCH_CELLS", 64)
    x, y, weights, params = _grid_case(seed)
    tree = DecisionTreeRegressor(**params).fit(x, y, sample_weight=weights)
    _assert_same_nodes(tree._nodes, reference_fit(tree, x, y, weights))


@pytest.mark.parametrize(
    "x",
    [
        np.array([[np.nan], [1.0], [np.inf], [-np.inf], [2.0], [np.nan]]),
        np.array([[-np.inf], [np.inf], [-np.inf], [np.inf]]),
        np.array([[np.nan, 0.0], [np.nan, 1.0], [np.nan, 0.0], [np.nan, 1.0]]),
        np.array([[1.0], [1.0], [1.0], [2.0]]),
    ],
)
def test_non_finite_and_tied_features(x):
    y = np.arange(x.shape[0], dtype=np.float64)
    tree = DecisionTreeRegressor().fit(x, y)
    _assert_same_nodes(tree._nodes, reference_fit(tree, x, y))


def test_overflowing_targets():
    # w*y*y overflows: the gains are NaN and no split is taken, as in
    # the depth-first fit (which warns the same way).
    x = np.arange(6.0).reshape(-1, 1)
    y = np.array([1e200, 2e200, 3e200, -1e200, 5e200, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        tree = DecisionTreeRegressor().fit(x, y)
        _assert_same_nodes(tree._nodes, reference_fit(tree, x, y))


def test_root_only_trees():
    for x, y in (
        (np.array([[4.0]]), np.array([1.5])),
        (np.arange(12.0).reshape(6, 2), np.full(6, -2.0)),
        (np.zeros((5, 0)), np.arange(5.0)),
    ):
        tree = DecisionTreeRegressor().fit(x, y)
        _assert_same_nodes(tree._nodes, reference_fit(tree, x, y))
        assert tree.node_count == 1


# -- the parent SSE ----------------------------------------------------------------


def test_parent_sse_squares_with_libm_pow():
    # An array square (x * x, or np.power's SIMD loop) differs from
    # glibc's pow in the last bit for some of these values; the helper
    # must give pow's square on every one.
    rng = np.random.default_rng(0)
    x = rng.standard_normal(20_000) * 10.0 ** rng.integers(-3, 4, 20_000)
    expected = np.array([-math.pow(v, 2.0) for v in x.tolist()])
    assert (-(x * x) != expected).any()
    sse = tree_module._parent_sse(np.ones(x.size), x, np.zeros(x.size))
    assert sse.tobytes() == expected.tobytes()


def test_parent_sse_matches_numpy_scalar_arithmetic():
    rng = np.random.default_rng(1)
    sums = rng.standard_normal((3, 500)) * 10.0 ** rng.integers(-150, 160, (3, 500))
    sums[0] = np.abs(sums[0])
    sums[0, :20] = 0.0
    sums[:, 20:40] = rng.choice([np.nan, np.inf, -np.inf, 1e300, -1e300], (3, 20))
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.array([s2 - s1**2 / max(s0, 1e-300) for s0, s1, s2 in sums.T])
    assert tree_module._parent_sse(*sums).tobytes() == expected.tobytes()


# -- feature subsampling ------------------------------------------------------------


def test_max_features_at_least_d_equals_none():
    x = np.random.default_rng(1).standard_normal((120, 4))
    y = x[:, 1] - 2.0 * x[:, 3] + 0.1 * np.random.default_rng(2).standard_normal(120)
    plain = DecisionTreeRegressor(min_samples_leaf=2).fit(x, y)
    for max_features in (4, 9):
        tree = DecisionTreeRegressor(
            min_samples_leaf=2, max_features=max_features, random_state=5
        ).fit(x, y)
        _assert_same_nodes(tree._nodes, plain._nodes)
    forests = [
        RandomForestRegressor(n_estimators=5, max_features=m, random_state=3).fit(x, y)
        for m in (None, 4)
    ]
    assert _forest_digest(forests[0]) == _forest_digest(forests[1])


def test_subsampled_forest_is_seed_deterministic():
    x, y = _fxrz_like_matrix(n_datasets=3, rows=40)

    def digest(seed):
        forest = RandomForestRegressor(
            n_estimators=6, min_samples_leaf=2, max_features=2, random_state=seed
        )
        return _forest_digest(forest.fit(x, y))

    assert digest(11) == digest(11)
    assert digest(11) != digest(12)


def test_one_candidate_tree_splits_on_every_feature():
    # Only feature 0 carries signal; with one candidate per node the
    # tree must still split on the others wherever they were drawn.
    rng = np.random.default_rng(4)
    x = rng.uniform(0.0, 1.0, (200, 3))
    y = np.where(x[:, 0] < 0.5, 0.0, 1.0) + 0.01 * rng.standard_normal(200)
    tree = DecisionTreeRegressor(max_features=1, random_state=8).fit(x, y)
    used = set(tree._nodes["feature"][tree._nodes["feature"] >= 0].tolist())
    assert used == {0, 1, 2}
    full = DecisionTreeRegressor().fit(x, y)
    assert full._nodes["feature"][0] == 0


# -- pinned digests --------------------------------------------------------------------


def _fxrz_like_matrix(seed=5, n_datasets=6, rows=50):
    """Rows shaped like FXRZ training rows: five per-dataset constants
    (so every dataset is one long tie) plus a varying adjusted ratio."""
    rng = np.random.default_rng(seed)
    x_blocks, y_blocks = [], []
    for _ in range(n_datasets):
        feats = np.repeat(rng.uniform(0.0, 1.0, (1, 5)), rows, axis=0)
        acr = np.sort(rng.uniform(2.0, 60.0, rows))
        x_blocks.append(np.column_stack((feats, acr)))
        y_blocks.append(
            -4.0 + 1.5 * np.log10(acr) + feats[:, 2]
            + 0.05 * rng.standard_normal(rows)
        )
    return np.vstack(x_blocks), np.concatenate(y_blocks)


def _forest_digest(forest: RandomForestRegressor) -> str:
    digest = hashlib.sha256()
    for tree in forest.estimators_:
        for key in _KEYS:
            digest.update(tree._nodes[key].tobytes())
    return digest.hexdigest()


#: Recorded with the depth-first fit; a changed digest means a split,
#: a threshold, a leaf value or the node order moved.
_FOREST_DIGEST = "8df647f59f96ad9ec9d212c338d2cd70336d748187032c1a8e4c2dac79ef1fa1"
_ARCHIVE_DIGEST = "60f9015be474c531ac8bbd367f0e6c2c8fb388f594c9fd5cbf917ff7eeea6bde"


def test_default_forest_nodes_are_pinned():
    x, y = _fxrz_like_matrix()
    forest = default_model_factory(7).fit(x, y)
    assert _forest_digest(forest) == _FOREST_DIGEST


def test_default_forest_matches_oracle_tree_by_tree():
    x, y = _fxrz_like_matrix()
    forest = default_model_factory(7)
    forest.n_estimators = 4
    forest.fit(x, y)
    rng = np.random.default_rng(7)
    for tree in forest.estimators_:
        rng.integers(0, 2**31 - 1)
        idx = rng.integers(0, x.shape[0], size=x.shape[0])
        _assert_same_nodes(tree._nodes, reference_fit(tree, x[idx], y[idx]))


def test_saved_pipeline_bytes_are_pinned(tmp_path):
    rng = np.random.default_rng(2)
    lin = np.linspace(0, 4 * np.pi, 16)
    x, y, _ = np.meshgrid(lin, lin, lin, indexing="ij")
    train = [
        (np.sin(x + 0.3 * i) * np.cos(y) + 0.03 * rng.standard_normal((16,) * 3))
        .astype(np.float32)
        for i in range(2)
    ]
    config = repro.FXRZConfig(stationary_points=8, augmented_samples=60)
    pipeline = repro.FXRZ(
        get_compressor("sz"), config=config, model_factory=small_forest_factory
    )
    pipeline.fit(train)
    path = tmp_path / "model.npz"
    save_pipeline(pipeline, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _ARCHIVE_DIGEST
