"""Unit tests for the CART regression tree."""

import numpy as np
import pytest

from repro.errors import InvalidConfiguration, NotFittedError
from repro.ml.tree import DecisionTreeRegressor


def _step_data(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, 1))
    y = np.where(x[:, 0] < 0.5, 1.0, 3.0)
    return x, y


class TestFitting:
    def test_learns_a_step_function(self):
        x, y = _step_data()
        tree = DecisionTreeRegressor(max_depth=2).fit(x, y)
        pred = tree.predict(np.array([[0.2], [0.8]]))
        assert pred[0] == pytest.approx(1.0)
        assert pred[1] == pytest.approx(3.0)

    def test_pure_leaf_stops_early(self):
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([5.0, 5.0, 5.0])
        tree = DecisionTreeRegressor().fit(x, y)
        assert tree.node_count == 1
        assert tree.depth == 0

    def test_max_depth_respected(self, rng):
        x = rng.uniform(0, 1, (300, 3))
        y = rng.standard_normal(300)
        tree = DecisionTreeRegressor(max_depth=4).fit(x, y)
        assert tree.depth <= 4

    def test_min_samples_leaf_respected(self, rng):
        x = rng.uniform(0, 1, (100, 2))
        y = rng.standard_normal(100)
        tree = DecisionTreeRegressor(min_samples_leaf=20).fit(x, y)
        # With 100 samples and 20-sample leaves, at most 5 leaves exist.
        n_leaves = (tree._nodes["feature"] == -1).sum()
        assert n_leaves <= 5

    def test_deep_tree_interpolates_training_data(self, rng):
        x = rng.uniform(0, 1, (64, 2))
        y = rng.standard_normal(64)
        tree = DecisionTreeRegressor().fit(x, y)
        assert np.allclose(tree.predict(x), y)

    def test_sample_weight_shifts_leaf_values(self):
        x = np.zeros((4, 1))
        y = np.array([0.0, 0.0, 0.0, 10.0])
        w = np.array([1.0, 1.0, 1.0, 97.0])
        tree = DecisionTreeRegressor(max_depth=1).fit(x, y, sample_weight=w)
        assert tree.predict(np.zeros((1, 1)))[0] == pytest.approx(9.7)

    def test_single_sample(self):
        tree = DecisionTreeRegressor().fit(np.array([[1.0]]), np.array([2.0]))
        assert tree.predict(np.array([[99.0]]))[0] == 2.0


class TestValidation:
    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))

    def test_bad_shapes_rejected(self):
        with pytest.raises(InvalidConfiguration):
            DecisionTreeRegressor().fit(np.zeros(5), np.zeros(5))
        with pytest.raises(InvalidConfiguration):
            DecisionTreeRegressor().fit(np.zeros((5, 2)), np.zeros(4))

    def test_bad_params_rejected(self):
        with pytest.raises(InvalidConfiguration):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(InvalidConfiguration):
            DecisionTreeRegressor(min_samples_split=1)
        with pytest.raises(InvalidConfiguration):
            DecisionTreeRegressor(min_samples_leaf=0)
        for kwargs in (
            {"max_depth": 2.5},
            {"min_samples_split": True},
            {"min_samples_leaf": 1.5},
            {"max_features": 0},
            {"max_features": 1.0},
        ):
            with pytest.raises(InvalidConfiguration):
                DecisionTreeRegressor(**kwargs)
        assert DecisionTreeRegressor(max_depth=np.int64(3)).max_depth == 3

    def test_negative_weights_rejected(self):
        with pytest.raises(InvalidConfiguration):
            DecisionTreeRegressor().fit(
                np.zeros((2, 1)), np.zeros(2), sample_weight=np.array([1.0, -1.0])
            )


class TestPrediction:
    def test_1d_feature_row_promoted(self):
        x, y = _step_data()
        tree = DecisionTreeRegressor(max_depth=2).fit(x, y)
        assert tree.predict(np.array([0.9]))[0] == pytest.approx(3.0)

    def test_feature_subsampling_is_deterministic(self, rng):
        x = rng.uniform(0, 1, (200, 6))
        y = x[:, 0] * 2 + x[:, 3]
        t1 = DecisionTreeRegressor(max_features=2, random_state=7).fit(x, y)
        t2 = DecisionTreeRegressor(max_features=2, random_state=7).fit(x, y)
        probe = rng.uniform(0, 1, (20, 6))
        assert np.array_equal(t1.predict(probe), t2.predict(probe))
