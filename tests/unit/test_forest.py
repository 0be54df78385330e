"""Unit tests for the random forest regressor."""

import io
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.compressors import get_compressor
from repro.core import persistence
from repro.core.persistence import load_pipeline, save_pipeline
from repro.errors import InvalidConfiguration, NotFittedError
from repro.ml.forest import RandomForestRegressor
from repro.ml.metrics import r2_score
from repro.ml.tree import DecisionTreeRegressor
from repro.robustness.confidence import ensemble_spread

from tests.conftest import small_forest_factory


def _friedman(n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, 5))
    y = (
        10 * np.sin(np.pi * x[:, 0] * x[:, 1])
        + 20 * (x[:, 2] - 0.5) ** 2
        + 10 * x[:, 3]
        + 5 * x[:, 4]
    )
    return x, y + 0.5 * rng.standard_normal(n)


class TestFitting:
    def test_beats_noise_floor(self):
        x, y = _friedman()
        forest = RandomForestRegressor(n_estimators=25, random_state=0).fit(
            x[:300], y[:300]
        )
        assert r2_score(y[300:], forest.predict(x[300:])) > 0.7

    def test_reduces_single_tree_variance(self):
        x, y = _friedman()
        tree = DecisionTreeRegressor(random_state=0).fit(x[:300], y[:300])
        forest = RandomForestRegressor(n_estimators=30, random_state=0).fit(
            x[:300], y[:300]
        )
        tree_r2 = r2_score(y[300:], tree.predict(x[300:]))
        forest_r2 = r2_score(y[300:], forest.predict(x[300:]))
        assert forest_r2 >= tree_r2 - 0.02

    def test_deterministic_with_seed(self):
        x, y = _friedman(150)
        f1 = RandomForestRegressor(n_estimators=8, random_state=3).fit(x, y)
        f2 = RandomForestRegressor(n_estimators=8, random_state=3).fit(x, y)
        probe = x[:10]
        assert np.array_equal(f1.predict(probe), f2.predict(probe))

    def test_estimator_count(self):
        x, y = _friedman(60)
        forest = RandomForestRegressor(n_estimators=5, random_state=0).fit(x, y)
        assert len(forest.estimators_) == 5

    def test_no_bootstrap_mode(self):
        x, y = _friedman(80)
        forest = RandomForestRegressor(
            n_estimators=3, bootstrap=False, max_features=None, random_state=0
        ).fit(x, y)
        # Without bootstrap or feature subsampling all trees are equal.
        p = [t.predict(x[:5]) for t in forest.estimators_]
        assert np.allclose(p[0], p[1]) and np.allclose(p[1], p[2])


class TestMaxFeatures:
    def test_sqrt_and_third_resolve(self):
        forest = RandomForestRegressor(max_features="sqrt")
        assert forest._resolve_max_features(9) == 3
        forest = RandomForestRegressor(max_features="third")
        assert forest._resolve_max_features(9) == 3
        assert forest._resolve_max_features(2) == 1

    def test_int_clamped(self):
        forest = RandomForestRegressor(max_features=100)
        assert forest._resolve_max_features(6) == 6

    def test_bad_values_rejected(self):
        with pytest.raises(InvalidConfiguration):
            RandomForestRegressor(max_features=0)._resolve_max_features(5)
        with pytest.raises(InvalidConfiguration):
            RandomForestRegressor(max_features="half")._resolve_max_features(5)


class TestValidation:
    def test_predict_before_fit_raises(self):
        with pytest.raises(NotFittedError):
            RandomForestRegressor().predict(np.zeros((1, 3)))

    def test_zero_estimators_rejected(self):
        with pytest.raises(InvalidConfiguration):
            RandomForestRegressor(n_estimators=0)

    def test_bad_shapes_rejected(self):
        with pytest.raises(InvalidConfiguration):
            RandomForestRegressor().fit(np.zeros((5, 2)), np.zeros(6))


def _tree_order_mean(forest, x):
    """The reference mean: each tree's own walk, added in tree order."""
    total = np.zeros(np.atleast_2d(x).shape[0])
    for tree in forest.estimators_:
        total += tree.predict(x)
    return total / len(forest.estimators_)


def _tree_by_tree_std(forest, row):
    """The reference spread: one tree walk per tree, then ``std``."""
    row = np.atleast_2d(row)
    return float(
        np.array([float(t.predict(row)[0]) for t in forest.estimators_]).std()
    )


def _assert_packed_parity(forest, x):
    expected = np.array([tree.predict(x) for tree in forest.estimators_])
    np.testing.assert_array_equal(forest.tree_predictions(x), expected)
    assert np.array_equal(forest.predict(x), _tree_order_mean(forest, x))
    for row in np.atleast_2d(x)[:16]:
        assert ensemble_spread(forest, row) == _tree_by_tree_std(forest, row)


@pytest.fixture(scope="module")
def friedman_forest():
    x, y = _friedman(300)
    return RandomForestRegressor(n_estimators=12, random_state=4).fit(x, y)


@pytest.fixture(scope="module")
def fitted_pipeline():
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
    return pipeline, train


def _archive_arrays(path) -> dict[str, np.ndarray]:
    payload = path.read_bytes()[persistence._HEADER_LEN :]
    with np.load(io.BytesIO(payload)) as archive:
        return {key: archive[key] for key in archive.files}


@pytest.mark.kernels
class TestPackedPass:
    """One packed pass answers exactly what the per-tree walks answer."""

    @pytest.mark.parametrize("n_rows", [1, 16, 256, 4097])
    def test_matches_tree_walks(self, friedman_forest, n_rows):
        rng = np.random.default_rng(n_rows)
        _assert_packed_parity(friedman_forest, rng.uniform(-0.2, 1.2, (n_rows, 5)))

    def test_row_chunks_match_tree_walks(self, friedman_forest, monkeypatch):
        # Several full chunks plus a short last one, each offset by its
        # first row.
        monkeypatch.setattr("repro.ml.forest._CHUNK_ROWS", 5)
        rng = np.random.default_rng(11)
        _assert_packed_parity(friedman_forest, rng.uniform(-0.2, 1.2, (23, 5)))

    def test_root_only_trees(self):
        x, _ = _friedman(40)
        forest = RandomForestRegressor(n_estimators=4, random_state=0).fit(
            x, np.full(40, 2.5)
        )
        assert all(t.node_count == 1 for t in forest.estimators_)
        assert forest._table().depth == 0
        _assert_packed_parity(forest, x[:7])
        np.testing.assert_array_equal(forest.predict(x[:3]), [2.5, 2.5, 2.5])

    def test_trees_of_unequal_depth(self):
        x, y = _friedman(200, seed=3)
        forest = RandomForestRegressor(
            n_estimators=10, max_depth=None, min_samples_leaf=3, random_state=1
        ).fit(x, y)
        # A stump next to full-depth trees: leaves must stay put while
        # the deeper trees keep descending.
        stump = DecisionTreeRegressor(max_depth=1).fit(x, y)
        forest._trees = [stump] + forest.estimators_
        depths = {t.depth for t in forest.estimators_}
        assert len(depths) > 2
        assert forest._table().depth == max(depths)
        _assert_packed_parity(forest, x[:64])

    def test_nan_rows_go_right(self, friedman_forest):
        rng = np.random.default_rng(9)
        x = rng.uniform(0, 1, (32, 5))
        x[::3, 0] = np.nan
        x[1::4, 3] = np.nan
        x[5] = np.nan
        _assert_packed_parity(friedman_forest, x)

    def test_reassigned_trees_rebuild_the_table(self, friedman_forest):
        x, y = _friedman(120, seed=5)
        forest = RandomForestRegressor(n_estimators=6, random_state=2).fit(x, y)
        before = forest.predict(x[:8])
        forest._trees = friedman_forest.estimators_
        np.testing.assert_array_equal(
            forest.predict(x[:8]), friedman_forest.predict(x[:8])
        )
        assert not np.array_equal(forest.predict(x[:8]), before)

    def test_refit_does_not_reuse_a_stale_table(self):
        x, y = _friedman(150)
        forest = RandomForestRegressor(n_estimators=5, random_state=0).fit(x, y)
        forest.predict(x[:4])
        stale = forest._table()
        forest.fit(x, -y)
        assert forest._table() is not stale
        _assert_packed_parity(forest, x[:32])
        fresh = RandomForestRegressor(n_estimators=5, random_state=0).fit(x, -y)
        np.testing.assert_array_equal(forest.predict(x[:8]), fresh.predict(x[:8]))

    def test_persistence_roundtrip(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        path = tmp_path / "model.npz"
        save_pipeline(pipeline, path)
        restored = load_pipeline(path).model
        rows = np.array([r.features for r in pipeline._training.records])
        queries = np.hstack((rows, np.full((rows.shape[0], 1), 4.0)))
        _assert_packed_parity(restored, queries)
        np.testing.assert_array_equal(
            restored.predict(queries), pipeline.model.predict(queries)
        )

    def test_query_leaves_the_archive_unchanged(self, fitted_pipeline, tmp_path):
        pipeline, train = fitted_pipeline
        pipeline.model._packed = None
        save_pipeline(pipeline, tmp_path / "before.npz")
        pipeline.estimate_config(train[0], 5.0)
        assert pipeline.model._packed is not None
        save_pipeline(pipeline, tmp_path / "after.npz")
        before = _archive_arrays(tmp_path / "before.npz")
        after = _archive_arrays(tmp_path / "after.npz")
        assert before.keys() == after.keys()
        for key in before:
            assert before[key].dtype == after[key].dtype, key
            assert before[key].tobytes() == after[key].tobytes(), key

    def test_concurrent_queries_match_their_trees(self, friedman_forest):
        # Readers race a writer that keeps swapping in fresh tree lists
        # (as a reload does) under a tiny switch interval. A query that
        # saw the same list before and after it ran must answer for that
        # list, never from a table built for another one.
        x, y = _friedman(120, seed=6)
        other = RandomForestRegressor(n_estimators=7, random_state=3).fit(x, y)
        sources = (friedman_forest, other)
        probe = x[:16]
        answers = {id(f.estimators_[0]): f.predict(probe) for f in sources}
        forest = RandomForestRegressor(n_estimators=1)
        forest._trees = friedman_forest.estimators_
        stop = threading.Event()
        checked, bad = [], []

        def reader():
            while not stop.is_set():
                before = forest._trees
                got = forest.predict(probe)
                if forest._trees is before:
                    checked.append(1)
                    if not np.array_equal(got, answers[id(before[0])]):
                        bad.append(got)

        def writer():
            for i in range(300):
                forest._trees = sources[i % 2].estimators_  # a new list
                time.sleep(5e-4)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=reader) for _ in range(4)]
            for thread in readers:
                thread.start()
            swapper = threading.Thread(target=writer)
            swapper.start()
            swapper.join(timeout=60)
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not swapper.is_alive()
        assert not any(thread.is_alive() for thread in readers)
        assert checked and not bad

    def test_too_few_features_rejected(self, friedman_forest):
        with pytest.raises(InvalidConfiguration):
            friedman_forest.predict(np.zeros((2, 3)))
