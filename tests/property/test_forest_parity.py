"""One forest pass per guarded estimate, against the two-pass oracle.

:func:`repro.ml.forest.tree_mean` averages the per-tree predictions
with one accumulate, and the guarded model rung answers from the mean
of the per-tree predictions its confidence step made. The oracle in
:mod:`tests.forest_oracle` adds the trees into a zeroed total and lets
the model rung ask the forest again; every mean, config, tier,
confidence and decline reason must match it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro
from repro.compressors import get_compressor
from repro.datasets.hurricane import MAX_TIMESTEP, generate_hurricane_field
from repro.datasets.registry import HURRICANE_TEST_STEP, HURRICANE_TRAIN_STEPS
from repro.ml.adaboost import AdaBoostRegressor
from repro.ml.forest import RandomForestRegressor, tree_mean
from repro.robustness.confidence import ensemble_spread
from repro.robustness.guarded import GuardedInferenceEngine

from tests.forest_oracle import TwoPassGuardedEngine, predict, zeroed_total_mean

pytestmark = pytest.mark.kernels

#: The repo benchmark's model: SZ on the Hurricane TC training series.
BENCH_CONFIG = repro.FXRZConfig(stationary_points=12, augmented_samples=150)
#: serve-48's hot pool.
HOT_STEPS = (1, 7, 14, 17, 21, 24, 35, 38, 41, 4, 11, 36)
UNTRAINED_STEPS = tuple(
    t
    for t in range(1, MAX_TIMESTEP + 1)
    if t not in HURRICANE_TRAIN_STEPS and t != HURRICANE_TEST_STEP
)

_SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan)
_VALUES = st.one_of(
    st.sampled_from(_SPECIAL), st.floats(allow_nan=True, allow_infinity=True)
)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_same_mean(got, want) -> None:
    """Byte-equal (so a signed zero shows), NaN for NaN.

    Which of two NaN operands an add returns differs between numpy's
    vector and scalar loops, so the zeroed-total loop itself answers
    ``nan`` or ``-nan`` for one column depending on the row count; a
    NaN's sign and payload carry no meaning and are not compared.
    """
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert _bits(got[~nan]) == _bits(want[~nan])


def _fit(model_factory=None) -> repro.FXRZ:
    pipeline = repro.FXRZ(
        get_compressor("sz"), config=BENCH_CONFIG, model_factory=model_factory
    )
    pipeline.fit(
        [generate_hurricane_field("TC", t) for t in HURRICANE_TRAIN_STEPS]
    )
    return pipeline


@pytest.fixture(scope="module")
def bench_pipeline():
    return _fit()


@pytest.fixture(scope="module")
def boosted_pipeline():
    return _fit(lambda seed: AdaBoostRegressor(n_estimators=10, random_state=seed))


def _requests(pipeline, n_fresh: int = 8):
    """serve-48's hot pool plus fresh fields, each over a wide target grid.

    The grid runs past the trained range on both sides, so the model,
    curve and FRaZ rungs all answer some of the requests.
    """
    rng = np.random.default_rng(28)
    fields = [generate_hurricane_field("TC", t) for t in HOT_STEPS]
    for step in rng.choice(UNTRAINED_STEPS, n_fresh):
        seed = int(rng.integers(1, 2**16))
        fields.append(generate_hurricane_field("TC", int(step), seed=seed))
    for data in fields:
        lo, hi = pipeline.trained_ratio_range(data)
        for target in np.geomspace(lo / 8, hi * 8, 8):
            yield data, float(target)


def _assert_same_answers(engine, oracle, requests):
    tiers = set()
    for data, target in requests:
        analysis = engine.analyze(data)
        got = engine.estimate(data, target, analysis=analysis)
        want = oracle.estimate(data, target, analysis=analysis)
        assert _bits(got.config) == _bits(want.config), target
        assert got.tier == want.tier
        assert _bits(got.confidence) == _bits(want.confidence)
        assert got.fallback_reason == want.fallback_reason
        tiers.add(got.tier)
    return tiers


def _with_leaves(forest: RandomForestRegressor, leaves) -> None:
    """Overwrite every node value of ``forest``, cycling ``leaves``."""
    trees = forest.estimators_
    for k, tree in enumerate(trees):
        values = tree._nodes["value"]
        values[:] = np.resize(np.roll(leaves, k), values.size)
    forest._trees = trees  # a new list: the packed table is rebuilt


@pytest.fixture(scope="module")
def small_forest():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 1, (120, 4))
    y = x @ np.array([1.0, -2.0, 0.5, 3.0]) + rng.normal(0, 0.1, 120)
    return RandomForestRegressor(n_estimators=7, random_state=0).fit(x, y)


class TestForestMean:
    @given(
        matrix=arrays(
            np.float64,
            st.tuples(st.integers(1, 12), st.integers(0, 6)),
            elements=_VALUES,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_tree_mean_matches_zeroed_total(self, matrix):
        with np.errstate(all="ignore"):
            _assert_same_mean(tree_mean(matrix), zeroed_total_mean(matrix))

    @given(
        leaves=arrays(np.float64, st.integers(1, 9), elements=_VALUES),
        rows=arrays(
            np.float64,
            st.tuples(st.integers(1, 20), st.just(4)),
            elements=st.floats(-0.5, 1.5),
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_predict_matches_zeroed_total(self, small_forest, leaves, rows):
        _with_leaves(small_forest, leaves)
        with np.errstate(all="ignore"):
            _assert_same_mean(
                small_forest.predict(rows), predict(small_forest, rows)
            )

    @pytest.mark.parametrize(
        "leaf, expected",
        [(-0.0, 0.0), (math.inf, math.inf), (-math.inf, -math.inf)],
    )
    def test_uniform_leaves(self, small_forest, leaf, expected):
        """All ``-0.0`` leaves average to ``+0.0``, as the zeroed total did."""
        _with_leaves(small_forest, [leaf])
        mean = small_forest.predict(np.full((3, 4), 0.5))
        assert _bits(mean) == _bits([expected] * 3)

    def test_nan_leaf_poisons_the_mean(self, small_forest):
        _with_leaves(small_forest, [1.0, math.nan, -0.0])
        mean = small_forest.predict(np.full((2, 4), 0.5))
        assert np.isnan(mean).all()
        _assert_same_mean(mean, predict(small_forest, np.full((2, 4), 0.5)))

    def test_spread_carries_the_forest_mean(self, bench_pipeline):
        model = bench_pipeline.model
        rng = np.random.default_rng(3)
        for row in rng.normal(size=(50, 6)):
            spread = ensemble_spread(model, row)
            assert _bits(spread.mean) == _bits(predict(model, row[None, :]))


class TestGuardedParity:
    def test_hot_pool_and_fresh_fields(self, bench_pipeline):
        engine = bench_pipeline.guarded()
        oracle = TwoPassGuardedEngine(bench_pipeline)
        tiers = _assert_same_answers(engine, oracle, _requests(bench_pipeline))
        assert tiers == {"model", "curve", "fraz"}

    def test_gate_shut(self, bench_pipeline):
        """``min_confidence=1.0``: the model rung never answers."""
        engine = bench_pipeline.guarded(min_confidence=1.0)
        oracle = TwoPassGuardedEngine(bench_pipeline, min_confidence=1.0)
        tiers = _assert_same_answers(
            engine, oracle, _requests(bench_pipeline, n_fresh=2)
        )
        assert "model" not in tiers

    def test_boosted_model_takes_predict(self, boosted_pipeline, monkeypatch):
        """A model without per-tree predictions answers through ``predict``."""
        engine = boosted_pipeline.guarded()
        oracle = TwoPassGuardedEngine(boosted_pipeline)
        tiers = _assert_same_answers(
            engine, oracle, _requests(boosted_pipeline, n_fresh=2)
        )
        assert "model" in tiers
        calls = []
        original = AdaBoostRegressor.predict
        monkeypatch.setattr(
            AdaBoostRegressor,
            "predict",
            lambda self, rows: calls.append(1) or original(self, rows),
        )
        data = generate_hurricane_field("TC", HOT_STEPS[0])
        lo, hi = boosted_pipeline.trained_ratio_range(data)
        assert engine.estimate(data, math.sqrt(lo * hi)).tier == "model"
        assert calls == [1]

    def test_one_forest_pass_per_estimate(self, bench_pipeline, monkeypatch):
        """A model-tier ratio estimate walks the packed forest once and
        never calls ``predict``."""
        engine = bench_pipeline.guarded()
        passes, predicts = [], []
        tree_predictions = RandomForestRegressor.tree_predictions
        forest_predict = RandomForestRegressor.predict
        monkeypatch.setattr(
            RandomForestRegressor,
            "tree_predictions",
            lambda self, rows: passes.append(1) or tree_predictions(self, rows),
        )
        monkeypatch.setattr(
            RandomForestRegressor,
            "predict",
            lambda self, rows: predicts.append(1) or forest_predict(self, rows),
        )
        data = generate_hurricane_field("TC", HOT_STEPS[0])
        analysis = engine.analyze(data)
        lo, hi = bench_pipeline.trained_ratio_range(data)
        estimate = engine.estimate(data, math.sqrt(lo * hi), analysis=analysis)
        assert estimate.tier == "model"
        assert (len(passes), len(predicts)) == (1, 0)


class TestNearestRecord:
    def test_argmin_picks_the_loop_record(self, bench_pipeline):
        engine = bench_pipeline.guarded()
        records = engine._records
        span = engine.envelope.span[:5]
        rng = np.random.default_rng(17)
        lo, hi = engine.envelope.lo[:5], engine.envelope.hi[:5]
        queries = rng.uniform(lo, hi, (200, 5))
        queries = np.vstack([queries, [rec.features for rec in records]])
        for features in queries:
            expected = min(
                records,
                key=lambda rec: float(
                    np.sum(((rec.features - features) / span) ** 2)
                ),
            )
            assert engine._nearest_record(features) is expected

    def test_ties_go_to_the_first_record(self):
        """Two records of one field tie; the loop kept the first."""
        fields = [generate_hurricane_field("TC", t) for t in (1, 1, 24)]
        pipeline = repro.FXRZ(
            get_compressor("sz"),
            config=repro.FXRZConfig(stationary_points=8, augmented_samples=60),
        )
        pipeline.fit(fields)
        engine = GuardedInferenceEngine(pipeline)
        first, second, _ = engine._records
        np.testing.assert_array_equal(first.features, second.features)
        assert engine._nearest_record(first.features) is first
        assert engine._nearest_record(first.features + 1e-3) is first
