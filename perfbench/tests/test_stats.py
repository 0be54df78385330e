"""The tail-percentile rule and the stratified target draws."""

import numpy as np
import pytest

from fxbench.stats import (
    CHUNKS,
    MIN_BEYOND,
    chunk_median,
    TAIL_CANDIDATES,
    samples_beyond,
    stratified_log_targets,
    tail_percentile,
)


@pytest.mark.parametrize("n", list(range(20, 400)) + [999, 1000, 1001, 5000])
def test_tail_percentile_leaves_ten_samples_beyond(n):
    values = np.random.default_rng(n).permutation(n).astype(float)
    q = tail_percentile(n)
    beyond = int(np.sum(values > np.percentile(values, q)))
    assert beyond == samples_beyond(n, q)
    assert beyond >= MIN_BEYOND
    # ... and no higher candidate would still leave ten.
    higher = [c for c in TAIL_CANDIDATES if c > q]
    assert all(samples_beyond(n, c) < MIN_BEYOND for c in higher)


def test_tail_percentile_respects_ceiling():
    assert tail_percentile(100_000, ceiling=95.0) == 95.0
    assert tail_percentile(100_000, ceiling=90.0) == 90.0
    assert tail_percentile(100_000) == 99.0


def test_stratified_targets_cover_the_band():
    rng = np.random.default_rng(0)
    targets = stratified_log_targets(2.0, 200.0, 8, rng)
    logs = np.log(np.array(targets) / 2.0) / np.log(100.0)
    assert np.all((np.arange(8) / 8 <= logs) & (logs < np.arange(1, 9) / 8))


def test_a_slow_down_over_a_fifth_of_the_window_leaves_the_median():
    values = np.ones(CHUNKS * 100)
    values[:100] *= 1.8
    assert chunk_median(values, np.mean) == 1.0
    # Fewer values than slices: one value per slice.
    assert chunk_median(np.array([1.0, 3.0, 2.0]), np.mean) == 2.0
