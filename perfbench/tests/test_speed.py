"""The host-speed normalisation."""

import numpy as np
import pytest

from fxbench.speed import HALF_WINDOW, NOMINAL_MS, block_speed, local_speed, reference


@pytest.mark.parametrize("kind", sorted(NOMINAL_MS))
def test_a_host_that_slows_down_leaves_normalised_times_unchanged(kind):
    # The host halves its speed midway: the kernel and the operations
    # both take twice as long, so the rescaled times stay flat.
    n = 8 * HALF_WINDOW
    slow = np.arange(n) >= n // 2
    ref = NOMINAL_MS[kind] * 1e-3 * np.where(slow, 2.0, 1.0)
    ops = 0.004 * np.where(slow, 2.0, 1.0)
    assert np.allclose(ops * local_speed(ref, kind), 0.004)


def test_one_stray_reference_sample_does_not_move_the_factor():
    ref = np.full(4 * HALF_WINDOW, NOMINAL_MS["dispatch"] * 1e-3)
    ref[HALF_WINDOW] *= 50.0
    assert np.allclose(local_speed(ref, "dispatch"), 1.0)


@pytest.mark.parametrize("kind", sorted(NOMINAL_MS))
def test_kernels_report_positive_cpu_time(kind):
    run = reference(kind)
    assert all(run() > 0 for _ in range(3))
    assert 0 < block_speed([kind], repeats=3) < np.inf
