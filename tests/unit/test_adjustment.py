"""Unit tests for Compressibility Adjustment (Sec. IV-E2)."""

import numpy as np
import pytest

from repro.core.adjustment import (
    _block_ranges,
    adjusted_ratio,
    constant_block_mask,
    nonconstant_fraction,
)
from repro.errors import InvalidConfiguration


def _block_ranges_reference(data, block_size):
    """Per-block max - min over an explicit block-major copy."""
    pad = [(0, (-n) % block_size) for n in data.shape]
    data = np.pad(data, pad, mode="edge")
    grid = [n // block_size for n in data.shape]
    split = [m for g in grid for m in (g, block_size)]
    ndim = data.ndim
    perm = [2 * i for i in range(ndim)] + [2 * i + 1 for i in range(ndim)]
    flat = data.reshape(split).transpose(perm).reshape(int(np.prod(grid)), -1)
    return (flat.max(axis=1) - flat.min(axis=1)).reshape(grid)


class TestBlockMask:
    def test_constant_field_all_constant(self):
        mask = constant_block_mask(np.full((16, 16), 7.0))
        assert mask.all()

    def test_mixed_field(self):
        data = np.full((8, 8), 10.0)
        data[:4, :4] += np.random.default_rng(0).standard_normal((4, 4)) * 10
        mask = constant_block_mask(data, block_size=4)
        assert mask.shape == (2, 2)
        assert not mask[0, 0]
        assert mask[1, 1]

    def test_threshold_scales_with_mean(self):
        # Same relative deviation: classification must match.
        base = np.full((8, 8), 1.0)
        base[0, 0] = 1.05
        scaled = base * 1000
        assert np.array_equal(
            constant_block_mask(base), constant_block_mask(scaled)
        )

    def test_partial_blocks_padded(self):
        data = np.random.default_rng(1).standard_normal((9, 7))
        mask = constant_block_mask(data, block_size=4)
        assert mask.shape == (3, 2)

    def test_zero_mean_field_mostly_nonconstant(self, rng):
        data = rng.standard_normal((16, 16))
        assert nonconstant_fraction(data) > 0.9

    def test_bad_params_rejected(self):
        with pytest.raises(InvalidConfiguration):
            constant_block_mask(np.zeros((4, 4)), block_size=1)
        with pytest.raises(InvalidConfiguration):
            constant_block_mask(np.zeros((4, 4)), lam=0.0)
        with pytest.raises(InvalidConfiguration):
            constant_block_mask(np.zeros((4, 4)), lam=1.0)


@pytest.mark.kernels
@pytest.mark.parametrize("shape", [(16, 48, 48), (33, 70, 129), (9, 7), (5,)])
@pytest.mark.parametrize("block_size", [2, 4, 5])
def test_block_ranges_match_block_major_reference(shape, block_size):
    data = np.random.default_rng(block_size).standard_normal(shape)
    np.testing.assert_array_equal(
        _block_ranges(data, block_size), _block_ranges_reference(data, block_size)
    )


class TestNonconstantFraction:
    def test_bounds(self, rng):
        data = rng.standard_normal((12, 12, 12))
        r = nonconstant_fraction(data)
        assert 0.0 <= r <= 1.0

    def test_sparse_field_has_low_r(self):
        data = np.zeros((32, 32))
        data[:4, :4] = np.random.default_rng(2).uniform(1, 2, (4, 4))
        assert nonconstant_fraction(data) < 0.1

    def test_lambda_monotonicity(self, rng):
        """Larger lambda -> more blocks counted constant -> lower R."""
        data = np.abs(rng.standard_normal((24, 24))) + 1.0
        r_small = nonconstant_fraction(data, lam=0.05)
        r_large = nonconstant_fraction(data, lam=0.15)
        assert r_large <= r_small


class TestNonFiniteField:
    """A NaN or Inf anywhere in the field, sampled or not, is rejected.

    Unchecked, one NaN makes the threshold NaN (no block constant,
    R = 1) and one +Inf makes it infinite (every block constant, R = 0).
    """

    @pytest.fixture(scope="class")
    def qcloud(self):
        from repro.datasets.hurricane import generate_hurricane_field

        return generate_hurricane_field("QCLOUD", 10)

    def test_clean_field_r(self, qcloud):
        assert nonconstant_fraction(qcloud) == pytest.approx(0.448, abs=1e-3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_value_off_sample_lattice_rejected(self, qcloud, bad):
        field = qcloud.copy()
        field[1, 1, 1] = bad  # off the stride-4 lattice
        with pytest.raises(InvalidConfiguration, match="non-finite"):
            nonconstant_fraction(field)
        with pytest.raises(InvalidConfiguration, match="non-finite"):
            constant_block_mask(field.astype(np.float64))

    def test_all_inf_edge_block_rejected(self):
        """A padded block of +Inf alone has range Inf - Inf = NaN."""
        field = np.ones((9, 9))
        field[8, 8] = np.inf
        with pytest.raises(InvalidConfiguration, match="non-finite"):
            nonconstant_fraction(field, block_size=4)


class TestAdjustedRatio:
    def test_formula_four(self):
        assert adjusted_ratio(100.0, 0.6) == pytest.approx(60.0)

    def test_full_nonconstant_is_identity(self):
        assert adjusted_ratio(42.0, 1.0) == 42.0

    def test_floor_at_one(self):
        assert adjusted_ratio(5.0, 0.01) == 1.0

    def test_bad_inputs_rejected(self):
        with pytest.raises(InvalidConfiguration):
            adjusted_ratio(0.0, 0.5)
        with pytest.raises(InvalidConfiguration):
            adjusted_ratio(10.0, 1.5)
        with pytest.raises(InvalidConfiguration):
            adjusted_ratio(10.0, -0.1)

    def test_all_constant_dataset_rejected(self):
        """R = 0 means ACR degenerates to 0 — no model can answer it."""
        with pytest.raises(InvalidConfiguration, match="entirely constant"):
            adjusted_ratio(10.0, 0.0)

    def test_all_constant_field_rejected_end_to_end(self):
        data = np.full((16, 16), 3.0)
        assert nonconstant_fraction(data) == 0.0
        with pytest.raises(InvalidConfiguration, match="entirely constant"):
            adjusted_ratio(25.0, nonconstant_fraction(data))

    def test_tiny_positive_r_clamps_not_raises(self):
        """The clamp path still owns every R in (0, 1]."""
        assert adjusted_ratio(10.0, 1e-9) == 1.0
        assert adjusted_ratio(10.0, 1e-3) == 1.0
