"""Unit tests for the Lorenzo and interpolation predictors."""

import numpy as np
import pytest

from repro.compressors.predictors import (
    interp_prediction_cubic,
    interp_prediction_linear,
    lorenzo_prediction,
    lorenzo_reconstruct,
    lorenzo_residuals,
)


class TestLorenzo:
    @pytest.mark.parametrize("shape", [(50,), (12, 9), (6, 7, 8), (3, 4, 5, 6)])
    def test_residual_reconstruct_inverse(self, rng, shape):
        data = rng.integers(-1000, 1000, shape).astype(np.int64)
        recon = lorenzo_reconstruct(lorenzo_residuals(data))
        assert np.array_equal(recon, data)

    def test_2d_matches_paper_equation(self, rng):
        # Eq. (1): pred = d[i-1,j] + d[i,j-1] - d[i-1,j-1].
        data = rng.standard_normal((8, 8))
        pred = lorenzo_prediction(data)
        i, j = 4, 5
        expected = data[i - 1, j] + data[i, j - 1] - data[i - 1, j - 1]
        assert pred[i, j] == pytest.approx(expected)

    def test_3d_matches_paper_equation(self, rng):
        # Eq. (2): inclusion-exclusion over the preceding cube corner.
        d = rng.standard_normal((6, 6, 6))
        pred = lorenzo_prediction(d)
        i, j, k = 3, 4, 2
        expected = (
            d[i - 1, j, k]
            + d[i, j - 1, k]
            + d[i, j, k - 1]
            - d[i - 1, j - 1, k]
            - d[i - 1, j, k - 1]
            - d[i, j - 1, k - 1]
            + d[i - 1, j - 1, k - 1]
        )
        assert pred[i, j, k] == pytest.approx(expected)

    def test_constant_field_residual_is_zero_inside(self):
        data = np.full((5, 5), 3.0)
        residuals = lorenzo_residuals(data)
        assert np.allclose(residuals[1:, 1:], 0.0)

    def test_linear_ramp_predicted_exactly_inside(self):
        x, y = np.meshgrid(np.arange(10.0), np.arange(10.0), indexing="ij")
        data = 2 * x + 3 * y
        residuals = lorenzo_residuals(data)
        assert np.allclose(residuals[1:, 1:], 0.0)


class TestInterpolation:
    """Each call predicts one full pyramid step: the midpoints
    ``half, 3*half, ...`` of ``axis``."""

    def test_linear_midpoint_exact_on_linear_data(self):
        recon = np.arange(0.0, 33.0)
        pred = interp_prediction_linear(recon, 0, 2)
        assert np.allclose(pred, recon[2::4])

    def test_linear_boundary_falls_back_to_left(self):
        recon = np.arange(0.0, 7.0)
        pred = interp_prediction_linear(recon, 0, 2)  # midpoints 2 and 6
        assert pred.shape == (2,)
        assert pred[-1] == recon[4]  # right neighbor at 8 out of range

    def test_cubic_exact_on_cubic_polynomial(self):
        # Eq. (3) reproduces cubics exactly at midpoints.
        t = np.arange(0.0, 64.0)
        recon = 0.5 * t**3 - 2 * t**2 + t - 7
        pred = interp_prediction_cubic(recon, 0, 4)  # midpoints 4, 12, ..., 60
        # Midpoints 12..44 keep i +- 3h in range, so none falls back.
        assert np.allclose(pred[1:6], recon[12:45:8], rtol=1e-10)

    def test_cubic_falls_back_to_linear_near_edges(self):
        recon = np.arange(0.0, 13.0) ** 2
        cubic = interp_prediction_cubic(recon, 0, 2)  # midpoints 2, 6, 10
        linear = interp_prediction_linear(recon, 0, 2)
        # i-3h = -4 at 2 and i+3h = 16 at 10 are out of range; 6 has
        # all four neighbours and is exact on the quadratic.
        assert cubic[0] == linear[0] and cubic[2] == linear[2]
        assert cubic[1] == recon[6] != linear[1]

    def test_multi_axis_prediction(self, rng):
        recon = rng.standard_normal((16, 17))
        pred = interp_prediction_linear(recon, 1, 4)  # midpoints 4 and 12
        assert pred[3, 0] == pytest.approx(0.5 * (recon[3, 0] + recon[3, 8]))
        assert pred[5, 1] == pytest.approx(0.5 * (recon[5, 8] + recon[5, 16]))

    def test_prediction_shape(self, rng):
        recon = rng.standard_normal((8, 20, 8))
        pred = interp_prediction_linear(recon, 1, 2)
        assert pred.shape == (8, 5, 8)
