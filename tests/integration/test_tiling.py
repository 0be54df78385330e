"""Tests for tiled fixed-ratio compression."""

import numpy as np
import pytest

import repro
from repro.compressors import get_compressor
from repro.core.tiling import TiledFixedRatio, tile_grid
from repro.errors import InvalidConfiguration, NotFittedError

from tests.conftest import small_forest_factory


class TestTileGrid:
    def test_exact_cover(self):
        grid = tile_grid((8, 12), (4, 4))
        assert len(grid) == 2 * 3
        covered = np.zeros((8, 12), dtype=int)
        for _, slices in grid:
            covered[slices] += 1
        assert (covered == 1).all()

    def test_border_tiles_shrink(self):
        grid = tile_grid((10,), (4,))
        sizes = [s[0].stop - s[0].start for _, s in grid]
        assert sizes == [4, 4, 2]

    def test_rank_mismatch_rejected(self):
        with pytest.raises(InvalidConfiguration):
            tile_grid((8, 8), (4,))

    def test_bad_tile_rejected(self):
        with pytest.raises(InvalidConfiguration):
            tile_grid((8,), (0,))


@pytest.fixture(scope="module")
def fitted():
    rng = np.random.default_rng(31)
    lin = np.linspace(0, 4 * np.pi, 24)
    x, y, z = np.meshgrid(lin, lin, lin, indexing="ij")
    fields = [
        (np.sin(x + 0.3 * i) * np.cos(y) + 0.04 * rng.standard_normal((24,) * 3))
        .astype(np.float32)
        for i in range(3)
    ]
    config = repro.FXRZConfig(stationary_points=8, augmented_samples=60)
    pipeline = repro.FXRZ(
        get_compressor("sz"), config=config, model_factory=small_forest_factory
    )
    pipeline.fit(fields[:2])
    return pipeline, fields[2]


class TestTiledCompression:
    def test_roundtrip_preserves_shape_and_bound(self, fitted):
        pipeline, data = fitted
        tiled = TiledFixedRatio(pipeline, (12, 12, 12))
        result = tiled.compress(data, 6.0)
        assert len(result.tiles) == 8
        recon = tiled.decompress(result)
        assert recon.shape == data.shape
        # Each tile honored its own error bound; check globally against
        # the loosest per-tile bound.
        worst = max(t.blob.config for t in result.tiles)
        err = np.max(np.abs(data.astype(np.float64) - recon))
        assert err <= worst * (1 + 1e-6) + 1e-6 * np.abs(data).max()

    def test_aggregate_ratio_near_target(self, fitted):
        pipeline, data = fitted
        tiled = TiledFixedRatio(pipeline, (12, 12, 12))
        result = tiled.compress(data, 6.0)
        assert result.estimation_error < 0.8
        assert result.measured_ratio > 1.0

    def test_tiles_get_individual_configs(self, fitted):
        pipeline, data = fitted
        # Make one corner constant: its tile should get a different
        # (cheaper) configuration than the busy tiles.
        patched = data.copy()
        patched[:12, :12, :12] = patched.mean()
        tiled = TiledFixedRatio(pipeline, (12, 12, 12))
        result = tiled.compress(patched, 6.0)
        configs = {t.index: t.blob.config for t in result.tiles}
        assert len(set(configs.values())) > 1

    def test_unfitted_pipeline_rejected(self):
        pipeline = repro.FXRZ(get_compressor("sz"))
        with pytest.raises(NotFittedError):
            TiledFixedRatio(pipeline, (8, 8, 8))

    def test_bad_target_rejected(self, fitted):
        pipeline, data = fitted
        tiled = TiledFixedRatio(pipeline, (12, 12, 12))
        with pytest.raises(InvalidConfiguration):
            tiled.compress(data, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_tile_rejected_before_compression(self, fitted, bad):
        """A NaN or Inf off the sampling lattice is caught by the tile's
        constant-block scan, not by a later compression."""
        pipeline, data = fitted
        polluted = data.copy()
        polluted[1, 1, 1] = bad
        tiled = TiledFixedRatio(pipeline, (12, 12, 12))
        with pytest.raises(InvalidConfiguration, match="constant-block scan"):
            tiled.compress(polluted, 6.0)
