"""Tiled fixed-ratio compression.

Scientific data libraries (HDF5, ADIOS2 — the paper's Sec. I
motivation) store arrays as independently compressed chunks. This
module applies a trained FXRZ pipeline *per tile*: each tile gets its
own feature pass and error configuration, so locally smooth tiles
receive looser bounds and busy tiles tighter ones, while the aggregate
ratio tracks the user's target.

The per-tile decision is exactly the framework's cheap inference, so
tiling costs no compressor runs beyond the unavoidable one per tile.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from repro.compressors.base import CompressedBlob
from repro.core.adjustment import nonconstant_fraction
from repro.core.pipeline import FXRZ
from repro.errors import InvalidConfiguration, NotFittedError


@dataclass(frozen=True)
class TileRecord:
    """One compressed tile."""

    index: tuple[int, ...]
    slices: tuple[slice, ...]
    blob: CompressedBlob


@dataclass(frozen=True)
class TiledResult:
    """Outcome of a tiled fixed-ratio compression."""

    tiles: list[TileRecord]
    original_shape: tuple[int, ...]
    target_ratio: float

    @property
    def compressed_nbytes(self) -> int:
        return sum(t.blob.nbytes for t in self.tiles)

    @property
    def original_nbytes(self) -> int:
        return sum(t.blob.original_nbytes for t in self.tiles)

    @property
    def measured_ratio(self) -> float:
        return self.original_nbytes / self.compressed_nbytes

    @property
    def estimation_error(self) -> float:
        return abs(self.target_ratio - self.measured_ratio) / self.target_ratio


def tile_grid(
    shape: tuple[int, ...], tile_shape: tuple[int, ...]
) -> list[tuple[tuple[int, ...], tuple[slice, ...]]]:
    """Cover ``shape`` with axis-aligned tiles of at most ``tile_shape``.

    Border tiles are smaller rather than padded, so every element
    belongs to exactly one tile.
    """
    if len(tile_shape) != len(shape):
        raise InvalidConfiguration("tile_shape rank must match data rank")
    if any(t < 1 for t in tile_shape):
        raise InvalidConfiguration("tile dimensions must be >= 1")
    counts = [(n + t - 1) // t for n, t in zip(shape, tile_shape)]
    grid = []
    for index in itertools.product(*(range(c) for c in counts)):
        slices = tuple(
            slice(i * t, min((i + 1) * t, n))
            for i, t, n in zip(index, tile_shape, shape)
        )
        grid.append((index, slices))
    return grid


def _entirely_constant(pipeline: FXRZ, tile: np.ndarray) -> bool:
    cfg = pipeline.config
    if not cfg.use_adjustment:
        return False
    return (
        nonconstant_fraction(tile, block_size=cfg.block_size, lam=cfg.lam)
        == 0.0
    )


def _constant_tile_config(pipeline: FXRZ, tile: np.ndarray) -> float:
    """A config for a tile whose every block sits below the
    constancy threshold: an error bound at that same threshold (the
    variation CA already calls noise), or the loosest precision."""
    compressor = pipeline.compressor
    if compressor.error_mode == "abs":
        bound = pipeline.config.lam * abs(float(tile.mean()))
        return compressor.normalize_config(bound if bound > 0.0 else 1e-12)
    lo, _ = compressor.config_domain()
    return compressor.normalize_config(lo)


def _tile_batch(batch, arrays: dict, context: dict) -> list[TileRecord]:
    """Analyze, estimate, and compress a batch of tiles (executor worker).

    The feature pass, the model query, and the compression are all
    per-tile and independent of every other tile, so the whole chunk
    job runs where the tile is scheduled; the parent only collects the
    finished tile records (a few compressed bytes, not a field).
    """
    pipeline = context["pipeline"]
    records = []
    for index, slices in batch:
        # No ascontiguousarray here: the feature pass reads the view
        # as-is and the compressors' input validation makes tiles
        # contiguous exactly when a copy is unavoidable.
        tile = arrays["data"][slices]
        if _entirely_constant(pipeline, tile):
            # R = 0: estimation is degenerate (the adjustment layer
            # rejects it), but the tile itself is trivial — compress
            # it directly under the constancy tolerance.
            blob = pipeline.compressor.compress(
                tile, _constant_tile_config(pipeline, tile)
            )
        else:
            blob = pipeline.compress_to_ratio(
                tile, context["target_ratio"]
            ).blob
        records.append(TileRecord(index=index, slices=slices, blob=blob))
    return records


class TiledFixedRatio:
    """Apply a trained pipeline tile by tile.

    Args:
        pipeline: a fitted :class:`~repro.core.pipeline.FXRZ`.
        tile_shape: chunk dimensions (HDF5-chunk style).
        ctx: a :class:`~repro.runtime.RuntimeContext` supplying the
            tile-level executor; defaults to the pipeline's own
            context. Tiles are independent by construction, so results
            are identical at any worker count; the full field ships to
            process workers once via shared memory.
    """

    def __init__(
        self,
        pipeline: FXRZ,
        tile_shape: tuple[int, ...],
        *,
        ctx=None,
    ) -> None:
        if not pipeline.is_fitted:
            raise NotFittedError("pipeline must be fitted before tiling")
        self.pipeline = pipeline
        self.tile_shape = tuple(int(t) for t in tile_shape)
        if ctx is None:
            ctx = getattr(pipeline, "ctx", None)
        self.ctx = ctx
        self.executor = ctx.executor if ctx is not None else None

    def compress(self, data: np.ndarray, target_ratio: float) -> TiledResult:
        """Fixed-ratio compress every tile independently."""
        if target_ratio <= 0:
            raise InvalidConfiguration("target ratio must be > 0")
        data = np.asarray(data)
        grid = tile_grid(data.shape, self.tile_shape)
        context = {"pipeline": self.pipeline, "target_ratio": float(target_ratio)}
        if self.executor is not None and len(grid) > 1:
            # Fat batches: one pool task per worker, not per tile —
            # small tiles would otherwise pay dispatch per chunk.
            tiles = self.executor.map_batched(
                _tile_batch, grid, shared={"data": data}, context=context
            )
        else:
            tiles = _tile_batch(grid, {"data": data}, context)
        return TiledResult(
            tiles=tiles,
            original_shape=data.shape,
            target_ratio=float(target_ratio),
        )

    def decompress(self, result: TiledResult) -> np.ndarray:
        """Reassemble the full array from its tiles."""
        if not result.tiles:
            raise InvalidConfiguration("result holds no tiles")
        dtype = np.dtype(result.tiles[0].blob.original_dtype)
        out = np.empty(result.original_shape, dtype=dtype)
        for tile in result.tiles:
            out[tile.slices] = self.pipeline.compressor.decompress(tile.blob)
        return out
