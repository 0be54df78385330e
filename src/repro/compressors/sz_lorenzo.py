"""Classic SZ (1.4/2.x)-style Lorenzo-predictive compressor.

Before SZ3's interpolation hierarchy, SZ predicted each point from its
already-reconstructed preceding neighbors with the Lorenzo predictor
(paper Eqs. 1-2) and quantized the residual. The data dependency makes
a naive implementation sequential, but the dependencies only ever point
to neighbors with a strictly smaller index sum — so all points on one
anti-diagonal *wavefront* (i + j + k = s) are mutually independent and
can be coded as one vectorized batch. A d-D array needs only
``sum(shape)`` wavefront steps regardless of size.

Registered as ``"sz2"``; the SZ3-style interpolation compressor
(``"sz"``) remains the default. Comparing the two reproduces the known
SZ2-vs-SZ3 trade-off on smooth fields.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.compressors import kernels
from repro.compressors.base import CompressedBlob, Compressor, register_compressor
from repro.compressors.kernels import KernelArena
from repro.compressors.quantizer import LinearQuantizer
from repro.encoding import HuffmanCodec, zero_rle_decode, zero_rle_encode
from repro.encoding.varint import decode_section, encode_section
from repro.errors import CorruptStreamError

#: Neighbor offsets and inclusion-exclusion signs of the Lorenzo
#: predictor per rank: offset tuples subtract 1 from some axes.
def _lorenzo_stencil(ndim: int) -> list[tuple[tuple[int, ...], int]]:
    stencil = []
    for mask in range(1, 1 << ndim):
        offset = tuple((mask >> a) & 1 for a in range(ndim))
        sign = -1 if bin(mask).count("1") % 2 == 0 else 1
        stencil.append((offset, sign))
    return stencil


@lru_cache(maxsize=32)
def _wavefronts(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices sorted by wavefront, plus wavefront boundaries.

    Returns:
        ``(order, starts)``: ``order`` holds all flat indices sorted by
        index-sum; ``starts[s] : starts[s+1]`` slices wavefront ``s``.
    """
    grids = np.indices(shape)
    sums = np.sum(grids, axis=0).ravel()
    order = np.argsort(sums, kind="stable")
    max_sum = int(sums.max())
    starts = np.searchsorted(sums[order], np.arange(max_sum + 2))
    return order.astype(np.int64), starts.astype(np.int64)


@register_compressor
class SZLorenzoCompressor(Compressor):
    """Wavefront-vectorized Lorenzo compressor (classic SZ style)."""

    name = "sz2"
    error_mode = "abs"
    config_scale = "log"

    def _traverse(
        self,
        shape: tuple[int, ...],
        quantizer: LinearQuantizer,
        data: np.ndarray | None,
        codes_in: np.ndarray | None,
        outliers_in: np.ndarray | None,
        arena: KernelArena,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shared encoder/decoder wavefront sweep.

        In encode mode (``data`` given) produces codes and outlier
        values; in decode mode (``codes_in`` given) consumes them. Both
        modes build the identical reconstruction, guaranteeing
        encoder/decoder prediction agreement. Each wavefront batch runs
        through the fused kernel pass writing codes into one
        arena-backed buffer at a running offset.
        """
        ndim = len(shape)
        stencil = _lorenzo_stencil(ndim)
        # Zero-padded reconstruction: border cells stand in for the
        # phantom zero neighbors of SZ's convention.
        padded_shape = tuple(n + 1 for n in shape)
        recon = arena.zeros("sz2.recon", padded_shape, np.float64)
        order, starts = _wavefronts(shape)
        # Element strides of the C-contiguous padded array.
        padded_strides = np.array(recon.strides, dtype=np.int64) // recon.itemsize
        flat_recon = recon.ravel()
        coords = np.unravel_index(order, shape)
        # Padded-array flat position of every point, in wavefront order.
        positions = arena.zeros("sz2.positions", order.size, np.int64)
        for a in range(ndim):
            positions += (coords[a] + 1) * padded_strides[a]
        data_flat = data.ravel() if data is not None else None

        total = order.size
        codes = (
            arena.scratch("sz2.codes", total, np.int64)
            if data is not None
            else codes_in
        )
        outliers_out: list[np.ndarray] = []
        out_pos = 0
        for s in range(starts.size - 1):
            lo, hi = int(starts[s]), int(starts[s + 1])
            if lo == hi:
                continue
            base = positions[lo:hi]
            pred = arena.zeros("sz2.pred", hi - lo, np.float64)
            shifted = arena.scratch("sz2.shifted", hi - lo, np.int64)
            gather = arena.scratch("sz2.gather", hi - lo, np.float64)
            for offset, sign in stencil:
                shift = sum(
                    offset[a] * padded_strides[a] for a in range(ndim)
                )
                np.subtract(base, shift, out=shifted)
                np.take(flat_recon, shifted, out=gather)
                if sign > 0:
                    pred += gather
                else:
                    pred -= gather

            if data is not None:
                target = arena.scratch("sz2.target", hi - lo, np.float64)
                np.take(data_flat, order[lo:hi], out=target)
                block_outliers = kernels.encode_block(
                    target, pred, quantizer, codes[lo:hi], arena
                )
                if block_outliers.size:
                    outliers_out.append(block_outliers)
            else:
                out_pos += kernels.decode_block(
                    codes_in[lo:hi], pred, quantizer,
                    outliers_in, out_pos, arena,
                )
            flat_recon[base] = pred

        inner = tuple(slice(1, None) for _ in shape)
        result = recon[inner]
        outliers = (
            np.concatenate(outliers_out)
            if outliers_out
            else np.zeros(0, np.float64)
        )
        return result, codes if data is not None else codes_in, outliers

    # -- compression ----------------------------------------------------------

    def _compress_payload(
        self,
        array: np.ndarray,
        config: float,
        arena: KernelArena | None = None,
    ) -> bytes:
        if arena is None:
            arena = KernelArena()
        data = array.astype(np.float64)
        quantizer = LinearQuantizer(config)
        _, codes, outliers = self._traverse(
            data.shape, quantizer, data, None, None, arena
        )
        huffman = HuffmanCodec()
        tokens, literals = zero_rle_encode(codes, arena=arena)
        header = np.array([config], dtype=np.float64).tobytes()
        return b"".join(
            (
                encode_section(header),
                encode_section(huffman.encode(tokens)),
                encode_section(huffman.encode(literals)),
                encode_section(outliers.astype(np.float64).tobytes()),
            )
        )

    # -- decompression --------------------------------------------------------

    def _decompress_payload(
        self, blob: CompressedBlob, arena: KernelArena | None = None
    ) -> np.ndarray:
        if arena is None:
            arena = KernelArena()
        header, offset = decode_section(blob.data, 0)
        if len(header) != 8:
            raise CorruptStreamError("bad sz2 header")
        config = float(np.frombuffer(header, dtype=np.float64)[0])
        tokens_blob, offset = decode_section(blob.data, offset)
        literals_blob, offset = decode_section(blob.data, offset)
        outlier_blob, offset = decode_section(blob.data, offset)

        huffman = HuffmanCodec()
        codes = zero_rle_decode(
            huffman.decode(tokens_blob), huffman.decode(literals_blob)
        )
        count = int(np.prod(blob.original_shape))
        if codes.size != count:
            raise CorruptStreamError("sz2 code count mismatch")
        outliers = np.frombuffer(outlier_blob, dtype=np.float64)

        quantizer = LinearQuantizer(config)
        recon, _, _ = self._traverse(
            blob.original_shape, quantizer, None, codes, outliers, arena
        )
        return recon.astype(blob.original_dtype).ravel()
