"""MGARD-like multigrid error-bounded lossy compressor.

MGARD(+) expresses a field as a hierarchy of multigrid levels: the
coefficient of a node at level ``l`` is the difference between its value
and the multilinear interpolation of the surrounding coarser-level
nodes, and coefficients are quantized with level-dependent steps before
entropy coding. This re-implementation keeps that structure:

* the same power-of-two refinement pyramid as the SZ-like compressor,
  but with strictly **linear** (multilinear, axis-factored)
  interpolation — MGARD's piecewise-linear basis;
* **level-dependent quantization**: finer levels get geometrically
  smaller bins (``eb * (1 - r) * r**depth`` with ``r = 1/2``), MGARD's
  error-budget distribution across levels, summing below ``eb``;
* coefficients are entropy coded **per level** (one Huffman stream per
  pyramid level), mirroring MGARD+'s level-grouped encoding.

Compared to the SZ-like compressor this trades prediction quality
(linear vs cubic) for finer bins at fine levels, which yields a visibly
different CR-vs-error-bound curve — exactly the behavioural difference
the paper's compressor-agnostic framework has to absorb.
"""

from __future__ import annotations

import numpy as np

from repro.compressors import kernels
from repro.compressors.base import CompressedBlob, Compressor, register_compressor
from repro.compressors.kernels import KernelArena
from repro.compressors.predictors import interp_prediction_linear
from repro.compressors.quantizer import LinearQuantizer
from repro.compressors.sz import _initial_stride, _plan_steps
from repro.encoding import HuffmanCodec, zero_rle_decode, zero_rle_encode
from repro.encoding.varint import decode_section, encode_section
from repro.errors import CorruptStreamError

#: Geometric ratio of the per-level error budget.
_LEVEL_RATIO = 0.5


def _level_bins(error_bound: float, n_levels: int) -> list[float]:
    """Per-level quantizer bounds, coarse -> fine, each <= error_bound.

    The budget of depth ``d`` is ``eb * (1 - r) * r**d`` normalized so
    the *maximum* (not the sum) stays below ``eb`` — every point is
    quantized exactly once in the recon-based scheme, so its error is
    its own level's bin, not an accumulation.
    """
    if n_levels <= 1:
        return [error_bound]
    # Coarse levels may use the full bound; fine levels shrink so that
    # high-frequency detail is kept crisper (MGARD's s>0 flavor).
    return [
        error_bound * (_LEVEL_RATIO ** (depth / 2.0))
        for depth in range(n_levels)
    ]


def _step_depths(steps) -> list[int]:
    """Pyramid level of each refinement step (1 = coarsest stride).

    Steps run coarse to fine, so the depths never decrease.
    """
    curs = sorted({step.cur for step in steps}, reverse=True)
    depth_of = {cur: depth + 1 for depth, cur in enumerate(curs)}
    return [depth_of[step.cur] for step in steps]


@register_compressor
class MGARDCompressor(Compressor):
    """Multigrid hierarchy compressor with level-scaled quantization."""

    name = "mgard"
    error_mode = "abs"
    config_scale = "log"

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
        mean = float(data.mean())
        recon = np.zeros_like(data)

        s0 = _initial_stride(data.shape)
        steps = _plan_steps(data.shape, s0)
        depths = _step_depths(steps)
        n_levels = 1 + len(set(depths))
        quantizers = [LinearQuantizer(b) for b in _level_bins(config, n_levels)]

        # Levels are coded coarse to fine, so level d's codes fill
        # codes[bounds[d] : bounds[d + 1]] of one buffer.
        codes = arena.scratch("mgard.codes", data.size, np.int64)
        bounds = [0] * (n_levels + 1)

        coarse_key = tuple(slice(0, None, s0) for _ in data.shape)
        target = data[coarse_key]
        pred = np.full(target.shape, mean)
        pos = target.size
        outlier_parts = [
            kernels.encode_block(
                target, pred, quantizers[0], codes[:pos].reshape(target.shape),
                arena,
            )
        ]
        bounds[1] = pos
        recon[coarse_key] = pred

        for step, depth in zip(steps, depths):
            pred = interp_prediction_linear(recon[step.key], step.axis, step.half)
            block_codes = codes[pos : pos + pred.size].reshape(pred.shape)
            pos += pred.size
            bounds[depth + 1] = pos
            outlier_parts.append(
                kernels.encode_block(
                    data[step.write_key], pred, quantizers[depth],
                    block_codes, arena,
                )
            )
            recon[step.write_key] = pred

        huffman = HuffmanCodec()
        header = np.array([config, mean], dtype=np.float64).tobytes() + bytes(
            [n_levels]
        )
        sections = [encode_section(header)]
        for depth in range(n_levels):
            tokens, literals = zero_rle_encode(
                codes[bounds[depth] : bounds[depth + 1]]
            )
            sections.append(encode_section(huffman.encode(tokens)))
            sections.append(encode_section(huffman.encode(literals)))
        sections.append(encode_section(np.concatenate(outlier_parts).tobytes()))
        return b"".join(sections)

    # -- decompression --------------------------------------------------------

    def _decompress_payload(
        self, blob: CompressedBlob, arena: KernelArena | None = None
    ) -> np.ndarray:
        if arena is None:
            arena = KernelArena()
        header, offset = decode_section(blob.data, 0)
        if len(header) != 17:
            raise CorruptStreamError("bad MGARD header")
        config, mean = np.frombuffer(header[:16], dtype=np.float64)
        n_levels = header[16]

        huffman = HuffmanCodec()
        level_streams: list[np.ndarray] = []
        for _ in range(n_levels):
            tokens_blob, offset = decode_section(blob.data, offset)
            literals_blob, offset = decode_section(blob.data, offset)
            level_streams.append(
                zero_rle_decode(
                    huffman.decode(tokens_blob), huffman.decode(literals_blob)
                )
            )
        outlier_blob, offset = decode_section(blob.data, offset)
        outliers = np.frombuffer(outlier_blob, dtype=np.float64)

        shape = blob.original_shape
        s0 = _initial_stride(shape)
        steps = _plan_steps(shape, s0)
        depths = _step_depths(steps)
        if 1 + len(set(depths)) != n_levels:
            raise CorruptStreamError("MGARD level count mismatch")
        quantizers = [
            LinearQuantizer(b) for b in _level_bins(float(config), n_levels)
        ]

        recon = np.zeros(shape, dtype=np.float64)
        level_pos = [0] * n_levels
        out_pos = 0

        def decode(pred: np.ndarray, depth: int) -> None:
            """Reconstruct one block of ``depth`` into ``pred``."""
            nonlocal out_pos
            stream, pos = level_streams[depth], level_pos[depth]
            if pos + pred.size > stream.size:
                raise CorruptStreamError("MGARD code stream underflow")
            level_pos[depth] = pos + pred.size
            out_pos += kernels.decode_block(
                stream[pos : pos + pred.size].reshape(pred.shape),
                pred, quantizers[depth], outliers, out_pos, arena,
            )

        coarse_key = tuple(slice(0, None, s0) for _ in shape)
        pred = np.full(recon[coarse_key].shape, mean)
        decode(pred, 0)
        recon[coarse_key] = pred

        for step, depth in zip(steps, depths):
            pred = interp_prediction_linear(recon[step.key], step.axis, step.half)
            decode(pred, depth)
            recon[step.write_key] = pred

        return recon.astype(blob.original_dtype).ravel()
