"""SZ-like error-bounded lossy compressor.

Re-implementation of the SZ3-style interpolation compressor: a
coarse-to-fine traversal predicts each grid point from already
reconstructed points by midpoint interpolation (cubic where possible,
paper Eq. 3), quantizes the residual with linear-scaling quantization
(bin width ``2*eb``), and entropy-codes the quantization codes with
zero-run-length + Huffman coding — mirroring SZ's
prediction/quantization/Huffman(+dictionary) pipeline. The zero-RLE
layer is adaptive: when the code stream is not zero-dominated it is
skipped (header flag bit 1) and the codes are Huffman-coded directly,
halving the entropy-coding work on dense streams.

The traversal refines a power-of-two stride pyramid: at each level, each
axis in turn fills its midpoints. A step reads its neighbours, and the
encoder its target values, as strided views of the reconstruction and
the data; nothing is gathered or copied. Because both the encoder and the
decoder update the reconstruction array with *identical* float64
operations, predictions match bit-for-bit on both sides, and the
point-wise absolute error bound holds unconditionally.

The per-step predict→quantize→code-emit pass is fused through the
batched kernel layer (:mod:`repro.compressors.kernels`): each
refinement step is one vectorized pass writing quantization codes
straight into an arena-backed code buffer at a running offset, with a
symmetric fused decode. Like SZ 2.x, one canonical Huffman stage codes
the quantization codes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compressors import kernels
from repro.compressors.base import CompressedBlob, Compressor, register_compressor
from repro.compressors.kernels import KernelArena
from repro.compressors.predictors import (
    interp_prediction_cubic,
    interp_prediction_linear,
)
from repro.compressors.quantizer import LinearQuantizer
from repro.encoding import HuffmanCodec, zero_rle_decode, zero_rle_encode
from repro.encoding.varint import decode_section, encode_section
from repro.errors import CorruptStreamError

#: Header byte 17 once named the entropy backend (1 = range coding,
#: 2 = chunked Huffman, both retired); Huffman blobs carry 0.
_HUFFMAN_TAG = 0


@dataclass(frozen=True)
class _Step:
    """One refinement step: fill midpoints of ``axis`` at stride ``cur``.

    ``key`` selects the sub-grid the predictor reads (``axis`` left
    whole); ``write_key`` selects the midpoints it fills, in ``recon``
    and, for the encoder's target values, in the data.
    """

    axis: int
    cur: int
    half: int
    key: tuple[slice, ...]
    write_key: tuple[slice, ...]


def _initial_stride(shape: tuple[int, ...]) -> int:
    """Smallest power of two >= max dimension (the pyramid root stride)."""
    stride = 1
    while stride < max(shape):
        stride *= 2
    return max(stride, 2)


def _plan_steps(shape: tuple[int, ...], s0: int) -> list[_Step]:
    """Deterministic refinement schedule shared by encoder and decoder."""
    ndim = len(shape)
    steps: list[_Step] = []
    cur = s0
    while cur >= 2:
        half = cur // 2
        for axis in range(ndim):
            if half >= shape[axis]:
                continue
            # Axes already refined at this level sit at stride `half`,
            # axes still pending sit at stride `cur`; the refined axis
            # itself is left full so interpolation can gather neighbors.
            key = tuple(
                slice(None)
                if a == axis
                else slice(0, None, half if a < axis else cur)
                for a in range(ndim)
            )
            write_key = list(key)
            write_key[axis] = slice(half, None, cur)
            steps.append(
                _Step(
                    axis=axis,
                    cur=cur,
                    half=half,
                    key=key,
                    write_key=tuple(write_key),
                )
            )
        cur = half
    return steps


@register_compressor
class SZCompressor(Compressor):
    """Interpolation-predictive absolute-error-bounded compressor."""

    name = "sz"
    error_mode = "abs"
    config_scale = "log"

    def __init__(self, interpolation: str = "cubic") -> None:
        if interpolation not in ("cubic", "linear"):
            raise ValueError("interpolation must be 'cubic' or 'linear'")
        self.interpolation = interpolation

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
        mean = float(data.mean())

        recon = arena.zeros("sz.recon", data.shape, np.float64)
        codes = arena.scratch("sz.codes", data.size, np.int64)
        outlier_parts: list[np.ndarray] = []

        s0 = _initial_stride(data.shape)
        coarse_key = tuple(slice(0, None, s0) for _ in data.shape)
        target = data[coarse_key]
        pred = arena.scratch("sz.pred", target.shape, np.float64)
        pred[...] = mean
        pos = target.size
        block_codes = codes[:pos].reshape(target.shape)
        outliers = kernels.encode_block(
            target, pred, quantizer, block_codes, arena
        )
        if outliers.size:
            outlier_parts.append(outliers)
        recon[coarse_key] = pred

        predict = (
            interp_prediction_cubic
            if self.interpolation == "cubic"
            else interp_prediction_linear
        )
        for step in _plan_steps(data.shape, s0):
            pred = predict(recon[step.key], step.axis, step.half)
            count = pred.size
            block_codes = codes[pos : pos + count].reshape(pred.shape)
            pos += count
            outliers = kernels.encode_block(
                data[step.write_key], pred, quantizer, block_codes, arena
            )
            if outliers.size:
                outlier_parts.append(outliers)
            recon[step.write_key] = pred

        all_outliers = (
            np.concatenate(outlier_parts)
            if outlier_parts
            else np.zeros(0, dtype=np.float64)
        )
        return self._serialize(config, mean, codes[:pos], all_outliers, arena)

    def _serialize(
        self,
        config: float,
        mean: float,
        codes: np.ndarray,
        outliers: np.ndarray,
        arena: KernelArena | None = None,
    ) -> bytes:
        # Zero-RLE only pays on sparse code streams. When most codes are
        # non-zero it nearly doubles the entropy work (tokens + literals
        # each ~n symbols), so entropy-code the codes directly instead
        # and record the choice in header flag bit 1. The decision is a
        # pure function of the codes, so any quantization pass that
        # emits the same codes writes the same bytes.
        direct = bool(codes.size) and 2 * int(
            np.count_nonzero(codes)
        ) >= codes.size
        if direct:
            primary, literals = codes, None
        else:
            primary, literals = zero_rle_encode(codes, arena=arena)
        huffman = HuffmanCodec()
        encoded = (
            huffman.encode(primary),
            b"" if literals is None else huffman.encode(literals),
        )
        header = np.array([config, mean], dtype=np.float64).tobytes() + bytes(
            (
                (1 if self.interpolation == "cubic" else 0)
                | (2 if direct else 0),
                _HUFFMAN_TAG,
            )
        )
        return b"".join(
            (
                encode_section(header),
                encode_section(encoded[0]),
                encode_section(encoded[1]),
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
        if len(header) != 18:
            raise CorruptStreamError("bad SZ header")
        config, mean = np.frombuffer(header[:16], dtype=np.float64)
        flags = header[16]
        if flags & ~0b11:
            raise CorruptStreamError("unknown SZ header flags")
        interpolation = "cubic" if flags & 1 else "linear"
        # Flag bit 1: quantization codes were entropy-coded directly
        # (no zero-RLE layer); legacy blobs carry 0/1 here.
        direct = bool(flags & 2)
        if header[17] != _HUFFMAN_TAG:
            raise CorruptStreamError(
                f"unknown or retired SZ entropy backend tag {header[17]}"
            )
        codec = HuffmanCodec()
        tokens_blob, offset = decode_section(blob.data, offset)
        literals_blob, offset = decode_section(blob.data, offset)
        outlier_blob, offset = decode_section(blob.data, offset)

        if direct:
            codes = codec.decode(tokens_blob)
        else:
            codes = zero_rle_decode(
                codec.decode(tokens_blob), codec.decode(literals_blob)
            )
        outliers = np.frombuffer(outlier_blob, dtype=np.float64)

        shape = blob.original_shape
        quantizer = LinearQuantizer(float(config))
        recon = arena.zeros("sz.recon", shape, np.float64)
        code_pos = 0
        out_pos = 0

        s0 = _initial_stride(shape)
        coarse_key = tuple(slice(0, None, s0) for _ in shape)
        coarse_shape = recon[coarse_key].shape
        count = 1
        for dim in coarse_shape:
            count *= dim
        if count > codes.size:
            raise CorruptStreamError("SZ code stream underflow")
        block_codes = codes[:count].reshape(coarse_shape)
        code_pos = count
        pred = arena.scratch("sz.pred", coarse_shape, np.float64)
        pred[...] = mean
        out_pos += kernels.decode_block(
            block_codes, pred, quantizer, outliers, out_pos, arena
        )
        recon[coarse_key] = pred

        predict = (
            interp_prediction_cubic
            if interpolation == "cubic"
            else interp_prediction_linear
        )
        for step in _plan_steps(shape, s0):
            pred = predict(recon[step.key], step.axis, step.half)
            count = pred.size
            if code_pos + count > codes.size:
                raise CorruptStreamError("SZ code stream underflow")
            block_codes = codes[code_pos : code_pos + count].reshape(pred.shape)
            code_pos += count
            out_pos += kernels.decode_block(
                block_codes, pred, quantizer, outliers, out_pos, arena
            )
            recon[step.write_key] = pred

        if code_pos != codes.size:
            raise CorruptStreamError("trailing SZ quantization codes")
        return recon.astype(blob.original_dtype).ravel()
