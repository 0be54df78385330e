"""Error-controlled lossy compressors.

Pure-Python/numpy re-implementations of the four compressor families the
paper evaluates (Sec. V-A3):

* :class:`~repro.compressors.sz.SZCompressor` — interpolation-predictive,
  absolute-error-bounded (SZ3-style).
* :class:`~repro.compressors.zfp.ZFPCompressor` — block-transform with
  bitplane truncation (fixed-accuracy) plus a fixed-rate mode.
* :class:`~repro.compressors.fpzip.FPZIPCompressor` — mantissa-precision
  controlled predictive coder.
* :class:`~repro.compressors.mgard.MGARDCompressor` — multigrid/wavelet
  hierarchy, absolute-error-bounded.

All share the :class:`~repro.compressors.base.Compressor` interface and
are registered in a global registry keyed by name.
"""

from repro.compressors.base import (
    CompressedBlob,
    CompressionStream,
    Compressor,
    available_compressors,
    get_compressor,
    register_compressor,
)
from repro.compressors.kernels import ArenaStats, KernelArena
from repro.compressors.quantizer import LinearQuantizer
from repro.compressors.sz import SZCompressor
from repro.compressors.sz_lorenzo import SZLorenzoCompressor
from repro.compressors.zfp import ZFPCompressor
from repro.compressors.fpzip import FPZIPCompressor
from repro.compressors.mgard import MGARDCompressor
from repro.compressors.digit_rounding import DigitRoundingCompressor

__all__ = [
    "ArenaStats",
    "CompressedBlob",
    "CompressionStream",
    "Compressor",
    "KernelArena",
    "LinearQuantizer",
    "SZCompressor",
    "SZLorenzoCompressor",
    "ZFPCompressor",
    "FPZIPCompressor",
    "MGARDCompressor",
    "DigitRoundingCompressor",
    "available_compressors",
    "get_compressor",
    "register_compressor",
]
