"""Batched compressor kernels: scratch arenas and fused passes.

The SZ-family hot path used to materialize a fresh intermediate array
for every refinement step — residuals, scaled residuals, codes,
dequantized residuals — and concatenate per-step code fragments at the
end. This module provides the batched seam that removes those
allocations:

* :class:`KernelArena` — a pool of preallocated scratch buffers keyed
  by ``(tag, dtype)`` and grown monotonically, so a compressor reuses
  the same memory across refinement steps, across blocks, and (through
  :class:`~repro.compressors.base.CompressionStream`) across the
  timesteps of an in-situ stream.
* :func:`encode_block` / :func:`decode_block` — SZ's linear-scaling
  quantization with its outlier path, as one fused
  predict→quantize→code-emit pass and its code→residual→reconstruct
  inverse. Each is a handful of in-place vector ops writing codes
  straight into the caller's buffer; pure ndarray-in/ndarray-out with
  explicit ``out`` buffers. SZ, SZ2 and MGARD all quantize through
  these two functions, which are the only quantization code in the
  package; the test suite pins them bit-for-bit against an unfused
  oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compressors.quantizer import LinearQuantizer
from repro.errors import CorruptStreamError


@dataclass(frozen=True)
class ArenaStats:
    """Counters describing how well an arena's buffers are reused.

    Attributes:
        requests: total scratch requests served.
        reuses: requests satisfied from an already-allocated buffer.
        buffers: distinct ``(tag, dtype)`` buffers held.
        nbytes: bytes currently allocated across all buffers.
    """

    requests: int
    reuses: int
    buffers: int
    nbytes: int

    @property
    def reuse_ratio(self) -> float:
        return self.reuses / self.requests if self.requests else 0.0


class KernelArena:
    """Pool of reusable scratch buffers keyed by ``(tag, dtype)``.

    Each tag owns one flat buffer that only ever grows; ``scratch``
    returns an *uninitialized* view of the requested shape carved from
    it, so repeated calls with stable shapes allocate nothing. Views
    with the same tag alias each other — callers pick distinct tags for
    buffers that must live at the same time. Not thread-safe: one arena
    belongs to one stream of compressor calls.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, str], np.ndarray] = {}
        self._requests = 0
        self._reuses = 0

    def scratch(
        self,
        tag: str,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """An uninitialized C-contiguous view of ``shape`` under ``tag``."""
        if isinstance(shape, int):
            shape = (shape,)
        count = 1
        for dim in shape:
            count *= int(dim)
        dtype = np.dtype(dtype)
        key = (tag, dtype.str)
        self._requests += 1
        buffer = self._buffers.get(key)
        if buffer is None or buffer.size < count:
            self._buffers[key] = buffer = np.empty(count, dtype=dtype)
        else:
            self._reuses += 1
        return buffer[:count].reshape(shape)

    def zeros(
        self,
        tag: str,
        shape: tuple[int, ...] | int,
        dtype: np.dtype | type = np.float64,
    ) -> np.ndarray:
        """Like :meth:`scratch` but zero-filled."""
        view = self.scratch(tag, shape, dtype)
        view[...] = 0
        return view

    @property
    def stats(self) -> ArenaStats:
        return ArenaStats(
            requests=self._requests,
            reuses=self._reuses,
            buffers=len(self._buffers),
            nbytes=sum(b.nbytes for b in self._buffers.values()),
        )

    def clear(self) -> None:
        """Drop every buffer (counters survive for post-mortems)."""
        self._buffers.clear()


_EMPTY_F64 = np.zeros(0, dtype=np.float64)


def encode_block(
    target: np.ndarray,
    pred: np.ndarray,
    quantizer: LinearQuantizer,
    codes_out: np.ndarray,
    arena: KernelArena,
) -> np.ndarray:
    """Fused predict→quantize→code-emit pass over one block.

    Writes the quantization codes of ``target - pred`` into
    ``codes_out`` (outliers carry the quantizer's sentinel), turns
    ``pred`` into the reconstruction the decoder will also compute
    (outlier positions patched with the exact target values), and
    returns the outlier values in block order.
    """
    bin_width = quantizer.bin_width
    resid = arena.scratch("kernel.resid", target.shape, np.float64)
    np.subtract(target, pred, out=resid)
    scaled = arena.scratch("kernel.scaled", target.shape, np.float64)
    # Overflow to inf is fine: it lands in the outlier path.
    with np.errstate(over="ignore"):
        np.divide(resid, bin_width, out=scaled)
    mask = arena.scratch("kernel.mask", target.shape, np.bool_)
    np.greater(np.abs(scaled), quantizer.max_code, out=mask)
    if mask.any():
        # Park a finite value so the int cast below cannot trip a
        # RuntimeWarning; the sentinel overwrites it anyway.
        scaled[mask] = 0.0
    np.rint(scaled, out=scaled)
    codes_out[...] = scaled  # float64 -> int64, exact for |c| <= 2**53
    np.multiply(codes_out, bin_width, out=scaled)
    # Rounding in the divide and multiply can put a point a few ulps
    # past the bound; such points take the outlier path too.
    np.subtract(resid, scaled, out=resid)
    np.abs(resid, out=resid)
    beyond = arena.scratch("kernel.beyond", target.shape, np.bool_)
    np.greater(resid, quantizer.error_bound, out=beyond)
    np.logical_or(mask, beyond, out=mask)
    has_outliers = bool(mask.any())
    if has_outliers:
        codes_out[mask] = quantizer.sentinel
        outlier_values = target[mask].astype(np.float64, copy=True)
    else:
        outlier_values = _EMPTY_F64
    np.add(pred, scaled, out=pred)
    if has_outliers:
        pred[mask] = target[mask]
    return outlier_values


def decode_block(
    codes: np.ndarray,
    pred: np.ndarray,
    quantizer: LinearQuantizer,
    outliers: np.ndarray,
    out_pos: int,
    arena: KernelArena,
) -> int:
    """Inverse of :func:`encode_block`: rebuild the reconstruction.

    Codes plus the outlier tail starting at ``out_pos`` turn ``pred``
    into the encoder's reconstruction, in place; returns the number of
    outliers consumed.

    Raises:
        CorruptStreamError: the block needs more outliers than remain.
    """
    mask = arena.scratch("kernel.mask", codes.shape, np.bool_)
    np.equal(codes, quantizer.sentinel, out=mask)
    scaled = arena.scratch("kernel.scaled", codes.shape, np.float64)
    np.multiply(codes, quantizer.bin_width, out=scaled)
    np.add(pred, scaled, out=pred)
    n_out = int(mask.sum())
    if n_out:
        if out_pos + n_out > outliers.size:
            raise CorruptStreamError("outlier stream underflow")
        pred[mask] = outliers[out_pos : out_pos + n_out]
    return n_out

