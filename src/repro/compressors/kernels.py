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
* :class:`KernelBackend` — the fused predict→quantize→code-emit and
  code→residual→reconstruct passes behind a small registry. The
  ``"numpy"`` backend fuses each pass into in-place vector ops writing
  quantization codes straight into an arena slice; the ``"reference"``
  backend reproduces the original unfused semantics through
  :class:`~repro.compressors.quantizer.LinearQuantizer` and exists so
  parity suites can pin the fused path bit-for-bit against it. A
  numba/GPU backend drops in by registering a third implementation —
  the contract is pure ndarray-in/ndarray-out with explicit ``out``
  buffers, nothing touches Python object state inside the pass.

Both backends are bit-identical by contract: same codes, same
reconstruction, same blob bytes. ``REPRO_KERNEL_BACKEND`` selects the
process-wide default (tests use :func:`use_kernel_backend` instead).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro.compressors.quantizer import LinearQuantizer
from repro.errors import CorruptStreamError, InvalidConfiguration


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


class KernelBackend:
    """Interface of the fused encode/decode passes.

    ``encode_block`` consumes a target block and its prediction and
    must (a) write the quantization codes of ``target - pred`` into
    ``codes_out`` (outliers carry the quantizer's sentinel), (b) turn
    ``pred`` into the reconstruction the decoder will also compute
    (outlier positions patched with the exact target values), and (c)
    return the outlier values in block order. ``decode_block`` is the
    inverse: codes plus the outlier tail rebuild the reconstruction
    into ``pred``. Implementations must be bit-identical to the
    ``"reference"`` backend — the parity suite enforces it.
    """

    name = "abstract"

    def encode_block(
        self,
        target: np.ndarray,
        pred: np.ndarray,
        quantizer: LinearQuantizer,
        codes_out: np.ndarray,
        arena: KernelArena,
    ) -> np.ndarray:
        raise NotImplementedError

    def decode_block(
        self,
        codes: np.ndarray,
        pred: np.ndarray,
        quantizer: LinearQuantizer,
        outliers: np.ndarray,
        out_pos: int,
        arena: KernelArena,
    ) -> int:
        """Reconstruct into ``pred``; returns outliers consumed."""
        raise NotImplementedError


class NumpyKernelBackend(KernelBackend):
    """Fused in-place vector passes (the production backend)."""

    name = "numpy"

    def encode_block(self, target, pred, quantizer, codes_out, arena):
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
        # Same rounding guard as LinearQuantizer.quantize: a point whose
        # dequantized residual lands past the bound is an outlier.
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

    def decode_block(self, codes, pred, quantizer, outliers, out_pos, arena):
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


class ReferenceKernelBackend(KernelBackend):
    """The original unfused passes, kept as the parity oracle."""

    name = "reference"

    def encode_block(self, target, pred, quantizer, codes_out, arena):
        quant = quantizer.quantize(target - pred)
        codes_out[...] = quant.codes
        recon_block = pred + quant.dequantized
        recon_block[quant.outlier_mask] = target[quant.outlier_mask]
        pred[...] = recon_block
        return np.asarray(
            target[quant.outlier_mask], dtype=np.float64
        ).ravel()

    def decode_block(self, codes, pred, quantizer, outliers, out_pos, arena):
        residuals, mask = quantizer.dequantize(codes)
        recon_block = pred + residuals
        n_out = int(mask.sum())
        if out_pos + n_out > outliers.size:
            raise CorruptStreamError("outlier stream underflow")
        recon_block[mask] = outliers[out_pos : out_pos + n_out]
        pred[...] = recon_block
        return n_out


_EMPTY_F64 = np.zeros(0, dtype=np.float64)

_BACKENDS: dict[str, KernelBackend] = {}
_active_backend: KernelBackend | None = None


def register_kernel_backend(backend: KernelBackend) -> KernelBackend:
    """Add a backend to the registry (numba/GPU implementations hook in here)."""
    if not isinstance(backend, KernelBackend):
        raise InvalidConfiguration("expected a KernelBackend instance")
    _BACKENDS[backend.name] = backend
    return backend


register_kernel_backend(NumpyKernelBackend())
register_kernel_backend(ReferenceKernelBackend())


def available_kernel_backends() -> list[str]:
    return sorted(_BACKENDS)


def get_kernel_backend(name: str | None = None) -> KernelBackend:
    """Resolve a backend: explicit name > active override > env > numpy."""
    if name is None:
        if _active_backend is not None:
            return _active_backend
        name = os.environ.get("REPRO_KERNEL_BACKEND", "numpy")
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(available_kernel_backends())
        raise InvalidConfiguration(
            f"unknown kernel backend {name!r}; available: {known}"
        ) from None


class use_kernel_backend:
    """Context manager pinning the process-wide default backend.

    >>> with use_kernel_backend("reference"):
    ...     blob = compressor.compress(data, eb)   # unfused oracle path
    """

    def __init__(self, name: str) -> None:
        self._backend = get_kernel_backend(name)
        self._previous: KernelBackend | None = None

    def __enter__(self) -> KernelBackend:
        global _active_backend
        self._previous = _active_backend
        _active_backend = self._backend
        return self._backend

    def __exit__(self, *exc) -> None:
        global _active_backend
        _active_backend = self._previous
