"""Compressor interface, result container, and registry.

Every lossy compressor in this library maps ``(array, config)`` to a
self-contained byte blob and back. ``config`` is the compressor's error
control knob — an absolute error bound for SZ/ZFP/MGARD+, an integer
mantissa precision for FPZIP — mirroring the paper's observation that
error-controlled compressors are driven by an error configuration, never
by a target ratio (Sec. III-A).
"""

from __future__ import annotations

import abc
import hashlib
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.compressors.kernels import KernelArena
from repro.errors import (
    CompressionError,
    ErrorBoundViolation,
    InvalidConfiguration,
)


@dataclass(frozen=True)
class CompressedBlob:
    """A self-describing compressed payload.

    Attributes:
        data: the serialized compressed bytes.
        original_shape: shape of the source array.
        original_dtype: dtype name of the source array.
        compressor: name of the compressor that produced the blob.
        config: the error configuration used.
    """

    data: bytes
    original_shape: tuple[int, ...]
    original_dtype: str
    compressor: str
    config: float

    @property
    def nbytes(self) -> int:
        """Compressed size in bytes."""
        return len(self.data)

    @property
    def original_nbytes(self) -> int:
        """Uncompressed size in bytes."""
        count = 1
        for dim in self.original_shape:
            count *= dim
        return count * np.dtype(self.original_dtype).itemsize

    @property
    def compression_ratio(self) -> float:
        """Uncompressed bytes divided by compressed bytes."""
        if self.nbytes == 0:
            raise CompressionError("empty compressed payload")
        return self.original_nbytes / self.nbytes


class Compressor(abc.ABC):
    """Abstract error-controlled lossy compressor.

    Subclasses implement :meth:`_compress_payload` and
    :meth:`_decompress_payload`; this base class handles validation,
    blob bookkeeping and the error-bound verification contract.
    """

    #: Registry name, e.g. ``"sz"``.
    name: str = "abstract"

    #: Either ``"abs"`` (config is an absolute error bound) or
    #: ``"precision"`` (config is an integer bit precision).
    error_mode: str = "abs"

    #: Scale in which the config axis is naturally traversed: ``"log"``
    #: for error bounds spanning decades, ``"linear"`` for precisions.
    config_scale: str = "log"

    def compress(
        self,
        array: np.ndarray,
        config: float,
        *,
        arena: KernelArena | None = None,
    ) -> CompressedBlob:
        """Compress ``array`` under error configuration ``config``.

        ``arena`` optionally supplies reusable scratch buffers (see
        :class:`~repro.compressors.kernels.KernelArena`); repeated calls
        with the same arena — e.g. through :class:`CompressionStream` —
        skip the per-call scratch allocations of the hot path.
        """
        array = self._validate_input(array)
        config = self.normalize_config(config)
        with obs.span(
            "compressor.compress", compressor=self.name, config=config
        ) as span:
            payload = self._compress_payload(array, config, arena)
            blob = CompressedBlob(
                data=payload,
                original_shape=array.shape,
                original_dtype=array.dtype.name,
                compressor=self.name,
                config=config,
            )
            span.set_attributes(
                ratio=blob.compression_ratio, nbytes=len(payload)
            )
        return blob

    def decompress(
        self,
        blob: CompressedBlob,
        *,
        arena: KernelArena | None = None,
    ) -> np.ndarray:
        """Reconstruct the array stored in ``blob``."""
        if blob.compressor != self.name:
            raise CompressionError(
                f"blob was produced by {blob.compressor!r}, not {self.name!r}"
            )
        with obs.span(
            "compressor.decompress", compressor=self.name, config=blob.config
        ):
            out = self._decompress_payload(blob, arena)
        return out.reshape(blob.original_shape)

    def compress_stream(
        self, arena: KernelArena | None = None
    ) -> "CompressionStream":
        """A reusable session that carries one arena across many calls.

        The intended shape for in-situ/streaming workloads: one stream
        per timestep sequence (or per sweep), so every timestep reuses
        the scratch buffers the first one allocated.
        """
        return CompressionStream(self, arena=arena)

    def compression_ratio(self, array: np.ndarray, config: float) -> float:
        """Convenience: compress and return the measured ratio."""
        return self.compress(array, config).compression_ratio

    def roundtrip(
        self, array: np.ndarray, config: float
    ) -> tuple[np.ndarray, CompressedBlob]:
        """Compress then decompress; returns ``(reconstruction, blob)``."""
        blob = self.compress(array, config)
        return self.decompress(blob), blob

    # -- identity ------------------------------------------------------------

    def cache_token(self) -> str:
        """A string identifying this compressor *instance* for caching.

        Two instances share a token exactly when they would produce
        identical blobs for identical inputs: the registry name plus
        every simple option attribute (SZ's interpolation, ZFP's mode,
        ...). Memo caches key on this instead of
        ``name`` so differently-configured instances never alias.
        """
        options = sorted(
            (attr, value)
            for attr, value in vars(self).items()
            if not attr.startswith("_")
            and isinstance(value, (str, int, float, bool))
        )
        if not options:
            return self.name
        suffix = ",".join(f"{attr}={value!r}" for attr, value in options)
        return f"{self.name}({suffix})"

    # -- error configuration -------------------------------------------------

    def normalize_config(self, config: float) -> float:
        """Validate/snap a raw config value to the compressor's domain."""
        if not np.isfinite(config):
            raise InvalidConfiguration(f"config must be finite, got {config}")
        if self.error_mode == "abs":
            if config <= 0:
                raise InvalidConfiguration(
                    f"absolute error bound must be > 0, got {config}"
                )
            return float(config)
        snapped = int(round(config))
        lo, hi = self.config_domain()
        if snapped < lo or snapped > hi:
            raise InvalidConfiguration(
                f"precision must be in [{lo}, {hi}], got {config}"
            )
        return float(snapped)

    def config_domain(self, array: np.ndarray | None = None) -> tuple[float, float]:
        """Valid (low, high) range of the config axis.

        For absolute-error compressors the range is value-range relative
        and requires ``array``; for precision compressors it is fixed.
        """
        if self.error_mode != "abs":
            raise NotImplementedError
        if array is None:
            raise InvalidConfiguration(
                "abs-error compressors need the array to derive a bound range"
            )
        value_range = float(np.ptp(array))
        if value_range == 0.0:
            value_range = max(abs(float(array.flat[0])), 1.0)
        # Mirrors the paper's evaluated band (1e-5..0.4 absolute on a
        # ~5.0-range field, Sec. V-C): beyond ~10 % of the value range
        # the reconstruction is visually destroyed and the CR curve
        # becomes unstable.
        return 1e-6 * value_range, 0.1 * value_range

    def verify(
        self, original: np.ndarray, reconstruction: np.ndarray, config: float
    ) -> None:
        """Raise :class:`ErrorBoundViolation` if the contract is broken."""
        if self.error_mode == "abs":
            max_err = float(np.max(np.abs(
                original.astype(np.float64) - reconstruction.astype(np.float64)
            )))
            # Storing the reconstruction in the original dtype may add up
            # to half an ulp of the largest magnitude on top of the bound.
            cast_slack = 0.0
            if np.dtype(reconstruction.dtype) == np.float32:
                cast_slack = (
                    float(np.max(np.abs(original)))
                    * float(np.finfo(np.float32).eps)
                )
            tol = config * (1.0 + 1e-6) + cast_slack + 1e-12
            if max_err > tol:
                raise ErrorBoundViolation(
                    f"{self.name}: max abs error {max_err:g} exceeds bound "
                    f"{config:g}"
                )
        else:
            self._verify_precision(original, reconstruction, config)

    def _verify_precision(
        self, original: np.ndarray, reconstruction: np.ndarray, config: float
    ) -> None:
        raise NotImplementedError

    # -- subclass hooks -------------------------------------------------------

    @abc.abstractmethod
    def _compress_payload(
        self,
        array: np.ndarray,
        config: float,
        arena: KernelArena | None = None,
    ) -> bytes:
        """Serialize ``array`` at ``config`` into bytes.

        ``arena`` is an optional scratch pool; implementations that do
        not batch through kernels may ignore it.
        """

    @abc.abstractmethod
    def _decompress_payload(
        self, blob: CompressedBlob, arena: KernelArena | None = None
    ) -> np.ndarray:
        """Reconstruct the flat array from ``blob.data``."""

    # -- helpers --------------------------------------------------------------

    @staticmethod
    def _validate_input(array: np.ndarray) -> np.ndarray:
        array = np.asarray(array)
        if array.dtype not in (np.float32, np.float64):
            raise CompressionError(
                f"only float32/float64 arrays are supported, got {array.dtype}"
            )
        if array.size == 0:
            raise CompressionError("cannot compress an empty array")
        if array.ndim < 1 or array.ndim > 4:
            raise CompressionError("supported ranks are 1..4")
        # NaN propagates through min/max and an Inf is an extreme, so two
        # reductions prove the field finite without a field-sized mask.
        if not (np.isfinite(array.min()) and np.isfinite(array.max())):
            raise CompressionError("input contains non-finite values")
        return np.ascontiguousarray(array)


class CompressionStream:
    """A compression session reusing one arena across many calls.

    Wraps a :class:`Compressor` so that every ``compress``/``decompress``
    shares a single :class:`~repro.compressors.kernels.KernelArena`:
    the first call sizes the scratch buffers, subsequent calls (later
    timesteps of an in-situ stream, later probes of a sweep) reuse them.
    Not thread-safe — one stream per thread of compressor calls.
    """

    def __init__(
        self, compressor: Compressor, arena: KernelArena | None = None
    ) -> None:
        self.compressor = compressor
        self.arena = arena if arena is not None else KernelArena()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompressionStream({self.compressor.name!r})"

    def compress(self, array: np.ndarray, config: float) -> CompressedBlob:
        return self.compressor.compress(array, config, arena=self.arena)

    def decompress(self, blob: CompressedBlob) -> np.ndarray:
        return self.compressor.decompress(blob, arena=self.arena)

    def compression_ratio(self, array: np.ndarray, config: float) -> float:
        return self.compress(array, config).compression_ratio

    def roundtrip(
        self, array: np.ndarray, config: float
    ) -> tuple[np.ndarray, CompressedBlob]:
        blob = self.compress(array, config)
        return self.decompress(blob), blob

    @property
    def stats(self):
        """Arena reuse counters (:class:`~repro.compressors.kernels.ArenaStats`)."""
        return self.arena.stats


def content_fingerprint(array: np.ndarray) -> str:
    """Content-hash the *full* array (shape + dtype + every byte).

    Compression outcomes depend on every point, so the memo layer
    (:mod:`repro.parallel.memo`) keys on this full-content hash — unlike
    the serving layer's sampled-view fingerprint, which only has to
    cover what feature extraction reads.
    """
    array = np.asarray(array)
    if array.size == 0:
        raise CompressionError("cannot fingerprint an empty array")
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"{array.shape}|{array.dtype.str}".encode("ascii"))
    if array.flags.c_contiguous:
        # Hash the buffer in place; tobytes() would copy the array.
        digest.update(array.data)
    else:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


_REGISTRY: dict[str, type[Compressor]] = {}


def register_compressor(cls: type[Compressor]) -> type[Compressor]:
    """Class decorator adding a compressor to the global registry."""
    if not issubclass(cls, Compressor):
        raise TypeError("register_compressor expects a Compressor subclass")
    _REGISTRY[cls.name] = cls
    return cls


def get_compressor(name: str, **kwargs) -> Compressor:
    """Instantiate a registered compressor by name (e.g. ``"sz"``)."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise CompressionError(
            f"unknown compressor {name!r}; available: {known}"
        ) from None
    return cls(**kwargs)


def available_compressors() -> list[str]:
    """Names of all registered compressors, sorted."""
    return sorted(_REGISTRY)
