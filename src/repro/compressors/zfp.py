"""ZFP-like block-transform lossy compressor.

Re-implementation of ZFP's design skeleton: the array is cut into 4^d
blocks, each block is expressed in block-floating-point form (one shared
exponent), decorrelated with an invertible integer lifting transform,
and truncated to a per-block number of bitplanes chosen from the error
bound. Because the kept-bitplane count is an integer, the compression
ratio moves in *steps* as the error bound grows — reproducing the
stairwise CR-vs-error-bound curve the paper highlights for ZFP (Fig. 2).

Two modes mirror ZFP's:

* **fixed-accuracy** (default) — ``config`` is an absolute error bound;
  each block keeps as few bitplanes as the bound allows.
* **fixed-rate** — ``config`` is a bits-per-value rate; every block
  spends the same budget, so the compressed size is known a priori but
  the worst block dictates distortion (the reason the paper reports
  ~2x lower ratio at the same distortion level, Sec. II).

The lifting transform is a two-level S-transform (integer Haar) along
each axis; it differs from ZFP's exact lifting but shares the properties
that matter: integer-invertible, energy-compacting, bounded coefficient
growth (<= 2x per axis).
"""

from __future__ import annotations

import numpy as np

from repro.compressors.base import CompressedBlob, Compressor, register_compressor
from repro.compressors.kernels import KernelArena
from repro.encoding import HuffmanCodec, pack_fixed_width, unpack_fixed_width
from repro.encoding.varint import decode_section, encode_section
from repro.errors import CorruptStreamError, InvalidConfiguration

#: Bits of the block-floating-point significand.
_K = 30

#: Worst-case inverse-transform error amplification per rank, including
#: slack for the integer floor operations; used to pick the per-block
#: shift conservatively so the absolute bound always holds. Rank 4 needs
#: 8: a 3x4x2x5 field of ones with one zero reconstructs with eight
#: quanta of error.
_AMPLIFY = {1: 3, 2: 4, 3: 5, 4: 8}

#: Flag exponent for all-zero blocks.
_ZERO_EXP = -(1 << 14)


def _pad_to_blocks(array: np.ndarray) -> tuple[np.ndarray, tuple[int, ...]]:
    """Edge-pad every axis up to a multiple of 4."""
    pad = [(0, (-n) % 4) for n in array.shape]
    if any(p[1] for p in pad):
        array = np.pad(array, pad, mode="edge")
    return array, array.shape


def _to_blocks(array: np.ndarray) -> np.ndarray:
    """(n1..nd) -> (nblocks, 4, .., 4) with C-order block raster."""
    ndim = array.ndim
    split_shape = []
    for n in array.shape:
        split_shape.extend((n // 4, 4))
    work = array.reshape(split_shape)
    perm = [2 * i for i in range(ndim)] + [2 * i + 1 for i in range(ndim)]
    work = work.transpose(perm)
    nblocks = int(np.prod(work.shape[:ndim]))
    return work.reshape((nblocks,) + (4,) * ndim)


def _from_blocks(blocks: np.ndarray, padded_shape: tuple[int, ...]) -> np.ndarray:
    """Inverse of :func:`_to_blocks`."""
    ndim = len(padded_shape)
    grid = tuple(n // 4 for n in padded_shape)
    work = blocks.reshape(grid + (4,) * ndim)
    perm = []
    for i in range(ndim):
        perm.extend((i, ndim + i))
    work = work.transpose(perm)
    return work.reshape(padded_shape)


def _forward_lift(blocks: np.ndarray) -> np.ndarray:
    """Two-level integer S-transform along every block axis."""
    out = blocks.astype(np.int64, copy=True)
    for axis in range(1, out.ndim):
        x0, x1, x2, x3 = (np.take(out, i, axis=axis) for i in range(4))
        a0 = (x0 + x1) >> 1
        d0 = x0 - x1
        a1 = (x2 + x3) >> 1
        d1 = x2 - x3
        aa = (a0 + a1) >> 1
        da = a0 - a1
        for i, coeff in enumerate((aa, da, d0, d1)):
            idx = [slice(None)] * out.ndim
            idx[axis] = i
            out[tuple(idx)] = coeff
    return out


def _inverse_lift(blocks: np.ndarray) -> np.ndarray:
    """Invert :func:`_forward_lift` exactly."""
    out = blocks.astype(np.int64, copy=True)
    for axis in range(out.ndim - 1, 0, -1):
        aa, da, d0, d1 = (np.take(out, i, axis=axis) for i in range(4))
        a0 = aa + ((da + 1) >> 1)
        a1 = a0 - da
        x0 = a0 + ((d0 + 1) >> 1)
        x1 = x0 - d0
        x2 = a1 + ((d1 + 1) >> 1)
        x3 = x2 - d1
        for i, val in enumerate((x0, x1, x2, x3)):
            idx = [slice(None)] * out.ndim
            idx[axis] = i
            out[tuple(idx)] = val
    return out


def _coeff_groups(ndim: int) -> np.ndarray:
    """Frequency-group index (0..2) of each of the 4^d coefficients."""
    per_pos = np.array([0, 1, 2, 2], dtype=np.int64)
    grids = np.meshgrid(*([per_pos] * ndim), indexing="ij")
    return np.maximum.reduce(grids).ravel()


def _zigzag(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def _unzigzag(values: np.ndarray) -> np.ndarray:
    z = values.astype(np.uint64)
    return ((z >> np.uint64(1)).astype(np.int64)) ^ -(z & np.uint64(1)).astype(
        np.int64
    )


def _bit_widths(max_values: np.ndarray) -> np.ndarray:
    """Bits needed for each non-negative max value (0 -> width 0)."""
    out = np.zeros(max_values.shape, dtype=np.int64)
    nz = max_values > 0
    out[nz] = np.ceil(
        np.log2(max_values[nz].astype(np.float64) + 1.0)
    ).astype(np.int64)
    return out


@register_compressor
class ZFPCompressor(Compressor):
    """Block-transform compressor with fixed-accuracy and fixed-rate modes."""

    name = "zfp"
    error_mode = "abs"
    config_scale = "log"

    def __init__(self, mode: str = "accuracy") -> None:
        if mode not in ("accuracy", "rate"):
            raise ValueError("mode must be 'accuracy' or 'rate'")
        self.mode = mode
        if mode == "rate":
            self.error_mode = "rate"
            self.config_scale = "linear"

    def normalize_config(self, config: float) -> float:
        if self.mode == "rate":
            rate = int(round(config))
            if rate < 1 or rate > _K:
                raise InvalidConfiguration(f"rate must be in [1, {_K}] bits")
            return float(rate)
        return super().normalize_config(config)

    def config_domain(self, array: np.ndarray | None = None) -> tuple[float, float]:
        if self.mode == "rate":
            return 1.0, float(_K)
        return super().config_domain(array)

    # -- compression ----------------------------------------------------------

    def _compress_payload(
        self,
        array: np.ndarray,
        config: float,
        arena: KernelArena | None = None,
    ) -> bytes:
        padded, _ = _pad_to_blocks(array.astype(np.float64))
        blocks = _to_blocks(padded)
        nblocks = blocks.shape[0]
        flat = blocks.reshape(nblocks, -1)

        max_abs = np.max(np.abs(flat), axis=1)
        exps = np.full(nblocks, _ZERO_EXP, dtype=np.int64)
        nz = max_abs > 0
        # frexp: max_abs = m * 2**e with m in [0.5, 1) => |v| <= 2**e.
        _, e = np.frexp(max_abs[nz])
        exps[nz] = e

        ints = np.zeros_like(flat, dtype=np.int64)
        # ldexp instead of multiplying by exp2(K - e): the intermediate
        # 2**(K-e) overflows to inf for subnormal-scale blocks (e below
        # ~-994) even though the product itself is bounded by 2**K.
        shift = (_K - exps[nz]).astype(np.int32)[:, None]
        ints[nz] = np.rint(np.ldexp(flat[nz], shift)).astype(np.int64)

        coeffs = _forward_lift(ints.reshape(blocks.shape)).reshape(nblocks, -1)

        shifts = self._choose_shifts(config, exps, nz, array.ndim)
        q = coeffs >> shifts[:, None]

        groups = _coeff_groups(array.ndim)
        zz = _zigzag(q)
        widths = np.zeros((3, nblocks), dtype=np.int64)
        for g in range(3):
            cols = groups == g
            if cols.any():
                widths[g] = _bit_widths(zz[:, cols].max(axis=1))
        widths[:, ~nz] = 0

        sections = [
            encode_section(
                np.array([config], dtype=np.float64).tobytes()
                + bytes([1 if self.mode == "rate" else 0, array.ndim])
            )
        ]
        huffman = HuffmanCodec()
        sections.append(encode_section(huffman.encode(exps)))
        sections.append(encode_section(huffman.encode(shifts)))
        for g in range(3):
            sections.append(encode_section(huffman.encode(widths[g])))
        for g in range(3):
            cols = np.nonzero(groups == g)[0]
            for w in np.unique(widths[g]):
                if w == 0:
                    continue
                rows = widths[g] == w
                payload = pack_fixed_width(zz[np.ix_(rows, cols)].ravel(), int(w))
                sections.append(encode_section(payload))
        return b"".join(sections)

    def _choose_shifts(
        self,
        config: float,
        exps: np.ndarray,
        nz: np.ndarray,
        ndim: int,
    ) -> np.ndarray:
        """Per-block bitplane shift implementing each mode's policy."""
        shifts = np.zeros(exps.shape, dtype=np.int64)
        if self.mode == "rate":
            # Uniform budget: keep `rate` bits of every coefficient.
            rate = int(config)
            shifts[nz] = max(0, _K + ndim + 1 - rate)
            return shifts
        amplify = _AMPLIFY[ndim]
        # Guarantee: amplify * 2**shift * 2**(e-K) <= config, i.e.
        # shift <= log2(config) + K - e - log2(amplify).
        budget = np.floor(
            np.log2(config) + _K - exps[nz].astype(np.float64) - np.log2(amplify)
        ).astype(np.int64)
        shifts[nz] = np.clip(budget, 0, _K + ndim + 1)
        return shifts

    # -- decompression --------------------------------------------------------

    def _decompress_payload(
        self, blob: CompressedBlob, arena: KernelArena | None = None
    ) -> np.ndarray:
        header, offset = decode_section(blob.data, 0)
        if len(header) != 10:
            raise CorruptStreamError("bad ZFP header")
        ndim = header[9]
        if ndim != len(blob.original_shape):
            raise CorruptStreamError("ZFP rank mismatch")

        huffman = HuffmanCodec()
        exps_blob, offset = decode_section(blob.data, offset)
        shifts_blob, offset = decode_section(blob.data, offset)
        exps = huffman.decode(exps_blob)
        shifts = huffman.decode(shifts_blob)
        nblocks = exps.size

        widths = np.zeros((3, nblocks), dtype=np.int64)
        for g in range(3):
            w_blob, offset = decode_section(blob.data, offset)
            widths[g] = huffman.decode(w_blob)

        groups = _coeff_groups(ndim)
        ncoeff = 4**ndim
        zz = np.zeros((nblocks, ncoeff), dtype=np.uint64)
        for g in range(3):
            cols = np.nonzero(groups == g)[0]
            for w in np.unique(widths[g]):
                if w == 0:
                    continue
                rows = np.nonzero(widths[g] == w)[0]
                payload, offset = decode_section(blob.data, offset)
                count = rows.size * cols.size
                vals = unpack_fixed_width(payload, int(w), count)
                zz[np.ix_(rows, cols)] = vals.reshape(rows.size, cols.size)

        q = _unzigzag(zz)
        # Midpoint restore of the dropped low bits (floor shift biases
        # towards -inf; adding half a step recentres the error).
        half = np.where(shifts > 0, 1 << np.maximum(shifts - 1, 0), 0)
        coeffs = (q << shifts[:, None]) + np.where(q != 0, half[:, None], 0)
        ints = _inverse_lift(coeffs.reshape((nblocks,) + (4,) * ndim))
        flat = ints.reshape(nblocks, -1).astype(np.float64)

        values = np.zeros_like(flat)
        nz = exps != _ZERO_EXP
        # Mirror of the ldexp in compression: exp2(e - K) underflows to
        # 0 for subnormal-scale blocks; ldexp reconstructs exactly.
        # Overflow is only reachable with corrupted stream exponents,
        # where wrong-but-well-formed output is the decode contract.
        with np.errstate(over="ignore"):
            values[nz] = np.ldexp(
                flat[nz], (exps[nz] - _K).astype(np.int32)[:, None]
            )

        padded_shape = tuple(n + ((-n) % 4) for n in blob.original_shape)
        padded = _from_blocks(
            values.reshape((nblocks,) + (4,) * ndim), padded_shape
        )
        crop = tuple(slice(0, n) for n in blob.original_shape)
        return padded[crop].astype(blob.original_dtype).ravel()
