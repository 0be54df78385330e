"""Bit-level packing primitives.

:func:`pack_bits` / :func:`unpack_bits` and the fixed-width variants are
vectorized numpy routines used on million-element symbol arrays, where a
Python per-symbol loop would be prohibitively slow.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CorruptStreamError

#: ``_KEEP_MASK[n]`` keeps the low ``n`` bits of a uint64 (n in 0..64).
_KEEP_MASK = np.concatenate(
    (
        (np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1),
        np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64),
    )
)


def pack_at_offsets(
    codes: np.ndarray,
    lengths: np.ndarray,
    offsets: np.ndarray,
    total_bits: int,
) -> bytes:
    """Scatter variable-length codes to explicit bit offsets (MSB-first).

    The kernel under :func:`pack_bits`: each code's bits land at
    ``offsets[i] .. offsets[i]+lengths[i]``. Offsets must be
    non-decreasing with non-overlapping codes; gaps are zero-filled. The
    whole scatter is two ``bitwise_or`` passes over 64-bit words — one
    for each code's home word, one for the straddle into the next word
    — so packing a million symbols costs a handful of vector ops.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.size == 0:
        return bytes((total_bits + 7) // 8)
    # Codes may carry stray bits above their declared length (callers
    # pass raw table lookups); mask to the length like the bit-by-bit
    # packer implicitly did.
    codes = codes & _KEEP_MASK[np.minimum(lengths, 64)]
    word_idx = offsets >> 6
    shift = 64 - (offsets & 63) - lengths
    # Left-shift through a signed view: numpy's int64 shift loop skips
    # the unsigned fixups and the masked codes make the reinterpret
    # lossless. Codes whose tail crosses the word boundary (shift < 0)
    # instead contribute their top bits to the home word.
    first = (codes.view(np.int64) << np.clip(shift, 0, 63)).view(np.uint64)
    straddle = shift < 0
    has_straddle = bool(straddle.any())
    if has_straddle:
        first[straddle] = codes[straddle] >> (-shift[straddle]).astype(
            np.uint64
        )
    words = np.zeros((total_bits + 63) // 64 + 1, dtype=np.uint64)
    # Offsets are non-decreasing, so home words arrive sorted: fold each
    # run of equal word_idx with one ``reduceat`` pass instead of the
    # element-wise ``bitwise_or.at`` scatter (~5x slower).
    starts = np.flatnonzero(np.r_[True, word_idx[1:] != word_idx[:-1]])
    words[word_idx[starts]] = np.bitwise_or.reduceat(first, starts)
    if has_straddle:
        # Non-overlapping codes mean at most one code crosses any word
        # boundary, so spill words are unique; plain fancy indexing
        # ORs them into whatever the home pass already wrote.
        idx2 = word_idx[straddle] + 1
        spill = codes[straddle] << (64 + shift[straddle]).astype(np.uint64)
        words[idx2] = words[idx2] | spill
    return words.astype(">u8").tobytes()[: (total_bits + 7) // 8]


def pack_bits(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Pack per-symbol variable-length codes into a contiguous bit buffer.

    Vectorized over symbols via :func:`pack_at_offsets` (word-wise OR
    scatter); byte-identical to packing each code MSB-first by hand.

    Args:
        codes: uint64 array of code values, one per symbol (MSB-justified
            to their own length, i.e. the natural canonical-Huffman code).
        lengths: per-symbol code lengths in bits (same shape as ``codes``).

    Returns:
        ``(buffer, total_bits)`` where ``buffer`` is the packed bytes.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have the same shape")
    if codes.size == 0:
        return b"", 0
    offsets = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    total_bits = int(offsets[-1] + lengths[-1])
    return pack_at_offsets(codes, lengths, offsets, total_bits), total_bits


def unpack_bits(buffer: bytes, total_bits: int) -> np.ndarray:
    """Inverse of the byte-packing in :func:`pack_bits`: a flat bit array."""
    bits = np.unpackbits(np.frombuffer(buffer, dtype=np.uint8))
    if bits.size < total_bits:
        raise CorruptStreamError("buffer shorter than declared bit count")
    return bits[:total_bits]


def pack_fixed_width(values: np.ndarray, width: int) -> bytes:
    """Pack non-negative integers into ``width`` bits each (vectorized)."""
    if width < 0 or width > 64:
        raise ValueError("width must be in [0, 64]")
    values = np.asarray(values, dtype=np.uint64)
    if width == 0 or values.size == 0:
        return b""
    if width < 64 and np.any(values >> np.uint64(width)):
        raise ValueError(f"some values do not fit in {width} bits")
    n = values.size
    bits = np.zeros((n, width), dtype=np.uint8)
    for j in range(width):
        bits[:, j] = (values >> np.uint64(width - 1 - j)) & np.uint64(1)
    return np.packbits(bits.ravel()).tobytes()


def unpack_fixed_width(buffer: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_fixed_width`; returns uint64 values."""
    if width == 0 or count == 0:
        return np.zeros(count, dtype=np.uint64)
    bits = np.unpackbits(np.frombuffer(buffer, dtype=np.uint8))
    needed = width * count
    if bits.size < needed:
        raise CorruptStreamError("buffer shorter than declared payload")
    bits = bits[:needed].reshape(count, width).astype(np.uint64)
    values = np.zeros(count, dtype=np.uint64)
    for j in range(width):
        values = (values << np.uint64(1)) | bits[:, j]
    return values
