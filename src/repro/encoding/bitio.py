"""Bit-level packing primitives.

:func:`pack_bits` / :func:`unpack_bits` and the fixed-width variants are
vectorized numpy routines used on million-element symbol arrays, where a
Python per-symbol loop would be prohibitively slow. :func:`pack_bits`
places each variable-length code by the bit where it ends: one cumsum
of the lengths gives every code's end word and left shift, one
``bitwise_or.reduceat`` folds the codes sharing an end word, and the
few codes that start in the previous word spill their high bits there.
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


def pack_bits(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Pack per-symbol variable-length codes into a contiguous bit buffer.

    Byte-identical to writing each code MSB-first by hand. Each code is
    placed by the bit where it ends: shifted left into the 64-bit word
    holding its last bit, ORed with the other codes ending in that word
    in one ``bitwise_or.reduceat`` pass, and — for the few codes that
    start in the previous word — its high bits spilled into that word.

    Args:
        codes: uint64 array of code values, one per symbol (MSB-justified
            to their own length, i.e. the natural canonical-Huffman code).
            Bits above a code's length are ignored.
        lengths: per-symbol code lengths in bits, 0..64 (same shape as
            ``codes``).

    Returns:
        ``(buffer, total_bits)`` where ``buffer`` is the packed bytes.
    """
    codes = np.asarray(codes, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if codes.shape != lengths.shape:
        raise ValueError("codes and lengths must have the same shape")
    if codes.size == 0:
        return b"", 0
    codes = codes.ravel()
    lengths = lengths.ravel()
    # The steps below work in three int64 buffers, in place: on long
    # streams, faulting in a fresh buffer costs more than the
    # arithmetic on it.
    word = np.cumsum(lengths)
    total_bits = int(word[-1])
    # A code ending at bit ``e`` has its last bit ``63 - ((e - 1) & 63)``
    # places above the least significant bit of word ``(e - 1) >> 6``.
    np.subtract(word, 1, out=word)
    shift = np.bitwise_and(word, 63)
    np.subtract(63, shift, out=shift)
    np.right_shift(word, 6, out=word)
    # Codes may carry stray bits above their declared length (callers
    # pass raw table lookups); mask them so they cannot reach a
    # neighbour's bits.
    home = _KEEP_MASK.take(lengths)
    np.bitwise_and(home, codes, out=home)
    # A code longer than the ``64 - shift`` bits it has in its end word
    # started in the previous word (a few percent of Huffman codes);
    # its high bits spill into the low bits of that word.
    np.add(shift, lengths, out=shift)
    cross = np.flatnonzero(shift > 64)
    np.subtract(shift, lengths, out=shift)
    spill = home[cross] >> (64 - shift[cross]).astype(np.uint64)
    # Left-shift through a signed view: numpy's int64 shift loop skips
    # the unsigned fixups and the masked codes make the reinterpret
    # lossless. Bits pushed past the top are the spilled ones.
    np.left_shift(home.view(np.int64), shift, out=home.view(np.int64))
    # End words are non-decreasing: fold each run of equal words with
    # one ``reduceat`` pass.
    run_start = np.empty(word.size, dtype=np.bool_)
    run_start[0] = True
    np.not_equal(word[1:], word[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    # One spare word past the end: zero-length codes before the first
    # bit (e == 0) land in word -1, which is that spare, and add nothing.
    words = np.zeros((total_bits + 63) // 64 + 1, dtype=np.uint64)
    words[word[starts]] = np.bitwise_or.reduceat(home, starts)
    # At most one code crosses each word boundary, so the spill
    # targets are unique.
    words[word[cross] - 1] |= spill
    packed = words.astype(">u8").view(np.uint8)
    return packed[: (total_bits + 7) // 8].tobytes(), total_bits


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
