"""Bit-level packing primitives.

:class:`BitPacker` writes variable-length codes MSB-first into one
exact-size buffer of 64-bit words, one block of codes at a time, with
the bit offset carried from block to block. Each code is placed by the
bit where it ends: one cumsum of the block's lengths gives every code's
end word and left shift, one ``bitwise_or.reduceat`` folds the codes
sharing an end word, and the few codes that start in the previous word
spill their high bits there. Its scratch is a few block-sized arrays,
reused, so packing a stream holds the output words plus that scratch
however long the stream is. :func:`pack_bits` runs it over a whole
array in blocks of :data:`BLOCK`; the Huffman encoder feeds it the
codes it looks up block by block. :func:`unpack_bits` and the
fixed-width variants are plain vectorized numpy routines.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.errors import CorruptStreamError

#: Codes per block of the entropy stage. The Huffman encoder and
#: :func:`pack_bits` stream their input through scratch of this many
#: elements, so their working memory does not grow with the stream.
BLOCK = 1 << 14

#: ``_KEEP_MASK[n]`` keeps the low ``n`` bits of a uint64 (n in 0..64).
_KEEP_MASK = np.concatenate(
    (
        (np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1),
        np.array([0xFFFFFFFFFFFFFFFF], dtype=np.uint64),
    )
)


class BitPacker:
    """MSB-first writer of variable-length codes into an exact-size buffer.

    Built for a known total bit count, fed block by block through
    :meth:`write`, read once through :meth:`getvalue`. The output is
    byte-identical to writing each code bit by bit.
    """

    def __init__(self, total_bits: int) -> None:
        self.total_bits = total_bits
        self._bit = 0
        # Word ``w`` of the stream is ``_words[w + 1]``. The spare word
        # in front takes zero-length codes before the first bit (their
        # last bit is bit -1, in word -1), which add nothing.
        self._words = np.zeros((total_bits + 63) // 64 + 1, dtype=np.uint64)
        self._end = np.zeros(0, dtype=np.int64)
        self._shift = np.zeros(0, dtype=np.int64)
        self._flag = np.zeros(0, dtype=np.bool_)

    def write(self, codes: np.ndarray, lengths: np.ndarray) -> None:
        """Append one block of codes after the bits written so far.

        Args:
            codes: uint64 code values, MSB-justified to their own length
                and with no bits above it. Overwritten: the packer
                shifts them in place.
            lengths: int64 code lengths in bits, 0..64, same size.
        """
        m = codes.size
        if m == 0:
            return
        if self._end.size < m:
            self._end = np.empty(m, dtype=np.int64)
            self._shift = np.empty(m, dtype=np.int64)
            self._flag = np.empty(m, dtype=np.bool_)
        end = self._end[:m]
        shift = self._shift[:m]
        flag = self._flag[:m]
        np.cumsum(lengths, out=end)
        first_bit = self._bit
        self._bit += int(end[-1])
        # The last bit ``e`` of a code sits ``63 - (e & 63)`` places
        # above the least significant bit of word ``e >> 6``.
        np.add(end, first_bit - 1, out=end)
        np.invert(end, out=shift)
        np.bitwise_and(shift, 63, out=shift)
        np.right_shift(end, 6, out=end)
        # End words are non-decreasing and, since no code is longer than
        # a word, leave no word out: each run of equal end words folds
        # into one word of the slice the block covers.
        flag[0] = True
        np.not_equal(end[1:], end[:-1], out=flag[1:])
        starts = np.flatnonzero(flag)
        # Only the first code ending in a word can have started in the
        # previous one: when it is longer than the ``64 - shift`` bits it
        # has in its end word, its high bits spill into that word.
        cross = starts[shift[starts] + lengths[starts] > 64]
        spill = codes[cross] >> (64 - shift[cross]).astype(np.uint64)
        # Left-shift through a signed view: numpy's int64 shift loop
        # skips the unsigned fixups and the code bits make the
        # reinterpret lossless. Bits pushed past the top are the spilled
        # ones.
        np.left_shift(codes.view(np.int64), shift, out=codes.view(np.int64))
        # Only the slice's first word can already hold bits (the
        # previous block's tail), hence the OR.
        words = self._words
        words[end[0] + 1 : end[-1] + 2] |= np.bitwise_or.reduceat(codes, starts)
        # At most one code crosses each word boundary, so the spill
        # targets (the word before each end word) are unique.
        words[end[cross]] |= spill

    def getvalue(self) -> bytes:
        """The packed bytes, MSB-first, zero-padded to a whole byte."""
        if self._bit != self.total_bits:
            raise ValueError(
                f"packed {self._bit} bits into a {self.total_bits}-bit buffer"
            )
        words = self._words[1:]
        if sys.byteorder == "little":
            words.byteswap(inplace=True)
        return words.view(np.uint8)[: (self.total_bits + 7) // 8].tobytes()


def pack_bits(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Pack per-symbol variable-length codes into a contiguous bit buffer.

    Byte-identical to writing each code MSB-first by hand; runs a
    :class:`BitPacker` over the arrays in blocks of :data:`BLOCK`.

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
    codes = codes.ravel()
    lengths = lengths.ravel()
    total_bits = int(lengths.sum())
    packer = BitPacker(total_bits)
    home = np.empty(min(BLOCK, codes.size), dtype=np.uint64)
    for start in range(0, codes.size, BLOCK):
        block_len = lengths[start : start + BLOCK]
        block = home[: block_len.size]
        # Codes may carry stray bits above their declared length; mask
        # them so they cannot reach a neighbour's bits.
        _KEEP_MASK.take(block_len, out=block)
        np.bitwise_and(block, codes[start : start + BLOCK], out=block)
        packer.write(block, block_len)
    return packer.getvalue(), total_bits


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
