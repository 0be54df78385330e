"""Whole-stream Huffman encoding: the oracle for the block encoder.

:meth:`repro.encoding.huffman.HuffmanCodec.encode` streams its symbols
in fixed blocks through reused scratch and packs them with
:class:`repro.encoding.bitio.BitPacker`. This module keeps the
whole-stream formulation it must match byte for byte: one symbol table
with a stream-sized inverse, the ``codes[inverse]`` and
``lengths[inverse]`` gathers, and a packer that places every code of
the stream at once. Code lengths, canonical codes and the header are
the codec's own helpers, so only the stream handling differs.
"""

from __future__ import annotations

import numpy as np

from repro.encoding.bitio import _KEEP_MASK, pack_fixed_width
from repro.encoding.huffman import (
    _BINCOUNT_SPAN,
    _MAX_CODE_LEN_HARD,
    _canonical_codes,
    _encode_alphabet,
    _limited_code_lengths,
)
from repro.encoding.varint import encode_section, encode_uvarint
from repro.errors import EncodingError


def symbol_table(
    symbols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(alphabet, inverse, counts)`` for an int64 symbol stream.

    Identical to ``np.unique(..., return_inverse=True)`` plus a
    bincount, computed from a dense histogram when the value span is at
    most ``_BINCOUNT_SPAN``.
    """
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    if symbols.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    smin = int(symbols.min())
    smax = int(symbols.max())
    span = smax - smin + 1
    if 0 < span <= _BINCOUNT_SPAN:
        shifted = symbols - smin
        counts_full = np.bincount(shifted, minlength=span)
        present = np.nonzero(counts_full)[0]
        lookup = np.zeros(span, dtype=np.int64)
        lookup[present] = np.arange(present.size)
        return (
            present + smin,
            lookup[shifted],
            counts_full[present].astype(np.int64),
        )
    alphabet, inverse = np.unique(symbols, return_inverse=True)
    counts = np.bincount(inverse, minlength=alphabet.size).astype(np.int64)
    return alphabet, inverse, counts


def pack_bits(codes: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Pack a whole stream of codes at once, each by its end word."""
    codes = np.asarray(codes, dtype=np.uint64).ravel()
    lengths = np.asarray(lengths, dtype=np.int64).ravel()
    if codes.size == 0:
        return b"", 0
    word = np.cumsum(lengths)
    total_bits = int(word[-1])
    np.subtract(word, 1, out=word)
    shift = np.bitwise_and(word, 63)
    np.subtract(63, shift, out=shift)
    np.right_shift(word, 6, out=word)
    home = _KEEP_MASK.take(lengths)
    np.bitwise_and(home, codes, out=home)
    np.add(shift, lengths, out=shift)
    cross = np.flatnonzero(shift > 64)
    np.subtract(shift, lengths, out=shift)
    spill = home[cross] >> (64 - shift[cross]).astype(np.uint64)
    np.left_shift(home.view(np.int64), shift, out=home.view(np.int64))
    run_start = np.empty(word.size, dtype=np.bool_)
    run_start[0] = True
    np.not_equal(word[1:], word[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    words = np.zeros((total_bits + 63) // 64 + 1, dtype=np.uint64)
    words[word[starts]] = np.bitwise_or.reduceat(home, starts)
    words[word[cross] - 1] |= spill
    packed = words.astype(">u8").view(np.uint8)
    return packed[: (total_bits + 7) // 8].tobytes(), total_bits


def encode(symbols: np.ndarray) -> bytes:
    """Whole-stream :meth:`HuffmanCodec.encode`: the same bytes."""
    symbols = np.asarray(symbols).ravel()
    n = symbols.size
    if n == 0:
        return encode_uvarint(0)
    alphabet, inverse, counts = symbol_table(symbols)
    if alphabet.size > (1 << _MAX_CODE_LEN_HARD):
        raise EncodingError(
            f"alphabet of {alphabet.size} symbols exceeds the "
            f"{1 << _MAX_CODE_LEN_HARD} limit"
        )
    header = [
        encode_uvarint(n),
        encode_uvarint(alphabet.size),
        _encode_alphabet(alphabet),
    ]
    if alphabet.size == 1:
        return b"".join(header)
    lengths = _limited_code_lengths(counts)
    codes = _canonical_codes(lengths)
    header.append(pack_fixed_width(lengths.astype(np.uint64), 6))
    payload, total_bits = pack_bits(codes[inverse], lengths[inverse])
    header.append(encode_uvarint(total_bits))
    header.append(encode_section(payload))
    return b"".join(header)
