"""Canonical Huffman codec.

This is the entropy stage used by the SZ-like, FPZIP-like and MGARD-like
compressors, mirroring SZ's use of Huffman coding on quantization codes.

Design notes:

* **Encoding is vectorized.** Symbols are mapped to (code, length) pairs
  with a numpy table lookup and packed with
  :func:`repro.encoding.bitio.pack_bits`, so encoding a million symbols
  performs ~``max_code_length`` vector operations rather than a million
  Python iterations.
* **Decoding is table-driven.** A flat ``2**max_len`` lookup table maps
  every possible ``max_len``-bit window to ``(symbol, code length)``; the
  decoder keeps a small integer bit buffer so each symbol costs O(1).
* **Code lengths are limited** (16 bits, stretching with the alphabet
  up to 22) by iteratively flattening the frequency histogram, which
  keeps the decode table small regardless of how skewed the symbol
  distribution is; alphabets too large/flat to satisfy the cap fall
  back to a balanced fixed-length code.
* The stream is self-contained: the alphabet and code lengths travel in
  the header, so :meth:`HuffmanCodec.decode` needs no side channel.
"""

from __future__ import annotations


import numpy as np

from repro.encoding.bitio import (
    pack_bits,
    pack_fixed_width,
    unpack_fixed_width,
)
from repro.encoding.varint import (
    decode_section,
    decode_uvarint,
    encode_section,
    encode_uvarint,
)
from repro.errors import CorruptStreamError, EncodingError

#: Baseline code-length cap; large alphabets necessarily exceed it
#: (a prefix code over n symbols needs ceil(log2 n) bits), so the
#: effective cap grows with the alphabet up to ``_MAX_CODE_LEN_HARD``.
_MAX_CODE_LEN = 16
_MAX_CODE_LEN_HARD = 22

#: Value spans up to this wide use the bincount-based symbol table; the
#: dense histogram (8 MiB of int64 at the cap) is far cheaper than the
#: O(n log n) sort inside ``np.unique`` on million-symbol streams.
_BINCOUNT_SPAN = 1 << 22


def symbol_table(
    symbols: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(alphabet, inverse, counts)`` for an int64 symbol stream.

    Identical to ``np.unique(..., return_inverse=True)`` plus a
    bincount, but when the value span is modest (the common case for
    quantization codes, which cluster near zero) it is computed from a
    dense histogram with no sort at all.
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


def _max_code_len(alphabet_size: int) -> int:
    """Effective length cap for an alphabet of the given size."""
    need = int(np.ceil(np.log2(max(alphabet_size, 2)))) + 1
    return min(max(_MAX_CODE_LEN, need), _MAX_CODE_LEN_HARD)


def _huffman_code_lengths(freqs: np.ndarray) -> np.ndarray:
    """Compute Huffman code lengths for positive frequencies.

    Uses the O(n) two-queue merge over frequency-sorted leaves (after
    an O(n log n) sort): the two smallest weights are always at the
    front of either the remaining-leaves queue or the FIFO of already
    merged nodes, so no heap is needed. Depths are then propagated
    root-to-leaves in one pass.
    """
    n = freqs.size
    if n == 1:
        return np.array([1], dtype=np.int64)
    order = np.argsort(freqs, kind="stable")
    leaf_weights = freqs[order].tolist()

    # Merged nodes: weights plus the two children of each.
    merged_weights: list[int] = []
    left_child: list[int] = []   # node ids; leaves are 0..n-1,
    right_child: list[int] = []  # merged nodes are n, n+1, ...
    li = 0  # next unconsumed leaf
    mi = 0  # next unconsumed merged node

    def take_smallest() -> tuple[int, int]:
        nonlocal li, mi
        take_leaf = li < n and (
            mi >= len(merged_weights) or leaf_weights[li] <= merged_weights[mi]
        )
        if take_leaf:
            li += 1
            return int(order[li - 1]), int(leaf_weights[li - 1])
        mi += 1
        return n + mi - 1, int(merged_weights[mi - 1])

    for _ in range(n - 1):
        a_id, a_w = take_smallest()
        b_id, b_w = take_smallest()
        merged_weights.append(a_w + b_w)
        left_child.append(a_id)
        right_child.append(b_id)

    # Root is the last merged node; push depths down to the leaves.
    lengths = np.zeros(n, dtype=np.int64)
    n_merged = len(merged_weights)
    depth = [0] * n_merged
    for node in range(n_merged - 1, -1, -1):
        d = depth[node] + 1
        for child in (left_child[node], right_child[node]):
            if child >= n:
                depth[child - n] = d
            else:
                lengths[child] = d
    return lengths


def _limited_code_lengths(freqs: np.ndarray) -> np.ndarray:
    """Code lengths capped at the alphabet's effective maximum.

    Histogram flattening shortens over-deep trees; a flat histogram
    cannot flatten further, so after the cap's worth of halvings the
    code degrades gracefully to a balanced (fixed-length) tree, which
    always satisfies Kraft for ``ceil(log2 n)`` bits.
    """
    cap = _max_code_len(freqs.size)
    working = freqs.astype(np.int64).copy()
    for _ in range(cap + 2):
        lengths = _huffman_code_lengths(working)
        if lengths.max() <= cap:
            return lengths
        working = (working >> 1) | 1
    balanced = int(np.ceil(np.log2(freqs.size)))
    return np.full(freqs.size, balanced, dtype=np.int64)


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical codes: sorted by (length, symbol index)."""
    order = np.lexsort((np.arange(lengths.size), lengths))
    codes = np.zeros(lengths.size, dtype=np.uint64)
    code = 0
    prev_len = 0
    for idx in order:
        length = int(lengths[idx])
        code <<= length - prev_len
        codes[idx] = code
        code += 1
        prev_len = length
    return codes


def _build_decode_table(lengths: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Flat window -> (symbol, length) arrays for max-length windows."""
    max_len = int(lengths.max())
    size = 1 << max_len
    table_sym = np.zeros(size, dtype=np.int64)
    table_len = np.zeros(size, dtype=np.int64)
    for sym_idx in range(lengths.size):
        length = int(lengths[sym_idx])
        code = int(codes[sym_idx])
        start = code << (max_len - length)
        end = (code + 1) << (max_len - length)
        table_sym[start:end] = sym_idx
        table_len[start:end] = length
    return table_sym, table_len, max_len


def _encode_alphabet(alphabet: np.ndarray) -> bytes:
    """Alphabet as zigzag-first + deltas (sorted, so deltas are >= 0)."""
    first = int(alphabet[0])
    zigzag_first = (first << 1) ^ (first >> 63)
    parts = [encode_uvarint(zigzag_first)]
    deltas = np.diff(alphabet.astype(np.int64))
    parts.extend(encode_uvarint(int(d)) for d in deltas)
    return b"".join(parts)


def _decode_alphabet(
    data: bytes, offset: int, alpha_size: int
) -> tuple[np.ndarray, int]:
    """Inverse of :func:`_encode_alphabet`; returns (alphabet, offset)."""
    zigzag_first, offset = decode_uvarint(data, offset)
    first = (zigzag_first >> 1) ^ -(zigzag_first & 1)
    limit = 1 << 62
    if abs(first) > limit:
        raise CorruptStreamError("implausible alphabet start")
    alphabet = np.zeros(alpha_size, dtype=np.int64)
    value = first
    for i in range(1, alpha_size):
        delta, offset = decode_uvarint(data, offset)
        value += delta
        if value > limit:
            raise CorruptStreamError("alphabet delta overflow")
        alphabet[i] = value
    alphabet[0] = first
    return alphabet, offset


class HuffmanCodec:
    """Self-contained canonical Huffman codec over int64 symbol arrays."""

    def encode(self, symbols: np.ndarray) -> bytes:
        """Encode an integer array into a self-describing byte stream."""
        symbols = np.asarray(symbols).ravel()
        n = symbols.size
        if n == 0:
            return encode_uvarint(0)
        alphabet, inverse, counts = symbol_table(symbols)
        if alphabet.size > (1 << _MAX_CODE_LEN_HARD):
            # Beyond this the balanced fallback could not satisfy the
            # hard length cap; callers should pre-split such streams.
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
            # Degenerate stream: everything is one symbol, no payload.
            return b"".join(header)

        lengths = _limited_code_lengths(counts)
        codes = _canonical_codes(lengths)
        header.append(pack_fixed_width(lengths.astype(np.uint64), 6))

        payload, total_bits = pack_bits(codes[inverse], lengths[inverse])
        header.append(encode_uvarint(total_bits))
        header.append(encode_section(payload))
        return b"".join(header)

    def decode(self, data: bytes) -> np.ndarray:
        """Decode a stream produced by :meth:`encode`."""
        n, offset = decode_uvarint(data, 0)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        alpha_size, offset = decode_uvarint(data, offset)
        if alpha_size == 0:
            raise CorruptStreamError("empty alphabet with nonzero symbols")
        if alpha_size > n:
            raise CorruptStreamError("alphabet larger than symbol count")
        alphabet, offset = _decode_alphabet(data, offset, alpha_size)

        if alpha_size == 1:
            # Degenerate streams legitimately encode huge runs in a few
            # bytes; only guard against allocation bombs.
            if n > (1 << 28):
                raise CorruptStreamError("implausible degenerate run length")
            return np.full(n, alphabet[0], dtype=np.int64)

        # Every coded symbol costs >= 1 payload bit; a corrupted header
        # cannot be allowed to force huge allocations below.
        if n > max(len(data), 64) * 64:
            raise CorruptStreamError("implausible symbol count")

        len_bytes = (alpha_size * 6 + 7) // 8
        if offset + len_bytes > len(data):
            raise CorruptStreamError("truncated code length table")
        lengths = unpack_fixed_width(
            data[offset : offset + len_bytes], 6, alpha_size
        ).astype(np.int64)
        offset += len_bytes
        if lengths.min() < 1 or lengths.max() > _MAX_CODE_LEN_HARD:
            raise CorruptStreamError("invalid code lengths")
        codes = _canonical_codes(lengths)
        table_sym, table_len, max_len = _build_decode_table(lengths, codes)

        total_bits, offset = decode_uvarint(data, offset)
        payload, offset = decode_section(data, offset)
        if len(payload) * 8 < total_bits:
            raise CorruptStreamError("truncated Huffman payload")

        out = np.zeros(n, dtype=np.int64)
        mask = (1 << max_len) - 1
        bitbuf = 0
        nbits = 0
        bytepos = 0
        consumed = 0
        tsym = table_sym.tolist()
        tlen = table_len.tolist()
        for i in range(n):
            while nbits < max_len and bytepos < len(payload):
                bitbuf = (bitbuf << 8) | payload[bytepos]
                bytepos += 1
                nbits += 8
            if nbits >= max_len:
                window = (bitbuf >> (nbits - max_len)) & mask
            else:
                window = (bitbuf << (max_len - nbits)) & mask
            sym_idx = tsym[window]
            length = tlen[window]
            if length == 0 or consumed + length > total_bits:
                raise CorruptStreamError("Huffman payload underflow")
            consumed += length
            if length <= nbits:
                nbits -= length
                bitbuf &= (1 << nbits) - 1
            else:
                raise CorruptStreamError("Huffman payload underflow")
            out[i] = sym_idx
        return alphabet[out]
