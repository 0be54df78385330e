"""Canonical Huffman codec.

This is the entropy stage of every compressor here that codes
integers: SZ (``sz``, ``sz2``) Huffman-codes its quantization codes as
SZ 2.x does, and the MGARD-, FPZIP-, ZFP- and digit-rounding-like
compressors use it on theirs.

Design notes:

* **Encoding streams in fixed blocks.** The symbols are counted (a
  ``bincount`` per block when the value span fits in one block, one
  ``bincount`` of the shifted stream up to ``_BINCOUNT_SPAN``, a sort
  of the stream beyond), the code is built from the counts, and the
  total bit count (counts times lengths) sizes the output exactly. Then
  each block of :data:`repro.encoding.bitio.BLOCK` symbols maps to its
  codes with one gather from a packed ``code << 6 | length`` table
  (indexed by value, or past ``_BINCOUNT_SPAN`` by the position a
  binary search finds in the sorted alphabet) and goes straight
  into a :class:`repro.encoding.bitio.BitPacker`, which carries the bit
  offset from block to block. The scratch is a few block-sized arrays,
  reused, so besides the output and the value-span table encoding
  holds a fixed amount of memory however long the stream. Integer
  symbols are read in their own dtype, not cast to an int64 copy.
* **Code tables are built by runs.** Quantization histograms have tens
  of thousands of symbols but only a few hundred distinct counts, so
  the two-queue Huffman merge consumes whole runs of equal-weight
  leaves (or of merged nodes lighter than the next leaf) with one
  slice sum each, and its Python loop turns about once per run rather
  than once per symbol. The canonical codes and the alphabet header
  are numpy passes.
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

from bisect import bisect_left, bisect_right
from operator import add

import numpy as np

from repro.encoding import bitio
from repro.encoding.bitio import BitPacker, pack_fixed_width, unpack_fixed_width
from repro.encoding.varint import (
    decode_section,
    decode_uvarint,
    encode_uvarint,
    encode_uvarints,
)
from repro.errors import CorruptStreamError, EncodingError

#: Baseline code-length cap; large alphabets necessarily exceed it
#: (a prefix code over n symbols needs ceil(log2 n) bits), so the
#: effective cap grows with the alphabet up to ``_MAX_CODE_LEN_HARD``.
_MAX_CODE_LEN = 16
_MAX_CODE_LEN_HARD = 22

#: Value spans up to this wide are counted with ``bincount`` and coded
#: through a dense value -> code table; the dense arrays (8 MiB of
#: int64 at the cap) are far cheaper than the O(n log n) sort inside
#: ``np.unique`` on million-symbol streams.
_BINCOUNT_SPAN = 1 << 22


def _max_code_len(alphabet_size: int) -> int:
    """Effective length cap for an alphabet of the given size."""
    need = int(np.ceil(np.log2(max(alphabet_size, 2)))) + 1
    return min(max(_MAX_CODE_LEN, need), _MAX_CODE_LEN_HARD)


def _huffman_code_lengths(freqs: np.ndarray) -> np.ndarray:
    """Compute Huffman code lengths for positive frequencies.

    Uses the O(n) two-queue merge over frequency-sorted leaves (after
    an O(n log n) sort): the two smallest weights are always at the
    front of either the remaining-leaves queue or the FIFO of already
    merged nodes, whose weights come out non-decreasing, and a leaf
    wins a tie. Merges are taken by runs: while the next leaves all
    weigh no more than the merged front, that front stays put and the
    leaves pair among themselves, so one slice sum merges the whole
    run; the merged nodes lighter than the next leaf pair the same way.
    Only a merge of a leaf with a merged node is made singly. Depths
    then follow from the parent links by pointer doubling.
    """
    n = freqs.size
    if n == 1:
        return np.array([1], dtype=np.int64)
    order = np.argsort(freqs, kind="stable")
    leaves = freqs[order].tolist()
    merged: list[int] = []     # merged weights, in creation order
    leaf_kids: list[int] = []  # how many children of each are leaves
    li = 0  # next unconsumed leaf
    mi = 0  # next unconsumed merged node
    while len(merged) < n - 1:
        m = len(merged)
        if li < n and (mi == m or leaves[li] <= merged[mi]):
            if mi < m:
                pairs = (bisect_right(leaves, merged[mi], li, n) - li) >> 1
                if pairs:
                    end = li + 2 * pairs
                    merged += map(add, leaves[li:end:2], leaves[li + 1:end:2])
                    leaf_kids += [2] * pairs
                    li = end
                    continue
            first = leaves[li]
            li += 1
            from_leaves = 1
        else:
            stop = bisect_left(merged, leaves[li], mi, m) if li < n else m
            pairs = (stop - mi) >> 1
            if pairs:
                end = mi + 2 * pairs
                merged += map(add, merged[mi:end:2], merged[mi + 1:end:2])
                leaf_kids += [0] * pairs
                mi = end
                continue
            first = merged[mi]
            mi += 1
            from_leaves = 0
        if li < n and (mi == m or leaves[li] <= merged[mi]):
            merged.append(first + leaves[li])
            li += 1
            from_leaves += 1
        else:
            merged.append(first + merged[mi])
            mi += 1
        leaf_kids.append(from_leaves)

    # Both queues are consumed in order, so the parents of the sorted
    # leaves, and of every merged node but the root, are the merged ids
    # repeated by how many children of each kind they took.
    kids = np.array(leaf_kids, dtype=np.int64)
    nodes = np.arange(n - 1)
    root = n - 2
    up = np.append(np.repeat(nodes, 2 - kids), root)  # parent; root: itself
    depth = np.ones(n - 1, dtype=np.int64)  # distance to ``up``
    depth[root] = 0
    while up.min() != root:
        depth += depth[up]
        up = up[up]
    lengths = np.empty(n, dtype=np.int64)
    lengths[order] = depth[np.repeat(nodes, kids)] + 1
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
    """Assign canonical codes: sorted by (length, symbol index).

    Each length's first code follows from the counts of the shorter
    lengths; within a length, codes count up in symbol order.
    """
    order = np.argsort(lengths, kind="stable")
    sorted_len = lengths[order]
    bl_count = np.bincount(sorted_len)
    first = [0] * bl_count.size
    code = 0
    for length in range(1, bl_count.size):
        code = (code + int(bl_count[length - 1])) << 1
        first[length] = code
    rank = np.arange(lengths.size) - (np.cumsum(bl_count) - bl_count)[sorted_len]
    codes = np.zeros(lengths.size, dtype=np.uint64)
    codes[order] = np.array(first, dtype=np.uint64)[sorted_len] + rank.astype(
        np.uint64
    )
    return codes


def _build_decode_table(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Flat window -> (symbol, length) arrays for max-length windows.

    In canonical order each code's windows start where the previous
    code's end, so the table is each symbol repeated over its
    ``2**(max_len - length)`` windows in that order. Lengths that
    overfill the code space (a corrupt header) are cut off at the end of
    the table; an underfull one leaves zero-length (invalid) windows.
    """
    max_len = int(lengths.max())
    size = 1 << max_len
    order = np.argsort(lengths, kind="stable")
    sorted_len = lengths[order]
    ends = np.minimum(np.cumsum(1 << (max_len - sorted_len)), size)
    widths = np.diff(ends, prepend=0)
    filled = int(ends[-1])
    table_sym = np.zeros(size, dtype=np.int64)
    table_len = np.zeros(size, dtype=np.int64)
    table_sym[:filled] = np.repeat(order, widths)
    table_len[:filled] = np.repeat(sorted_len, widths)
    return table_sym, table_len, max_len


def _encode_alphabet(alphabet: np.ndarray) -> bytes:
    """Alphabet as zigzag-first + deltas (sorted, so deltas are >= 0)."""
    first = int(alphabet[0])
    deltas = np.diff(alphabet.astype(np.int64))
    if deltas.size and deltas.min() < 0:
        # Only a span past the int64 range wraps a delta negative.
        raise ValueError("uvarint cannot encode negative values")
    values = np.empty(alphabet.size, dtype=np.uint64)
    values[0] = (first << 1) ^ (first >> 63)
    values[1:] = deltas
    return encode_uvarints(values)


def _decode_alphabet(
    data: bytes, offset: int, alpha_size: int
) -> tuple[np.ndarray, int]:
    """Inverse of :func:`_encode_alphabet`; returns (alphabet, offset).

    Fails like decoding the deltas one by one would, at the first delta
    that is truncated, longer than ten bytes or lifts the running value
    past the plausible range.
    """
    zigzag_first, offset = decode_uvarint(data, offset)
    first = (zigzag_first >> 1) ^ -(zigzag_first & 1)
    limit = 1 << 62
    if abs(first) > limit:
        raise CorruptStreamError("implausible alphabet start")
    count = alpha_size - 1
    avail = len(data) - offset
    window = np.frombuffer(
        data, dtype=np.uint8, count=min(avail, 10 * count), offset=offset
    )
    # A delta ends at the next byte without a continuation bit.
    ends = np.flatnonzero(window < 0x80)[:count]
    sizes = np.diff(ends, prepend=-1)
    too_long = np.flatnonzero(sizes > 10)
    parsed = int(too_long[0]) if too_long.size else ends.size
    ends = ends[:parsed]
    sizes = sizes[:parsed]
    nbytes = int(ends[-1]) + 1 if parsed else 0

    alphabet = np.empty(parsed + 1, dtype=np.int64)
    alphabet[0] = first
    if parsed:
        starts = ends - sizes + 1
        group = np.arange(nbytes) - np.repeat(starts, sizes)
        bits = (window[:nbytes] & 0x7F).astype(np.uint64)
        deltas = np.bitwise_or.reduceat(
            bits << (7 * group).astype(np.uint64), starts
        )
        # A tenth byte above 1 puts a delta past 2**64 (and past the
        # limit); a running sum that wraps is past it too.
        huge = (sizes == 10) & (window[ends] > 1)
        total = np.cumsum(deltas)
        over = (total > np.uint64(limit - first)) | huge
        over[1:] |= total[1:] < total[:-1]
        if over.any():
            raise CorruptStreamError("alphabet delta overflow")
        alphabet[1:] = (total + np.uint64(first % (1 << 64))).view(np.int64)
    if parsed < count:
        if too_long.size or nbytes + 10 <= avail:
            raise CorruptStreamError("varint too long")
        raise CorruptStreamError("truncated varint")
    return alphabet, offset + nbytes


def _dense_counts(
    symbols: np.ndarray, smin: int, span: int, index: np.ndarray
) -> np.ndarray:
    """Count of each value ``smin + i`` at ``i``, over the value span.

    A span that fits in one block is counted block by block through the
    ``index`` scratch; values are shifted in int64, since the span can
    overflow a narrow dtype. A wider one (quantization streams carry an
    outlier sentinel far from the codes near zero) takes one
    ``bincount`` over the shifted stream, since per-block histograms of
    that span would cost more than the stream-sized shift.
    """
    block = index.size
    if span <= block:
        histogram = np.zeros(span, dtype=np.int64)
        for start in range(0, symbols.size, block):
            values = symbols[start : start + block]
            shifted = index[: values.size]
            np.subtract(values, smin, out=shifted, dtype=np.int64)
            histogram += np.bincount(shifted, minlength=span)
    else:
        histogram = np.bincount(
            np.subtract(symbols, smin, dtype=np.int64), minlength=span
        )
    return histogram


class HuffmanCodec:
    """Self-contained canonical Huffman codec over int64 symbol arrays."""

    def encode(self, symbols: np.ndarray) -> bytes:
        """Encode an integer array into a self-describing byte stream."""
        symbols = np.asarray(symbols).ravel()
        if symbols.dtype.kind not in "iu" or symbols.dtype == np.uint64:
            # The stream codes int64 values; a uint64 past 2**63 wraps.
            symbols = symbols.astype(np.int64)
        n = symbols.size
        if n == 0:
            return encode_uvarint(0)
        block = bitio.BLOCK
        # One index buffer serves the counting and the coding passes.
        index = np.empty(min(block, n), dtype=np.int64)
        smin = int(symbols.min())
        span = int(symbols.max()) - smin + 1
        dense = span <= _BINCOUNT_SPAN
        if dense:
            histogram = _dense_counts(symbols, smin, span, index)
            present = np.flatnonzero(histogram)
            counts = histogram[present]
            alphabet = present + smin
        else:
            alphabet, counts = np.unique(symbols, return_counts=True)
            alphabet = alphabet.astype(np.int64)
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
        total_bits = int(counts @ lengths)

        # Code and length share one table entry, so each block maps its
        # values with a single gather. Codes are at most 22 bits.
        entries = (codes << np.uint64(6)) | lengths.astype(np.uint64)
        if dense:
            # The histogram becomes the value -> entry table: only the
            # values present are ever looked up, so the rest of it may
            # keep its counts, and no second span-sized array is made.
            table = histogram.view(np.uint64)
            table[present] = entries
        else:
            table = entries
        packer = BitPacker(total_bits)
        entry = np.empty(index.size, dtype=np.uint64)
        length = np.empty(index.size, dtype=np.int64)
        for start in range(0, n, block):
            values = symbols[start : start + block]
            m = values.size
            if dense:
                np.subtract(values, smin, out=index[:m], dtype=np.int64)
                at = index[:m]
            else:
                at = np.searchsorted(alphabet, values)
            np.take(table, at, out=entry[:m], mode="wrap")
            np.bitwise_and(entry[:m], 63, out=length[:m].view(np.uint64))
            np.right_shift(entry[:m], 6, out=entry[:m])
            packer.write(entry[:m], length[:m])
        payload = packer.getvalue()
        del packer  # frees the packed words before the join copies the payload
        # ``encode_section`` framing, without copying the payload twice.
        header += [
            encode_uvarint(total_bits),
            encode_uvarint(len(payload)),
            payload,
        ]
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
        table_sym, table_len, max_len = _build_decode_table(lengths)

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
