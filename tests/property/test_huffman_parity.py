"""Huffman table builders against their symbol-at-a-time references.

``_huffman_code_lengths`` merges whole runs of leaves at once,
``_canonical_codes`` and the alphabet header are numpy passes, and the
decoder builds its window table and reads the alphabet deltas without a
per-symbol loop. The loops they replaced are kept below as the oracle:
every output must match them exactly (lengths, codes, header bytes,
decode tables, decoded alphabets and the errors a corrupt header
raises), so the encoded bytes never change.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.encoding import huffman
from repro.encoding.huffman import (
    HuffmanCodec,
    _build_decode_table,
    _canonical_codes,
    _decode_alphabet,
    _encode_alphabet,
    _huffman_code_lengths,
    _limited_code_lengths,
)
from repro.encoding.varint import decode_uvarint, encode_uvarint
from repro.errors import CorruptStreamError

pytestmark = pytest.mark.kernels


# -- the symbol-at-a-time oracle -------------------------------------------------


def _reference_code_lengths(freqs: np.ndarray) -> np.ndarray:
    """Two-queue merge taking one node at a time, depths node by node."""
    n = freqs.size
    if n == 1:
        return np.array([1], dtype=np.int64)
    order = np.argsort(freqs, kind="stable")
    leaf_weights = freqs[order].tolist()

    merged_weights: list[int] = []
    left_child: list[int] = []
    right_child: list[int] = []
    li = 0
    mi = 0

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


def _reference_canonical_codes(lengths: np.ndarray) -> np.ndarray:
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


def _reference_decode_table(lengths: np.ndarray, codes: np.ndarray):
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


def _reference_encode_alphabet(alphabet: np.ndarray) -> bytes:
    first = int(alphabet[0])
    zigzag_first = (first << 1) ^ (first >> 63)
    parts = [encode_uvarint(zigzag_first)]
    deltas = np.diff(alphabet.astype(np.int64))
    parts.extend(encode_uvarint(int(d)) for d in deltas)
    return b"".join(parts)


def _reference_decode_alphabet(data: bytes, offset: int, alpha_size: int):
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


# -- inputs ----------------------------------------------------------------------------


def _fibonacci(n: int) -> np.ndarray:
    out = [1, 1]
    while len(out) < n:
        out.append(out[-1] + out[-2])
    return np.array(out[:n], dtype=np.int64)


_NAMED = {
    "one": np.array([9], dtype=np.int64),
    "two": np.array([5, 3], dtype=np.int64),
    "two-tied": np.array([4, 4], dtype=np.int64),
    "fibonacci-40": _fibonacci(40),  # deeper than the cap: flattened
    "fibonacci-60": _fibonacci(60),
    "flat-2^16": np.ones(1 << 16, dtype=np.int64),
    "flat-2^16-plus-one": np.ones((1 << 16) + 1, dtype=np.int64),
    "all-distinct": np.arange(1, 20_001, dtype=np.int64),
    "spike": np.r_[np.ones(5_000, dtype=np.int64), 10**9],
}

#: Histograms with many ties (counts drawn from a few values), as
#: quantization codes give, and with mostly distinct counts.
_tied = st.lists(st.integers(1, 6), min_size=1, max_size=600)
_spread = st.lists(st.integers(1, 10**6), min_size=1, max_size=600)
_histograms = st.one_of(_tied, _spread).map(
    lambda xs: np.array(xs, dtype=np.int64)
)


def _assert_tables_match(freqs: np.ndarray) -> None:
    lengths = _huffman_code_lengths(freqs)
    expected = _reference_code_lengths(freqs)
    assert lengths.dtype == expected.dtype
    np.testing.assert_array_equal(lengths, expected)

    limited = _limited_code_lengths(freqs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(huffman, "_huffman_code_lengths", _reference_code_lengths)
        np.testing.assert_array_equal(limited, _limited_code_lengths(freqs))

    codes = _canonical_codes(limited)
    ref_codes = _reference_canonical_codes(limited)
    assert codes.dtype == ref_codes.dtype
    np.testing.assert_array_equal(codes, ref_codes)

    if freqs.size > 1:
        for got, want in zip(
            _build_decode_table(limited),
            _reference_decode_table(limited, ref_codes),
        ):
            np.testing.assert_array_equal(got, want)


# -- parity ------------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(_NAMED))
def test_named_histograms_match(name):
    _assert_tables_match(_NAMED[name])


@given(_histograms)
@settings(max_examples=150, deadline=None)
def test_random_histograms_match(freqs):
    _assert_tables_match(freqs)


@given(
    st.integers(-(2**62), 2**61),  # the span stays within the 2**62 limit
    st.lists(st.integers(1, 2**40), max_size=300),
)
@settings(max_examples=150, deadline=None)
@example(first=-(2**62), deltas=[])
@example(first=-1, deltas=[1] * 70_000)
@example(first=-5, deltas=[2**35, 1, 2**14, 2**7, 2**7 - 1])
def test_alphabet_header_matches(first, deltas):
    alphabet = first + np.cumsum([0, *deltas], dtype=np.int64)
    blob = _encode_alphabet(alphabet)
    assert blob == _reference_encode_alphabet(alphabet)
    decoded, end = _decode_alphabet(blob + b"\x01tail", 0, alphabet.size)
    np.testing.assert_array_equal(decoded, alphabet)
    assert end == len(blob)


def _outcome(decode, data: bytes, alpha_size: int):
    try:
        alphabet, offset = decode(data, 0, alpha_size)
    except CorruptStreamError as exc:
        return "error", str(exc)
    return alphabet.tolist(), offset


#: Bytes that stress varint parsing: continuation runs, 7-bit edges.
_varint_bytes = st.lists(
    st.sampled_from([0x00, 0x01, 0x02, 0x7F, 0x80, 0x81, 0xFF]), max_size=60
).map(bytes)


@given(st.one_of(st.binary(max_size=60), _varint_bytes), st.integers(1, 40))
@settings(max_examples=300, deadline=None)
@example(data=b"\xff" * 9 + b"\x01\x00", alpha_size=2)  # 10-byte delta, 2**63
@example(data=b"\xff" * 10 + b"\x01", alpha_size=2)  # 11-byte varint
@example(data=b"\x80" * 9, alpha_size=3)  # truncated
@example(data=b"\x00" + b"\x80" * 10, alpha_size=2)  # too long at the end
def test_corrupt_alphabet_headers_fail_alike(data, alpha_size):
    assert _outcome(_decode_alphabet, data, alpha_size) == _outcome(
        _reference_decode_alphabet, data, alpha_size
    )


@pytest.mark.parametrize("first", [-(2**62), -(2**62) + 1, 0, 2**62])
@pytest.mark.parametrize(
    "deltas",
    [
        [2**63],
        [2**63, 0],
        [2**63, 1],
        [2**62, 2**62],
        [2**64 - 1],
        [2**64],
        [5, 2**64 - 3],  # the running sum wraps a uint64 back below the limit
    ],
)
def test_delta_overflow_edges_fail_alike(first, deltas):
    zigzag = (first << 1) ^ (first >> 63)
    data = b"".join(encode_uvarint(v) for v in [zigzag, *deltas]) + b"\x05"
    for alpha_size in (len(deltas) + 1, len(deltas) + 2):
        assert _outcome(_decode_alphabet, data, alpha_size) == _outcome(
            _reference_decode_alphabet, data, alpha_size
        )


@given(
    st.lists(st.integers(-300, 300), min_size=1, max_size=3_000).map(
        lambda xs: np.array(xs, dtype=np.int64)
    )
)
@settings(max_examples=60, deadline=None)
def test_encoded_streams_match_the_reference_tables(symbols):
    codec = HuffmanCodec()
    blob = codec.encode(symbols)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(huffman, "_huffman_code_lengths", _reference_code_lengths)
        mp.setattr(huffman, "_canonical_codes", _reference_canonical_codes)
        mp.setattr(huffman, "_encode_alphabet", _reference_encode_alphabet)
        assert codec.encode(symbols) == blob
    np.testing.assert_array_equal(codec.decode(blob), symbols)
