"""Block-streamed Huffman encoding against the whole-stream oracle.

``HuffmanCodec.encode`` maps and packs its symbols one block of
``bitio.BLOCK`` at a time, carrying the bit offset across blocks, and
``pack_bits`` runs the same block packer. ``tests/huffman_oracle.py``
keeps the whole-stream encoder and packer they replaced; every stream
must come out byte-identical, at the default block size and at block
sizes small enough that codes and words straddle many block edges. The
memory guard checks what the blocks are for: encoding holds the output
plus a fixed amount of block scratch, however long the stream.
"""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.encoding import bitio
from repro.encoding.bitio import pack_bits
from repro.encoding.huffman import HuffmanCodec
from repro.errors import EncodingError
from tests import huffman_oracle

pytestmark = pytest.mark.kernels

#: The outlier sentinel of SZ's quantizer: it widens the value span of
#: small-bound code streams to about a million.
_SENTINEL = 2**20 + 1

_BLOCK_SIZES = (None, 7, 64)  # None: the module's own block


@contextmanager
def _block_size(block: int | None):
    saved = bitio.BLOCK
    if block is not None:
        bitio.BLOCK = block
    try:
        yield bitio.BLOCK
    finally:
        bitio.BLOCK = saved


def _stream_length(choice: str, block: int) -> int:
    return {
        "empty": 0,
        "one": 1,
        "block-1": block - 1,
        "block": block,
        "block+1": block + 1,
        "several": 3 * block + block // 2 + 5,
    }[choice]


def _symbols(n: int, spread: str, offset: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if spread == "one":
        return np.full(n, offset, dtype=np.int64)
    codes = rng.geometric(0.3, n) * rng.choice([-1, 1], n) + offset
    if spread == "sentinel":
        codes[rng.random(n) < 0.05] = _SENTINEL
    elif spread == "huge":  # past the dense-table span: sorted alphabet
        codes[rng.random(n) < 0.05] = 2**40
    return codes.astype(np.int64)


def _assert_same_stream(symbols: np.ndarray) -> None:
    assert HuffmanCodec().encode(symbols) == huffman_oracle.encode(symbols)


@pytest.mark.parametrize("block", _BLOCK_SIZES)
@settings(max_examples=60, deadline=None)
@given(
    length=st.sampled_from(
        ["empty", "one", "block-1", "block", "block+1", "several"]
    ),
    spread=st.sampled_from(["one", "narrow", "sentinel", "huge"]),
    offset=st.integers(-(2**31), 2**31),
    seed=st.integers(0, 2**32 - 1),
)
def test_encode_matches_whole_stream_oracle(block, length, spread, offset, seed):
    with _block_size(block) as size:
        symbols = _symbols(_stream_length(length, size), spread, offset, seed)
        _assert_same_stream(symbols)
        # Narrow dtypes are coded in their own dtype, not cast first.
        if symbols.size and spread in ("one", "narrow"):
            low = symbols - symbols.min()
            _assert_same_stream(low.astype(np.uint16))
            _assert_same_stream((low - 7).astype(np.int32))


@pytest.mark.parametrize("block", _BLOCK_SIZES)
def test_named_streams_match_oracle(block):
    rng = np.random.default_rng(3)
    with _block_size(block) as size:
        n = 5 * size + 3
        streams = [
            np.full(n, -42, dtype=np.int64),  # one symbol, negative
            np.array([7, 7, 7, -1, 7, -1], dtype=np.int64),
            rng.integers(-(2**62), 2**62, n, dtype=np.int64),  # all distinct
            # uint64 past 2**63 wraps to negative int64, as the codec's
            # int64 view of the stream always did.
            np.array([2**64 - 1, 0, 5, 2**63] * size, dtype=np.uint64),
            np.array([True, False, True] * size),
            # A narrow dtype whose span overflows it: shifts are int64.
            np.array([-128, 127, 0, 5] * size, dtype=np.int8),
            np.array([0, 65535, 9] * size, dtype=np.uint16),
            # Span exactly one block and one past it.
            np.arange(size, dtype=np.int64).repeat(2),
            np.arange(size + 1, dtype=np.int64),
        ]
        for symbols in streams:
            _assert_same_stream(symbols)


@pytest.mark.parametrize("block", _BLOCK_SIZES)
@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(0, 700),
    max_len=st.integers(0, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_pack_bits_matches_whole_stream_oracle(block, n, max_len, seed):
    # Every length 0..64 (zero-length codes at a block's start included)
    # with stray bits above each length.
    rng = np.random.default_rng(seed)
    lengths = rng.integers(0, max_len + 1, n)
    codes = rng.integers(0, 2**64, n, dtype=np.uint64)
    with _block_size(block):
        assert pack_bits(codes, lengths) == huffman_oracle.pack_bits(
            codes, lengths
        )


def test_too_many_distinct_symbols_raise_the_same_error():
    symbols = np.arange((1 << 22) + 1, dtype=np.int32) * 5
    with pytest.raises(EncodingError) as oracle_error:
        huffman_oracle.encode(symbols)
    with pytest.raises(EncodingError) as block_error:
        HuffmanCodec().encode(symbols)
    assert str(block_error.value) == str(oracle_error.value)


#: Block scratch the encoder may hold besides its output: eight arrays
#: of one block of 8-byte values (it needs about five).
_SCRATCH_BOUND = 8 * 8 * bitio.BLOCK


@pytest.mark.parametrize("n", [1 << 18, 1 << 20])
def test_encode_memory_is_output_plus_block_scratch(n):
    # A narrow-span stream: the whole-stream encoder held six
    # stream-sized 8-byte temporaries (~48 MB at a million symbols).
    rng = np.random.default_rng(n)
    symbols = (rng.geometric(0.3, n) * rng.choice([-1, 1], n)).astype(np.int64)
    tracemalloc.start()
    try:
        blob = HuffmanCodec().encode(symbols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The payload words and the returned bytes each hold the output once.
    assert peak < 2 * len(blob) + _SCRATCH_BOUND
