"""Property-based tests: every lossless codec must round-trip exactly."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.encoding import (
    HuffmanCodec,
    RangeCoder,
    pack_fixed_width,
    rle_decode,
    rle_encode,
    unpack_fixed_width,
    zero_rle_decode,
    zero_rle_encode,
)
from repro.encoding.varint import decode_uvarint, encode_uvarint

_int_arrays = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(0, 400),
    elements=st.integers(-(2**40), 2**40),
)

_small_alphabet_arrays = hnp.arrays(
    dtype=np.int64,
    shape=st.integers(0, 600),
    elements=st.integers(-4, 4),
)


class TestHuffmanProperties:
    @given(_int_arrays)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_any_ints(self, symbols):
        codec = HuffmanCodec()
        assert np.array_equal(codec.decode(codec.encode(symbols)), symbols)

    @given(_small_alphabet_arrays)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_small_alphabet(self, symbols):
        codec = HuffmanCodec()
        assert np.array_equal(codec.decode(codec.encode(symbols)), symbols)


class TestRangeCoderProperties:
    @given(_int_arrays)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_any_ints(self, symbols):
        coder = RangeCoder()
        assert np.array_equal(coder.decode(coder.encode(symbols)), symbols)

    @given(_small_alphabet_arrays)
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_small_alphabet(self, symbols):
        coder = RangeCoder()
        assert np.array_equal(coder.decode(coder.encode(symbols)), symbols)


class TestRLEProperties:
    @given(_small_alphabet_arrays)
    @settings(max_examples=60, deadline=None)
    def test_generic_rle_roundtrip(self, symbols):
        values, runs = rle_encode(symbols)
        assert np.array_equal(rle_decode(values, runs), symbols)
        # Compression invariant: adjacent values always differ.
        if values.size > 1:
            assert (values[1:] != values[:-1]).all()

    @given(_small_alphabet_arrays)
    @settings(max_examples=60, deadline=None)
    def test_zero_rle_roundtrip(self, symbols):
        tokens, literals = zero_rle_encode(symbols)
        assert np.array_equal(zero_rle_decode(tokens, literals), symbols)
        assert (literals != 0).all()


class TestBitPackingProperties:
    @given(
        hnp.arrays(
            dtype=np.uint64,
            shape=st.integers(0, 300),
            elements=st.integers(0, 2**20 - 1),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_fixed_width_roundtrip(self, values):
        buf = pack_fixed_width(values, 20)
        assert np.array_equal(unpack_fixed_width(buf, 20, values.size), values)


class TestVarintProperties:
    @given(st.lists(st.integers(0, 2**62), max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_concatenated_stream_roundtrip(self, values):
        blob = b"".join(encode_uvarint(v) for v in values)
        offset = 0
        decoded = []
        for _ in values:
            value, offset = decode_uvarint(blob, offset)
            decoded.append(value)
        assert decoded == values
        assert offset == len(blob)
