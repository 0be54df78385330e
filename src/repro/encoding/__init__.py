"""Lossless coding substrate used by the lossy compressors.

This package provides the entropy/dictionary coding stages that the
paper's compressors (SZ, ZFP, FPZIP, MGARD+) rely on: bit-level I/O,
canonical Huffman coding, run-length coding, range coding, and varint
header serialization.
"""

from repro.encoding.bitio import (
    BitReader,
    BitWriter,
    pack_at_offsets,
    pack_bits,
    unpack_bits,
    pack_fixed_width,
    unpack_fixed_width,
)
from repro.encoding.varint import (
    encode_uvarint,
    decode_uvarint,
    encode_array_header,
    decode_array_header,
)
from repro.encoding.huffman import ChunkedHuffmanCodec, HuffmanCodec, symbol_table
from repro.encoding.rle import rle_encode, rle_decode, zero_rle_encode, zero_rle_decode
from repro.encoding.range_coder import RangeCoder

__all__ = [
    "BitReader",
    "BitWriter",
    "pack_at_offsets",
    "pack_bits",
    "unpack_bits",
    "pack_fixed_width",
    "unpack_fixed_width",
    "encode_uvarint",
    "decode_uvarint",
    "encode_array_header",
    "decode_array_header",
    "ChunkedHuffmanCodec",
    "HuffmanCodec",
    "symbol_table",
    "rle_encode",
    "rle_decode",
    "zero_rle_encode",
    "zero_rle_decode",
    "RangeCoder",
]
