"""Lossless coding substrate used by the lossy compressors.

This package provides the entropy coding stage that the paper's
compressors (SZ, ZFP, FPZIP, MGARD+) rely on: vectorized bit packing,
canonical Huffman coding, zero-run-length coding, and varint section
framing.
"""

from repro.encoding.bitio import (
    pack_bits,
    unpack_bits,
    pack_fixed_width,
    unpack_fixed_width,
)
from repro.encoding.varint import encode_uvarint, decode_uvarint
from repro.encoding.huffman import HuffmanCodec
from repro.encoding.rle import zero_rle_encode, zero_rle_decode

__all__ = [
    "pack_bits",
    "unpack_bits",
    "pack_fixed_width",
    "unpack_fixed_width",
    "encode_uvarint",
    "decode_uvarint",
    "HuffmanCodec",
    "zero_rle_encode",
    "zero_rle_decode",
]
