"""Fused-vs-reference kernel parity: the batched path must be bit-identical.

The ``"numpy"`` kernel backend fuses predict→quantize→code-emit into
in-place vector passes over arena scratch; the ``"reference"`` backend
reproduces the original unfused semantics through
:class:`~repro.compressors.quantizer.LinearQuantizer`. Their contract is
bit-identity — same blob *bytes*, same reconstruction — across every
rank, entropy codec and error-bound regime the SZ family supports.
These tests pin that contract; any fused shortcut that changes a single
rounding decision fails here first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compressors import (
    CompressionStream,
    KernelArena,
    get_compressor,
    get_kernel_backend,
    use_kernel_backend,
)
from repro.compressors.quantizer import LinearQuantizer
from repro.compressors.sz import SZCompressor

pytestmark = pytest.mark.kernels


@pytest.fixture(scope="module")
def fields():
    rng = np.random.default_rng(11)
    lin = np.linspace(0, 2 * np.pi, 4096)
    field1d = (np.sin(3 * lin) + 0.05 * rng.standard_normal(4096)).astype(
        np.float32
    )
    lin = np.linspace(0, 2 * np.pi, 48)
    x, y = np.meshgrid(lin, lin, indexing="ij")
    field2d = (np.cos(x) * np.sin(2 * y)).astype(np.float64)
    lin = np.linspace(0, 2 * np.pi, 18)
    x, y, z = np.meshgrid(lin, lin, lin, indexing="ij")
    field3d = (
        np.sin(x) * np.cos(y + z) + 0.02 * rng.standard_normal((18, 18, 18))
    ).astype(np.float32)
    return {"1d": field1d, "2d": field2d, "3d": field3d}


def _blob_and_recon(compressor, data, eb, backend):
    with use_kernel_backend(backend):
        blob = compressor.compress(data, eb)
        recon = compressor.decompress(blob)
    return blob, recon


@pytest.mark.parametrize("name", ["sz", "sz2"])
@pytest.mark.parametrize("rank", ["1d", "2d", "3d"])
@pytest.mark.parametrize("eb", [1e-2, 1e-4])
def test_fused_blob_bytes_match_reference(fields, name, rank, eb):
    data = fields[rank]
    compressor = get_compressor(name)
    blob_n, recon_n = _blob_and_recon(compressor, data, eb, "numpy")
    blob_r, recon_r = _blob_and_recon(compressor, data, eb, "reference")
    assert blob_n.data == blob_r.data
    np.testing.assert_array_equal(recon_n, recon_r)
    compressor.verify(data, recon_n, eb)


@pytest.mark.parametrize("entropy", ["huffman", "range", "chunked"])
def test_parity_holds_for_every_entropy_codec(fields, entropy):
    data = fields["2d"]
    compressor = SZCompressor(entropy=entropy)
    blob_n, recon_n = _blob_and_recon(compressor, data, 1e-3, "numpy")
    blob_r, recon_r = _blob_and_recon(compressor, data, 1e-3, "reference")
    assert blob_n.data == blob_r.data
    np.testing.assert_array_equal(recon_n, recon_r)


def test_parity_with_tiny_error_bound_outlier_heavy(fields):
    # A tiny eb pushes many residuals past the code range: the outlier
    # path (sentinel codes + verbatim values) must also match exactly.
    data = fields["3d"]
    compressor = SZCompressor(quant_width=4)
    blob_n, recon_n = _blob_and_recon(compressor, data, 1e-7, "numpy")
    blob_r, recon_r = _blob_and_recon(compressor, data, 1e-7, "reference")
    assert blob_n.data == blob_r.data
    np.testing.assert_array_equal(recon_n, recon_r)


def test_rounding_edge_takes_outlier_path_in_both_backends():
    # 1.00001 / 2e-5 rounds to a code whose dequantized residual lies a
    # few ulps past eb; both backends must divert it to the outlier path.
    target = np.array([1.00001, 0.5, -0.25])
    quantizer = LinearQuantizer(1e-5)
    results = {}
    for name in ("numpy", "reference"):
        pred = np.zeros(3)
        codes = np.empty(3, dtype=np.int64)
        outliers = get_kernel_backend(name).encode_block(
            target, pred, quantizer, codes, KernelArena()
        )
        results[name] = (codes, outliers, pred)
        assert codes[0] == quantizer.sentinel
        np.testing.assert_array_equal(outliers, target[:1])
        assert np.all(np.abs(pred - target) <= quantizer.error_bound)
    for a, b in zip(results["numpy"], results["reference"]):
        np.testing.assert_array_equal(a, b)


def test_parity_on_constant_block():
    data = np.full((32, 32), 3.25, dtype=np.float64)
    compressor = get_compressor("sz")
    blob_n, recon_n = _blob_and_recon(compressor, data, 1e-5, "numpy")
    blob_r, recon_r = _blob_and_recon(compressor, data, 1e-5, "reference")
    assert blob_n.data == blob_r.data
    np.testing.assert_array_equal(recon_n, data)
    np.testing.assert_array_equal(recon_r, data)


@pytest.mark.parametrize("name", ["sz", "sz2"])
def test_stream_reuse_is_bit_identical_to_cold_calls(fields, name):
    # The same arena carries scratch across timesteps; buffer reuse
    # must never leak state between arrays of different shapes/content.
    compressor = get_compressor(name)
    stream = CompressionStream(compressor)
    for rank in ("3d", "1d", "2d", "3d"):
        data = fields[rank]
        warm = stream.compress(data, 1e-3)
        cold = compressor.compress(data, 1e-3)
        assert warm.data == cold.data
        np.testing.assert_array_equal(
            stream.decompress(warm), compressor.decompress(cold)
        )
    assert stream.stats.reuses > 0


def test_stream_decode_after_shrinking_shapes(fields):
    # Decoding a small blob with an arena grown by a larger one must
    # not read stale bytes beyond the logical view.
    compressor = get_compressor("sz")
    arena = KernelArena()
    stream = compressor.compress_stream(arena=arena)
    big = stream.compress(fields["3d"], 1e-3)
    small = stream.compress(fields["1d"][:257], 1e-3)
    np.testing.assert_array_equal(
        stream.decompress(small),
        compressor.decompress(small),
    )
    np.testing.assert_array_equal(
        stream.decompress(big), compressor.decompress(big)
    )


def test_quant_width_parity_and_header_roundtrip(fields):
    data = fields["2d"]
    for width in (2, 8, 22):
        compressor = SZCompressor(entropy="chunked", quant_width=width)
        blob_n, recon_n = _blob_and_recon(compressor, data, 1e-3, "numpy")
        blob_r, recon_r = _blob_and_recon(compressor, data, 1e-3, "reference")
        assert blob_n.data == blob_r.data
        np.testing.assert_array_equal(recon_n, recon_r)
        compressor.verify(data, recon_n, 1e-3)
