"""Fused-vs-oracle kernel parity: the batched path must be bit-identical.

:func:`~repro.compressors.kernels.encode_block` and
:func:`~repro.compressors.kernels.decode_block` fuse
predict→quantize→code-emit into in-place vector passes over arena
scratch; :mod:`tests.kernel_oracle` keeps the unfused quantize/dequantize
formulation. Their contract is bit-identity — same blob *bytes*, same
reconstruction — across every rank, code space and error-bound regime
of the three compressors that quantize through them (sz, sz2, mgard).
These tests pin that contract; any fused shortcut that changes a single
rounding decision fails here first.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.compressors import (
    CompressionStream,
    KernelArena,
    get_compressor,
    kernels,
)
from repro.compressors.quantizer import LinearQuantizer
from tests import kernel_oracle
from tests.kernel_oracle import oracle_passes

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


def _blob_and_recon(compressor, data, eb):
    blob = compressor.compress(data, eb)
    return blob, compressor.decompress(blob)


def _oracle_blob_and_recon(compressor, data, eb):
    with oracle_passes():
        return _blob_and_recon(compressor, data, eb)


@pytest.mark.parametrize("name", ["sz", "sz2", "mgard"])
@pytest.mark.parametrize("rank", ["1d", "2d", "3d"])
@pytest.mark.parametrize("eb", [1e-2, 1e-3, 1e-4])
def test_fused_blob_bytes_match_reference(fields, name, rank, eb):
    data = fields[rank]
    compressor = get_compressor(name)
    blob_n, recon_n = _blob_and_recon(compressor, data, eb)
    blob_r, recon_r = _oracle_blob_and_recon(compressor, data, eb)
    assert blob_n.data == blob_r.data
    np.testing.assert_array_equal(recon_n, recon_r)
    compressor.verify(data, recon_n, eb)


#: sha256 of ``compress(field, eb).data`` for the compressors that
#: quantize through the fused passes. A changed digest means an on-disk
#: format moved: old blobs would no longer reproduce byte for byte.
_PINNED_DIGESTS = {
    ("sz", "1d", 0.01): "a1b4a283bf6701d9a6d813ebd3332e1a6ce4711aec81f031f5cbcaed511bf562",
    ("sz", "1d", 0.0001): "2727d24657f6a532cd575de7b1a5e295eb26a2e41da8acf6b70f2beb4060d4b4",
    ("sz", "2d", 0.01): "287aed5037c0bbb6501dc8133e07af6c443bf1bb4d7aa6b1401a6124f1baef92",
    ("sz", "2d", 0.0001): "2a46593b5fefbf975a8317a9b31f171a2ab98cb197e834396693d50673965152",
    ("sz", "3d", 0.01): "40a0730a4aedd4c78cefad50978574eff18499d892b5498308a25bdd3f424614",
    ("sz", "3d", 0.0001): "cbbb9a128c8e0bc60bb4873f36a298c36870f2d8c7356319ea26009e8a432dc9",
    ("sz2", "1d", 0.01): "299a34d971e30a9e024dc989cfce1cf17b7ae2816d606b888e9c0779d1d71563",
    ("sz2", "1d", 0.0001): "e6f1634e4f0f851033f88e61f0cdd447daaadcabd6fe39b1d408d90597f1c3b4",
    ("sz2", "2d", 0.01): "3ef567d10e51d52b8ee3bd9b0f6ba9ca7d96088bc10ac22232a6f07345220d1b",
    ("sz2", "2d", 0.0001): "100e3712d8df7504620fdccb3ff8d9eb2e717fce427f67d12c0b3a0e5123e34b",
    ("sz2", "3d", 0.01): "4a8657e158834f7602ddb9c9a2c719c6d6f77cc98bac45c19afb1880a20712db",
    ("sz2", "3d", 0.0001): "5e443e7af56f35ebd1cb7a53b1f1c6321f340c2222ed94fff9cbb156f58f961a",
    ("mgard", "1d", 0.01): "bb74be2bf9cdbb64a54aad90ed3b6de520a3a7a5356cdd1601662325e357de39",
    ("mgard", "1d", 0.0001): "90be23523ff1cd4d37c3289c3fba3239092006c6787c68eb7cf32f1cfebc8fe6",
    ("mgard", "2d", 0.01): "ca07a8cd3dda04f36aab4cc05d4afc95eb861f666904cc355969fcb7b925748d",
    ("mgard", "2d", 0.0001): "d902711d065cf83d53e88e29eef4b2726e016678ca18d48165ef0e7b10252898",
    ("mgard", "3d", 0.01): "d036c989597b5a4cf2433663aa956e8e2e39083244cf0693a5cf8c0580f7a446",
    ("mgard", "3d", 0.0001): "52e7b0c590fbcf010ae1b1077fea2364e523fdbb04aa23d86a050ce9d57b7f96",
}


@pytest.mark.parametrize("name,rank,eb", sorted(_PINNED_DIGESTS))
def test_default_blob_bytes_are_pinned(fields, name, rank, eb):
    blob = get_compressor(name).compress(fields[rank], eb)
    assert hashlib.sha256(blob.data).hexdigest() == _PINNED_DIGESTS[name, rank, eb]


def _kernel_roundtrip(passes, target, pred0, quantizer):
    """Encode then decode one block; returns ``(codes, outliers, recon)``."""
    pred = pred0.copy()
    codes = np.empty(target.shape, dtype=np.int64)
    outliers = passes.encode_block(target, pred, quantizer, codes, KernelArena())
    recon = pred0.copy()
    used = passes.decode_block(codes, recon, quantizer, outliers, 0, KernelArena())
    assert used == outliers.size
    # The decoder rebuilds exactly the reconstruction the encoder left.
    assert recon.tobytes() == pred.tobytes()
    return codes, outliers, recon


def _assert_kernel_parity(target, pred0, quantizer):
    fused = _kernel_roundtrip(kernels, target, pred0, quantizer)
    oracle = _kernel_roundtrip(kernel_oracle, target, pred0, quantizer)
    codes, outliers, recon = fused
    assert outliers.size > 0
    for a, b in zip(fused, oracle):
        assert a.tobytes() == b.tobytes()
    assert np.all(np.abs(recon - target) <= quantizer.error_bound)
    return codes


def test_parity_with_tiny_error_bound_outlier_heavy(fields):
    # A tiny eb in a 4-bit code space pushes most residuals past the
    # code range: the outlier path (sentinel codes + verbatim values)
    # must match exactly too.
    target = fields["3d"].astype(np.float64)
    pred0 = np.roll(target, 1, axis=0)
    codes = _assert_kernel_parity(target, pred0, LinearQuantizer(1e-7, max_code=7))
    assert np.count_nonzero(codes == 8) > codes.size // 2


def test_narrow_code_space_parity(fields):
    # Code spaces from 1 magnitude bit up: both code and outlier paths
    # are exercised in one block.
    target = fields["2d"]
    pred0 = np.roll(target, 1, axis=1)
    for max_code in (1, 7, 127):
        quantizer = LinearQuantizer(1e-3, max_code=max_code)
        codes = _assert_kernel_parity(target, pred0, quantizer)
        assert np.count_nonzero(codes != quantizer.sentinel) > 0


def test_rounding_edge_takes_outlier_path_in_both_backends():
    # 1.00001 / 2e-5 rounds to a code whose dequantized residual lies a
    # few ulps past eb; the fused pass and the oracle must both divert
    # it to the outlier path.
    target = np.array([1.00001, 0.5, -0.25])
    quantizer = LinearQuantizer(1e-5)
    results = []
    for passes in (kernels, kernel_oracle):
        pred = np.zeros(3)
        codes = np.empty(3, dtype=np.int64)
        outliers = passes.encode_block(
            target, pred, quantizer, codes, KernelArena()
        )
        results.append((codes, outliers, pred))
        assert codes[0] == quantizer.sentinel
        np.testing.assert_array_equal(outliers, target[:1])
        assert np.all(np.abs(pred - target) <= quantizer.error_bound)
    for a, b in zip(*results):
        np.testing.assert_array_equal(a, b)


def test_parity_on_constant_block():
    data = np.full((32, 32), 3.25, dtype=np.float64)
    for name in ("sz", "sz2", "mgard"):
        compressor = get_compressor(name)
        blob_n, recon_n = _blob_and_recon(compressor, data, 1e-5)
        blob_r, recon_r = _oracle_blob_and_recon(compressor, data, 1e-5)
        assert blob_n.data == blob_r.data, name
        np.testing.assert_array_equal(recon_n, recon_r)
        compressor.verify(data, recon_n, 1e-5)
        if name != "sz2":
            # Predicted from the field mean, a constant field comes
            # back exactly (sz2's Lorenzo stencil starts from zeros).
            np.testing.assert_array_equal(recon_n, data)


@pytest.mark.parametrize("name", ["sz", "sz2", "mgard"])
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
