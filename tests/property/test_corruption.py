"""Failure-injection tests: corrupted streams must fail *controlledly*.

Decoders fed damaged bytes must raise a :class:`ReproError` subclass
(or return wrong-but-well-formed data) — never an uncontrolled
exception type and never a hang. This guards every decode path against
the classic entropy-coder failure mode of trusting stream-carried
sizes.
"""

import numpy as np
import pytest

from repro.compressors import get_compressor
from repro.compressors.base import CompressedBlob
from repro.encoding import HuffmanCodec
from repro.errors import CorruptStreamError, InvalidConfiguration, ReproError

_ACCEPTABLE = (ReproError,)


def _mutations(data: bytes, rng: np.random.Generator, n: int):
    """Yield n deterministic corruptions of ``data``."""
    for _ in range(n):
        kind = rng.integers(0, 3)
        if len(data) < 4:
            yield data + b"\xff"
            continue
        if kind == 0:  # truncate
            cut = int(rng.integers(1, len(data)))
            yield data[:cut]
        elif kind == 1:  # flip bytes
            pos = rng.integers(0, len(data), size=min(4, len(data)))
            corrupted = bytearray(data)
            for p in pos:
                corrupted[p] ^= 0xFF
            yield bytes(corrupted)
        else:  # garbage prefix
            yield bytes(rng.integers(0, 256, 16).astype(np.uint8)) + data[16:]


class TestHuffmanCorruption:
    def test_controlled_failures(self, rng):
        codec = HuffmanCodec()
        blob = codec.encode(rng.integers(-50, 50, 5000))
        for mutated in _mutations(blob, np.random.default_rng(1), 40):
            try:
                codec.decode(mutated)
            except _ACCEPTABLE:
                pass  # the expected controlled failure


class TestRangeCoderCorruption:
    def test_controlled_failures(self, rng):
        from repro.encoding import RangeCoder

        coder = RangeCoder()
        blob = coder.encode(rng.integers(-20, 20, 3000))
        for mutated in _mutations(blob, np.random.default_rng(3), 40):
            try:
                coder.decode(mutated)
            except _ACCEPTABLE:
                pass


@pytest.mark.robustness
class TestPersistenceCorruption:
    """Fuzzed pipeline archives fail with typed errors only.

    The framed container (magic + version + length + CRC32) means any
    truncation or bit flip must surface as :class:`CorruptStreamError`
    or :class:`InvalidConfiguration` — never ``zipfile``/``struct``/
    ``KeyError`` internals leaking out of ``load_pipeline``.
    """

    _TYPED = (CorruptStreamError, InvalidConfiguration)

    @pytest.fixture(scope="class")
    def archive_bytes(self, tmp_path_factory):
        import repro
        from repro.core.persistence import save_pipeline
        from tests.conftest import small_forest_factory

        rng = np.random.default_rng(11)
        lin = np.linspace(0, 4 * np.pi, 16)
        x, y, z = np.meshgrid(lin, lin, lin, indexing="ij")
        data = (np.sin(x) * np.cos(y) + 0.05 * z).astype(np.float32)
        config = repro.FXRZConfig(stationary_points=6, augmented_samples=40)
        pipeline = repro.FXRZ(
            get_compressor("sz"), config=config,
            model_factory=small_forest_factory,
        )
        pipeline.fit([data + 0.02 * rng.standard_normal(data.shape)])
        path = tmp_path_factory.mktemp("fuzz") / "pipeline.npz"
        save_pipeline(pipeline, path)
        return path.read_bytes()

    def test_only_typed_errors_escape(self, archive_bytes, tmp_path):
        from repro.core.persistence import load_pipeline

        path = tmp_path / "mutated.npz"
        survivors = 0
        for mutated in _mutations(
            archive_bytes, np.random.default_rng(5), 40
        ):
            path.write_bytes(mutated)
            try:
                load_pipeline(path)
                survivors += 1  # CRC collision — astronomically unlikely
            except self._TYPED:
                pass  # the controlled failure this test demands
        assert survivors == 0

    def test_every_truncation_point_is_controlled(self, archive_bytes, tmp_path):
        from repro.core.persistence import load_pipeline

        path = tmp_path / "short.npz"
        for cut in np.linspace(0, len(archive_bytes) - 1, 25).astype(int):
            path.write_bytes(archive_bytes[:cut])
            with pytest.raises(self._TYPED):
                load_pipeline(path)

    def test_mid_frame_truncation_is_always_corrupt_stream(
        self, archive_bytes, tmp_path
    ):
        """Every strict prefix of a framed archive raises the frame error.

        The FXRZPIPE frame (magic + version + payload length + CRC32)
        promises that *any* truncation — inside the magic, inside the
        header fields, or anywhere in the payload — surfaces as
        :class:`CorruptStreamError` specifically, never as a zipfile
        guess over half-read bytes. Cut points cover every byte of the
        magic + header region exhaustively and a dense sweep of the
        payload.
        """
        from repro.core.persistence import load_pipeline

        assert archive_bytes.startswith(b"FXRZPIPE")
        header_region = range(0, 32)  # magic (8) + header (14) + margin
        body_region = np.linspace(
            32, len(archive_bytes) - 1, 128
        ).astype(int)
        path = tmp_path / "cut.npz"
        for cut in sorted({*header_region, *body_region}):
            path.write_bytes(archive_bytes[:cut])
            with pytest.raises(CorruptStreamError):
                load_pipeline(path)


@pytest.mark.robustness
class TestEncodedStreamCorruption:
    """Typed-error guarantee for the byte-stream codecs (RLE)."""

    def test_rle_token_corruption(self, rng):
        from repro.encoding.rle import zero_rle_decode, zero_rle_encode

        tokens, literals = zero_rle_encode(rng.integers(0, 3, 4000))
        corrupter = np.random.default_rng(9)
        for _ in range(40):
            bad_tokens = tokens.copy()
            idx = corrupter.integers(0, tokens.size)
            bad_tokens[idx] = int(corrupter.integers(-(2**40), 2**40))
            try:
                out = zero_rle_decode(bad_tokens, literals)
                assert out.size <= 2**28
            except _ACCEPTABLE:
                pass


@pytest.mark.parametrize("name,config", [
    ("sz", 0.01), ("sz2", 0.01), ("zfp", 0.01), ("mgard", 0.01),
    ("fpzip", 16), ("digit", 4),
])
class TestCompressorCorruption:
    def test_controlled_failures(self, smooth_field3d, name, config):
        comp = get_compressor(name)
        blob = comp.compress(smooth_field3d, config)
        mutator = np.random.default_rng(hash(name) % (2**31))
        for mutated in _mutations(blob.data, mutator, 25):
            damaged = CompressedBlob(
                data=mutated,
                original_shape=blob.original_shape,
                original_dtype=blob.original_dtype,
                compressor=blob.compressor,
                config=blob.config,
            )
            try:
                out = comp.decompress(damaged)
                # Wrong data is tolerable; wrong *shape* is not.
                assert out.shape == smooth_field3d.shape
            except _ACCEPTABLE:
                pass
