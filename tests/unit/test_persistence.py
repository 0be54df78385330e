"""Unit tests for pipeline save/load."""

import io
import json

import numpy as np
import pytest

import repro
from repro.compressors import get_compressor
from repro.core import persistence
from repro.core.persistence import load_pipeline, save_pipeline
from repro.errors import CorruptStreamError, InvalidConfiguration, NotFittedError
from repro.ml.svr import SVR

from tests.conftest import small_forest_factory


def _unwrap_arrays(path) -> dict[str, np.ndarray]:
    """The npz arrays inside a framed archive written by save_pipeline."""
    raw = path.read_bytes()
    payload = raw[persistence._HEADER_LEN :]
    with np.load(io.BytesIO(payload)) as archive:
        return {k: archive[k] for k in archive.files}


def _rewrite_meta(path, edit) -> None:
    """Apply ``edit`` to the archive's metadata; re-save as bare npz."""
    arrays = _unwrap_arrays(path)
    meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    edit(meta)
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)  # legacy bare-npz layout is still read


@pytest.fixture(scope="module")
def fitted_pipeline():
    rng = np.random.default_rng(2)
    lin = np.linspace(0, 4 * np.pi, 20)
    x, y, z = np.meshgrid(lin, lin, lin, indexing="ij")
    train = [
        (np.sin(x + 0.3 * i) * np.cos(y) + 0.03 * rng.standard_normal((20,) * 3))
        .astype(np.float32)
        for i in range(2)
    ]
    config = repro.FXRZConfig(stationary_points=8, augmented_samples=60)
    pipeline = repro.FXRZ(
        get_compressor("sz"), config=config, model_factory=small_forest_factory
    )
    pipeline.fit(train)
    return pipeline, train


class TestRoundtrip:
    def test_predictions_identical_after_reload(self, fitted_pipeline, tmp_path):
        pipeline, train = fitted_pipeline
        path = tmp_path / "model.npz"
        save_pipeline(pipeline, path)
        restored = load_pipeline(path)

        probe = train[0]
        for tcr in (3.0, 6.0, 10.0):
            original = pipeline.estimate_config(probe, tcr).config
            reloaded = restored.estimate_config(probe, tcr).config
            assert reloaded == pytest.approx(original)

    def test_metadata_restored(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        path = tmp_path / "model.npz"
        save_pipeline(pipeline, path)
        restored = load_pipeline(path)
        assert restored.compressor.name == "sz"
        assert restored.config == pipeline.config
        assert len(restored.curves) == len(pipeline.curves)

    def test_sz_options_restored(self, tmp_path):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((16, 16, 16)).cumsum(axis=0).astype(np.float32)
        config = repro.FXRZConfig(stationary_points=6, augmented_samples=40)
        from repro.compressors.sz import SZCompressor

        pipeline = repro.FXRZ(
            SZCompressor(interpolation="linear"),
            config=config,
            model_factory=small_forest_factory,
        )
        pipeline.fit([data])
        path = tmp_path / "szopts.npz"
        save_pipeline(pipeline, path)
        meta = json.loads(bytes(_unwrap_arrays(path)["meta"]).decode("utf-8"))
        assert meta["compressor_options"] == {"interpolation": "linear"}
        restored = load_pipeline(path)
        assert restored.compressor.interpolation == "linear"

    def test_huffman_entropy_option_still_loads(self, fitted_pipeline, tmp_path):
        # Archives from before SZ lost its entropy option carry
        # "entropy": "huffman"; Huffman is the only backend now.
        pipeline, train = fitted_pipeline
        path = tmp_path / "huffman.npz"
        save_pipeline(pipeline, path)
        _rewrite_meta(
            path, lambda meta: meta["compressor_options"].update({"entropy": "huffman"})
        )
        restored = load_pipeline(path)
        assert restored.compressor.name == "sz"
        assert restored.estimate_config(train[0], 6.0).config == pytest.approx(
            pipeline.estimate_config(train[0], 6.0).config
        )

    def test_rate_mode_compressor_restored(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((16, 16, 16)).cumsum(axis=0).astype(np.float32)
        config = repro.FXRZConfig(stationary_points=6, augmented_samples=40)
        pipeline = repro.FXRZ(
            get_compressor("zfp", mode="rate"),
            config=config,
            model_factory=small_forest_factory,
        )
        pipeline.fit([data])
        path = tmp_path / "rate.npz"
        save_pipeline(pipeline, path)
        restored = load_pipeline(path)
        assert restored.compressor.mode == "rate"


class TestValidation:
    def test_unfitted_pipeline_rejected(self, tmp_path):
        pipeline = repro.FXRZ(get_compressor("sz"))
        with pytest.raises(NotFittedError):
            save_pipeline(pipeline, tmp_path / "x.npz")

    def test_custom_model_rejected(self, fitted_pipeline, tmp_path):
        _, train = fitted_pipeline
        config = repro.FXRZConfig(stationary_points=6, augmented_samples=40)
        pipeline = repro.FXRZ(
            get_compressor("sz"),
            config=config,
            model_factory=lambda seed: SVR(),
        )
        pipeline.fit(train[:1])
        with pytest.raises(InvalidConfiguration):
            save_pipeline(pipeline, tmp_path / "x.npz")

    def test_garbage_archive_rejected(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, something=np.arange(3))
        with pytest.raises(InvalidConfiguration):
            load_pipeline(path)

    def test_wrong_format_version_rejected(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        path = tmp_path / "versioned.npz"
        save_pipeline(pipeline, path)
        _rewrite_meta(path, lambda meta: meta.update(format_version=999))
        with pytest.raises(InvalidConfiguration, match="newer"):
            load_pipeline(path)

    def test_unknown_compressor_rejected(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        path = tmp_path / "badcomp.npz"
        save_pipeline(pipeline, path)
        _rewrite_meta(
            path, lambda meta: meta.update(compressor="definitely-not-a-compressor")
        )
        with pytest.raises(InvalidConfiguration, match="unknown or unloadable"):
            load_pipeline(path)

    def test_bad_config_rejected(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        path = tmp_path / "badcfg.npz"
        save_pipeline(pipeline, path)
        _rewrite_meta(path, lambda meta: meta["config"].update(no_such_knob=1))
        with pytest.raises(InvalidConfiguration, match="configuration"):
            load_pipeline(path)

    @pytest.mark.parametrize("backend", ["range", "chunked"])
    def test_retired_entropy_backend_rejected(
        self, fitted_pipeline, tmp_path, backend
    ):
        pipeline, _ = fitted_pipeline
        path = tmp_path / f"{backend}.npz"
        save_pipeline(pipeline, path)
        _rewrite_meta(
            path, lambda meta: meta["compressor_options"].update({"entropy": backend})
        )
        with pytest.raises(InvalidConfiguration, match=f"retired.*{backend}"):
            load_pipeline(path)


class TestFrameIntegrity:
    def test_truncated_archive_rejected(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        path = tmp_path / "trunc.npz"
        save_pipeline(pipeline, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptStreamError, match="truncated"):
            load_pipeline(path)

    def test_bit_flip_rejected(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        path = tmp_path / "flip.npz"
        save_pipeline(pipeline, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptStreamError, match="checksum"):
            load_pipeline(path)

    def test_future_container_version_rejected(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        path = tmp_path / "future.npz"
        save_pipeline(pipeline, path)
        raw = bytearray(path.read_bytes())
        offset = len(persistence._MAGIC)
        raw[offset : offset + 2] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(InvalidConfiguration, match="newer"):
            load_pipeline(path)

    def test_non_archive_rejected(self, tmp_path):
        path = tmp_path / "noise.npz"
        path.write_bytes(b"this is not an archive at all")
        with pytest.raises(InvalidConfiguration, match="not an FXRZ"):
            load_pipeline(path)

    def test_missing_array_is_corrupt(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        path = tmp_path / "missing.npz"
        save_pipeline(pipeline, path)
        arrays = _unwrap_arrays(path)
        del arrays["tree0_feature"]
        np.savez(path, **arrays)
        with pytest.raises(CorruptStreamError, match="missing array"):
            load_pipeline(path)
