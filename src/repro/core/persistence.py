"""Save/load trained FXRZ pipelines.

The paper's deployment story (Sec. III-A) is "the training triggered by
one user is expected to benefit many other users in the similar
domain" — which requires shipping a trained model as a file. This
module serializes a fitted :class:`~repro.core.pipeline.FXRZ` —
forest structure, training curves, configuration — into a single
``.npz`` archive and restores it without retraining.

Only the default random-forest model is supported (custom
``model_factory`` models would need their own codecs); that is the
model FXRZ adopts, and the one the registry trains.
"""

from __future__ import annotations

import hashlib
import io
import json
import pathlib
import zipfile
import zlib

import numpy as np

from repro.compressors import available_compressors, get_compressor
from repro.config import FXRZConfig
from repro.core.augmentation import CompressionCurve
from repro.core.pipeline import FXRZ
from repro.core.training import _DatasetRecord
from repro.errors import (
    CompressionError,
    CorruptStreamError,
    InvalidConfiguration,
    NotFittedError,
)
from repro.ml.forest import RandomForestRegressor
from repro.ml.tree import DecisionTreeRegressor

_FORMAT_VERSION = 1

#: Framed container: magic + container version + payload length + CRC32,
#: then the compressed npz payload. The frame catches truncation and
#: bit flips *before* any bytes reach the zip/npz machinery, whose own
#: failure modes (BadZipFile, struct.error) are not ReproErrors.
_MAGIC = b"FXRZPIPE"
_CONTAINER_VERSION = 1
_HEADER_LEN = len(_MAGIC) + 2 + 8 + 4


def _tree_to_arrays(tree: DecisionTreeRegressor) -> dict[str, np.ndarray]:
    if tree._nodes is None:
        raise NotFittedError("cannot serialize an unfitted tree")
    return dict(tree._nodes)


def _tree_from_arrays(arrays: dict[str, np.ndarray]) -> DecisionTreeRegressor:
    tree = DecisionTreeRegressor()
    tree._nodes = {
        key: np.asarray(arrays[key])
        for key in ("feature", "threshold", "left", "right", "value")
    }
    return tree


def pipeline_fingerprint(pipeline: FXRZ) -> str:
    """Content fingerprint of a fitted pipeline's training corpus.

    Hashes what the model was *trained from* — per-record features,
    non-constant fractions and anchored curves, plus the compressor name
    and framework configuration — so two pipelines fitted on the same
    corpus with the same knobs share a fingerprint while any corpus or
    configuration change produces a new one. The model registry uses
    this as its on-disk key.
    """
    if not pipeline.is_fitted:
        raise NotFittedError("fingerprint needs a fitted pipeline")
    digest = hashlib.blake2b(digest_size=8)
    config = pipeline.config
    digest.update(
        json.dumps(
            {
                "compressor": pipeline.compressor.name,
                "sampling_stride": config.sampling_stride,
                "block_size": config.block_size,
                "lam": config.lam,
                "stationary_points": config.stationary_points,
                "augmented_samples": config.augmented_samples,
                "use_adjustment": config.use_adjustment,
                "seed": config.seed,
            },
            sort_keys=True,
        ).encode("utf-8")
    )
    for record in pipeline._training.records:
        for array in (
            record.features,
            np.array([record.nonconstant]),
            record.curve.configs,
            record.curve.ratios,
        ):
            digest.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return digest.hexdigest()


def save_pipeline(pipeline: FXRZ, path: str | pathlib.Path) -> None:
    """Serialize a fitted pipeline to ``path`` (.npz archive)."""
    if not pipeline.is_fitted:
        raise NotFittedError("fit the pipeline before saving")
    model = pipeline.model
    if not isinstance(model, RandomForestRegressor):
        raise InvalidConfiguration(
            "only the default RandomForestRegressor model can be saved"
        )

    config = pipeline.config
    # Constructor options a compressor may carry (zfp's mode, sz's
    # interpolation); persisted so the reloaded pipeline codes exactly
    # like the trained one.
    options = {
        key: getattr(pipeline.compressor, key)
        for key in ("mode", "interpolation")
        if hasattr(pipeline.compressor, key)
    }
    meta = {
        "format_version": _FORMAT_VERSION,
        "compressor": pipeline.compressor.name,
        "compressor_options": options,
        "config": {
            "sampling_stride": config.sampling_stride,
            "block_size": config.block_size,
            "lam": config.lam,
            "stationary_points": config.stationary_points,
            "augmented_samples": config.augmented_samples,
            "use_adjustment": config.use_adjustment,
            "seed": config.seed,
        },
        "n_trees": len(model.estimators_),
        "n_records": len(pipeline._training.records),
    }

    arrays: dict[str, np.ndarray] = {
        "meta": np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    }
    for i, tree in enumerate(model.estimators_):
        for key, value in _tree_to_arrays(tree).items():
            arrays[f"tree{i}_{key}"] = value
    for i, record in enumerate(pipeline._training.records):
        arrays[f"rec{i}_features"] = record.features
        arrays[f"rec{i}_nonconstant"] = np.array([record.nonconstant])
        arrays[f"rec{i}_configs"] = record.curve.configs
        arrays[f"rec{i}_ratios"] = record.curve.ratios
        arrays[f"rec{i}_logflag"] = np.array([int(record.curve.log_config)])

    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    payload = buffer.getvalue()
    frame = (
        _MAGIC
        + _CONTAINER_VERSION.to_bytes(2, "little")
        + len(payload).to_bytes(8, "little")
        + zlib.crc32(payload).to_bytes(4, "little")
    )
    pathlib.Path(path).write_bytes(frame + payload)


def _read_payload(raw: bytes, path: pathlib.Path) -> bytes:
    """Verify the container frame; returns the npz payload bytes.

    Archives written before the frame existed are bare npz files (zip
    magic ``PK``) and pass through unchanged.
    """
    if raw[:2] == b"PK":  # legacy bare-npz archive
        return raw
    if raw[: len(_MAGIC)] != _MAGIC:
        if len(raw) < len(_MAGIC) and _MAGIC.startswith(raw):
            # A prefix of the magic is a truncated archive, not a
            # foreign file — every truncation point must raise
            # CorruptStreamError, never misreport the file's type.
            raise CorruptStreamError(f"{path}: truncated archive header")
        raise InvalidConfiguration(f"{path} is not an FXRZ pipeline archive")
    if len(raw) < _HEADER_LEN:
        raise CorruptStreamError(f"{path}: truncated archive header")
    offset = len(_MAGIC)
    container_version = int.from_bytes(raw[offset : offset + 2], "little")
    if container_version > _CONTAINER_VERSION:
        raise InvalidConfiguration(
            f"{path} was written by a newer repro (container version "
            f"{container_version} > {_CONTAINER_VERSION}); upgrade to load it"
        )
    offset += 2
    length = int.from_bytes(raw[offset : offset + 8], "little")
    offset += 8
    crc = int.from_bytes(raw[offset : offset + 4], "little")
    payload = raw[_HEADER_LEN:]
    if len(payload) != length:
        raise CorruptStreamError(
            f"{path}: archive truncated ({len(payload)} of {length} "
            "payload bytes)"
        )
    if zlib.crc32(payload) != crc:
        raise CorruptStreamError(f"{path}: archive checksum mismatch")
    return payload


def load_pipeline(path: str | pathlib.Path) -> FXRZ:
    """Restore a pipeline saved by :func:`save_pipeline`.

    Raises:
        CorruptStreamError: the archive is truncated or bit-flipped
            (checksum/length mismatch, undecodable npz payload).
        InvalidConfiguration: the file is not an FXRZ archive, was
            written by a newer format version, or names an unknown
            compressor.
    """
    path = pathlib.Path(path)
    payload = _read_payload(path.read_bytes(), path)
    try:
        with np.load(io.BytesIO(payload)) as archive:
            arrays = {key: archive[key] for key in archive.files}
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as exc:
        raise CorruptStreamError(
            f"{path}: archive payload is undecodable: {exc}"
        ) from exc

    try:
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
    except (KeyError, ValueError) as exc:
        raise InvalidConfiguration(f"not an FXRZ pipeline archive: {exc}") from exc
    if not isinstance(meta, dict):
        raise InvalidConfiguration("archive metadata is not a mapping")
    version = meta.get("format_version")
    if not isinstance(version, int) or version < 1:
        raise InvalidConfiguration(
            f"unsupported pipeline format {version!r}"
        )
    if version > _FORMAT_VERSION:
        raise InvalidConfiguration(
            f"archive format {version} is newer than this library's "
            f"{_FORMAT_VERSION}; upgrade repro to load it"
        )

    kwargs = dict(meta.get("compressor_options") or {})
    if meta.get("compressor_mode"):  # archives written before options
        kwargs["mode"] = meta["compressor_mode"]
    # SZ once took an ``entropy`` option; Huffman, its default, is now
    # the only backend, so archives naming it still load.
    entropy = kwargs.pop("entropy", "huffman")
    if entropy != "huffman":
        raise InvalidConfiguration(
            f"archive uses the retired SZ entropy backend {entropy!r}; "
            "only Huffman coding is supported"
        )
    name = meta.get("compressor")
    try:
        compressor = get_compressor(name, **kwargs)
    except (CompressionError, TypeError) as exc:
        raise InvalidConfiguration(
            f"archive names unknown or unloadable compressor {name!r} "
            f"(available: {', '.join(available_compressors())}): {exc}"
        ) from exc
    try:
        config = FXRZConfig(**meta["config"])
    except (TypeError, ValueError, KeyError) as exc:
        raise InvalidConfiguration(
            f"archive carries an invalid FXRZ configuration: {exc}"
        ) from exc
    pipeline = FXRZ(compressor, config=config)

    try:
        n_trees = int(meta["n_trees"])
        n_records = int(meta["n_records"])
        if n_trees < 1 or n_records < 1:
            raise InvalidConfiguration(
                "archive must carry at least one tree and one record"
            )
        forest = RandomForestRegressor(n_estimators=n_trees)
        forest._trees = [
            _tree_from_arrays(
                {
                    key: arrays[f"tree{i}_{key}"]
                    for key in ("feature", "threshold", "left", "right", "value")
                }
            )
            for i in range(n_trees)
        ]

        records = []
        for i in range(n_records):
            curve = CompressionCurve(
                configs=arrays[f"rec{i}_configs"],
                ratios=arrays[f"rec{i}_ratios"],
                log_config=bool(arrays[f"rec{i}_logflag"][0]),
                build_seconds=0.0,
            )
            records.append(
                _DatasetRecord(
                    features=arrays[f"rec{i}_features"],
                    nonconstant=float(arrays[f"rec{i}_nonconstant"][0]),
                    curve=curve,
                )
            )
    except KeyError as exc:
        raise CorruptStreamError(
            f"archive is missing array {exc.args[0]!r}"
        ) from exc
    except (TypeError, ValueError) as exc:
        raise CorruptStreamError(f"archive arrays are malformed: {exc}") from exc

    pipeline._training.records = records
    pipeline._training._model = forest
    return pipeline
