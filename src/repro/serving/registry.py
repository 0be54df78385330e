"""Versioned on-disk registry of trained FXRZ pipelines.

The paper's deployment story (Sec. III-A) is that one user's training
run serves many later users; a serving process therefore needs a place
where trained models *live* — versioned, addressable, and kept warm.
The registry stores pipelines under::

    <root>/<compressor>/<corpus-fingerprint>/
        v1.fxrz
        v2.fxrz
        manifest.json        # {"latest": 2, "versions": {"1": {...}}}

Keys are the compressor name plus the training-corpus fingerprint
(:func:`~repro.core.persistence.pipeline_fingerprint`), so retraining
on the same corpus publishes a new *version* of the same entry, while a
different corpus (or different framework knobs) creates a sibling
entry. Every entry keeps a ``latest`` alias in its manifest; loads go
through :func:`~repro.core.persistence.load_pipeline` and land in a
bounded in-memory LRU so a serving process keeps its hot models
deserialized.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import threading
import time
import warnings
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.persistence import (
    load_pipeline,
    pipeline_fingerprint,
    save_pipeline,
)
from repro.core.pipeline import FXRZ
from repro.errors import CorruptStreamError, InvalidConfiguration

_MANIFEST = "manifest.json"
_SUFFIX = ".fxrz"
_LOCK = ".publish.lock"

#: The version alias resolving to an entry's newest published version.
LATEST = "latest"

#: A publish lock older than this is presumed abandoned (crashed holder).
_LOCK_STALE_SECONDS = 30.0

#: How long a publisher waits for a contended entry lock before failing.
_LOCK_TIMEOUT_SECONDS = 10.0


@contextlib.contextmanager
def _entry_lock(entry_dir: pathlib.Path):
    """Cross-process mutual exclusion over one registry entry.

    ``O_CREAT | O_EXCL`` makes lockfile creation atomic on every
    filesystem the registry targets; a lockfile whose mtime is older
    than :data:`_LOCK_STALE_SECONDS` is broken as abandoned (the holder
    crashed between creating it and unlinking it).
    """
    lock_path = entry_dir / _LOCK
    deadline = time.monotonic() + _LOCK_TIMEOUT_SECONDS
    while True:
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            break
        except FileExistsError:
            try:
                age = time.time() - lock_path.stat().st_mtime
            except OSError:
                continue  # holder released between open() and stat()
            if age > _LOCK_STALE_SECONDS:
                with contextlib.suppress(OSError):
                    lock_path.unlink()
                continue
            if time.monotonic() >= deadline:
                raise InvalidConfiguration(
                    f"registry entry {entry_dir} is publish-locked by "
                    f"another process ({lock_path}, {age:.1f}s old)"
                ) from None
            time.sleep(0.02)
    try:
        os.write(fd, str(os.getpid()).encode("ascii"))
        os.close(fd)
        yield
    finally:
        with contextlib.suppress(OSError):
            lock_path.unlink()


@dataclass(frozen=True)
class ModelVersion:
    """One published pipeline version."""

    compressor: str
    fingerprint: str
    version: int
    path: pathlib.Path

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.compressor, self.fingerprint, self.version)


class ModelRegistry:
    """Filesystem-backed model store with an in-memory LRU of hot models.

    Args:
        root: registry directory (created on first publish).
        max_loaded: how many deserialized pipelines to keep in memory;
            the least recently used is evicted past this.
        ctx: a :class:`~repro.runtime.RuntimeContext`; when it carries
            a metrics registry the LRU hit/miss/eviction gauges are
            bound there.
    """

    def __init__(
        self, root: str | pathlib.Path, max_loaded: int = 4, *, ctx=None
    ) -> None:
        if max_loaded < 1:
            raise InvalidConfiguration("max_loaded must be >= 1")
        self.root = pathlib.Path(root)
        self.max_loaded = int(max_loaded)
        self.ctx = ctx
        self._loaded: OrderedDict[tuple[str, str, int], FXRZ] = OrderedDict()
        self._lock = threading.Lock()
        self.load_hits = 0
        self.load_misses = 0
        self.evictions = 0
        self._remove_collector = lambda: None
        if ctx is not None and ctx.registry is not None:
            metrics = ctx.registry
            hits = metrics.gauge(
                "repro_model_registry_load_hits", "in-memory model LRU hits"
            )
            misses = metrics.gauge(
                "repro_model_registry_load_misses",
                "in-memory model LRU misses (disk loads)",
            )
            evictions = metrics.gauge(
                "repro_model_registry_evictions", "in-memory model LRU evictions"
            )

            def collect() -> None:
                hits.set(self.load_hits)
                misses.set(self.load_misses)
                evictions.set(self.evictions)

            self._remove_collector = metrics.register_collector(collect)

    def close(self) -> None:
        """Stop exporting the LRU gauges: remove the collector (idempotent).

        The collector closes over this registry, so until it is removed
        the context's metrics registry keeps it — and every pipeline in
        its LRU — alive.
        """
        self._remove_collector()

    # -- publishing ------------------------------------------------------------

    def publish(
        self,
        pipeline: FXRZ,
        fingerprint: str | None = None,
        *,
        promote: bool = True,
    ) -> ModelVersion:
        """Persist a fitted pipeline as the entry's next version.

        With ``promote=True`` (the default) the new version becomes the
        entry's ``latest``; ``promote=False`` publishes a *candidate*
        that loads by explicit version number but leaves the alias —
        and therefore every ``latest`` serving path — untouched until
        :meth:`promote` flips it. Version allocation and the manifest
        update happen under a per-entry ``O_EXCL`` lockfile, so
        concurrent publishers (e.g. a background retrainer racing an
        operator) get distinct version numbers instead of overwriting
        each other. The published pipeline is also placed in the
        in-memory LRU, already warm.
        """
        fingerprint = fingerprint or pipeline_fingerprint(pipeline)
        entry_dir = self.root / pipeline.compressor.name / fingerprint
        entry_dir.mkdir(parents=True, exist_ok=True)
        # Serialization is the slow part; do it outside the lock into a
        # writer-unique temp file, then claim a version atomically.
        tmp = entry_dir / (
            f".publish-{os.getpid()}-{threading.get_ident()}{_SUFFIX}.tmp"
        )
        try:
            save_pipeline(pipeline, tmp)
            with _entry_lock(entry_dir):
                manifest = self._read_manifest(entry_dir)
                try:
                    latest = int(manifest.get("latest", 0))
                except (TypeError, ValueError):
                    latest = 0
                on_disk = [
                    int(p.stem[1:])
                    for p in entry_dir.glob(f"v*{_SUFFIX}")
                    if p.stem[1:].isdigit()
                ]
                # A corrupt manifest must not reset the version counter
                # and silently overwrite published artifacts; the
                # on-disk files are the ground truth for "next version".
                version = max([latest, *on_disk], default=0) + 1
                path = entry_dir / f"v{version}{_SUFFIX}"
                tmp.replace(path)
                manifest.setdefault("versions", {})[str(version)] = {
                    "n_records": len(pipeline._training.records),
                    "compressor": pipeline.compressor.name,
                }
                if promote:
                    manifest["latest"] = version
                manifest.setdefault("history", []).append(
                    {
                        "action": "publish",
                        "version": version,
                        "promoted": bool(promote),
                        "previous": latest,
                        "time": time.time(),
                    }
                )
                self._write_manifest(entry_dir, manifest)
        finally:
            with contextlib.suppress(OSError):
                tmp.unlink()
        published = ModelVersion(
            compressor=pipeline.compressor.name,
            fingerprint=fingerprint,
            version=version,
            path=path,
        )
        with self._lock:
            self._cache_locked(published.key, pipeline)
        return published

    def promote(
        self,
        compressor: str,
        fingerprint: str | None,
        version: int,
        *,
        note: str = "",
    ) -> ModelVersion:
        """Flip the entry's ``latest`` alias to ``version``.

        The flip is recorded in the manifest history with the previous
        alias, which is what :meth:`rollback` restores. Raises
        :class:`~repro.errors.InvalidConfiguration` when the version
        does not exist on disk.
        """
        coordinate = self.resolve(compressor, fingerprint, int(version))
        entry_dir = self.root / coordinate.compressor / coordinate.fingerprint
        with _entry_lock(entry_dir):
            manifest = self._read_manifest(entry_dir)
            try:
                previous = int(manifest.get("latest", 0))
            except (TypeError, ValueError):
                previous = 0
            manifest["latest"] = coordinate.version
            manifest.setdefault("history", []).append(
                {
                    "action": "promote",
                    "version": coordinate.version,
                    "previous": previous,
                    "note": str(note),
                    "time": time.time(),
                }
            )
            self._write_manifest(entry_dir, manifest)
        return coordinate

    def rollback(
        self, compressor: str, fingerprint: str | None = None, *, note: str = ""
    ) -> ModelVersion:
        """Restore the ``latest`` alias the most recent flip replaced.

        Walks the manifest history for the promote/publish entry that
        set the current alias and restores its recorded ``previous``
        version; raises :class:`~repro.errors.InvalidConfiguration`
        when there is nothing to roll back to.
        """
        current = self.resolve(compressor, fingerprint, LATEST)
        entry_dir = self.root / current.compressor / current.fingerprint
        with _entry_lock(entry_dir):
            manifest = self._read_manifest(entry_dir)
            previous = None
            for event in reversed(manifest.get("history", [])):
                if event.get("action") not in ("publish", "promote"):
                    continue
                if event.get("action") == "publish" and not event.get(
                    "promoted", True
                ):
                    continue
                if int(event.get("version", 0)) == current.version:
                    previous = int(event.get("previous", 0))
                    break
            if previous is None or previous < 1:
                raise InvalidConfiguration(
                    f"entry {current.compressor}/{current.fingerprint} has "
                    f"no recorded version before v{current.version} to "
                    f"roll back to"
                )
            path = entry_dir / f"v{previous}{_SUFFIX}"
            if not path.is_file():
                raise InvalidConfiguration(
                    f"rollback target v{previous} of "
                    f"{current.compressor}/{current.fingerprint} is gone"
                )
            manifest["latest"] = previous
            manifest.setdefault("history", []).append(
                {
                    "action": "rollback",
                    "version": previous,
                    "previous": current.version,
                    "note": str(note),
                    "time": time.time(),
                }
            )
            self._write_manifest(entry_dir, manifest)
        return ModelVersion(
            compressor=current.compressor,
            fingerprint=current.fingerprint,
            version=previous,
            path=path,
        )

    def history(
        self, compressor: str, fingerprint: str | None = None
    ) -> list[dict]:
        """The entry's publish/promote/rollback event log, oldest first."""
        coordinate = self.resolve(compressor, fingerprint, LATEST)
        entry_dir = self.root / coordinate.compressor / coordinate.fingerprint
        history = self._read_manifest(entry_dir).get("history", [])
        return list(history) if isinstance(history, list) else []

    # -- lookup ----------------------------------------------------------------

    def entries(self) -> list[ModelVersion]:
        """Every published version on disk, sorted."""
        found: list[ModelVersion] = []
        if not self.root.is_dir():
            return found
        for comp_dir in sorted(p for p in self.root.iterdir() if p.is_dir()):
            for entry_dir in sorted(p for p in comp_dir.iterdir() if p.is_dir()):
                for path in sorted(entry_dir.glob(f"v*{_SUFFIX}")):
                    try:
                        version = int(path.stem[1:])
                    except ValueError:
                        continue
                    found.append(
                        ModelVersion(
                            compressor=comp_dir.name,
                            fingerprint=entry_dir.name,
                            version=version,
                            path=path,
                        )
                    )
        return found

    def fingerprints(self, compressor: str) -> list[str]:
        """Corpus fingerprints published for ``compressor``."""
        comp_dir = self.root / compressor
        if not comp_dir.is_dir():
            return []
        return sorted(p.name for p in comp_dir.iterdir() if p.is_dir())

    def resolve(
        self,
        compressor: str,
        fingerprint: str | None = None,
        version: int | str = LATEST,
    ) -> ModelVersion:
        """Resolve a (compressor, fingerprint, version) coordinate.

        ``fingerprint=None`` is accepted when the compressor has exactly
        one published entry; ``version`` is an integer or the
        ``"latest"`` alias.
        """
        if fingerprint is None:
            candidates = self.fingerprints(compressor)
            if not candidates:
                raise InvalidConfiguration(
                    f"registry {self.root} has no models for "
                    f"compressor {compressor!r}"
                )
            if len(candidates) > 1:
                raise InvalidConfiguration(
                    f"compressor {compressor!r} has {len(candidates)} "
                    f"entries ({', '.join(candidates)}); pass a fingerprint"
                )
            fingerprint = candidates[0]
        entry_dir = self.root / compressor / fingerprint
        if not entry_dir.is_dir():
            raise InvalidConfiguration(
                f"registry has no entry {compressor}/{fingerprint}"
            )
        if version == LATEST:
            manifest = self._read_manifest(entry_dir, warn=True)
            try:
                resolved = int(manifest.get("latest", 0))
            except (TypeError, ValueError):
                resolved = 0
            if resolved < 1:
                versions = sorted(
                    int(p.stem[1:])
                    for p in entry_dir.glob(f"v*{_SUFFIX}")
                    if p.stem[1:].isdigit()
                )
                if not versions:
                    raise InvalidConfiguration(
                        f"entry {compressor}/{fingerprint} has no versions"
                    )
                if (entry_dir / _MANIFEST).is_file():
                    warnings.warn(
                        f"registry entry {compressor}/{fingerprint}: "
                        f"manifest carries no usable 'latest' alias; "
                        f"falling back to newest on-disk version "
                        f"v{versions[-1]}",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                resolved = versions[-1]
        else:
            try:
                resolved = int(version)
            except (TypeError, ValueError) as exc:
                raise InvalidConfiguration(
                    f"version must be an integer or {LATEST!r}, "
                    f"got {version!r}"
                ) from exc
        path = entry_dir / f"v{resolved}{_SUFFIX}"
        if not path.is_file():
            raise InvalidConfiguration(
                f"entry {compressor}/{fingerprint} has no version {resolved}"
            )
        return ModelVersion(
            compressor=compressor,
            fingerprint=fingerprint,
            version=resolved,
            path=path,
        )

    def load(
        self,
        compressor: str,
        fingerprint: str | None = None,
        version: int | str = LATEST,
    ) -> FXRZ:
        """A deserialized pipeline, through the in-memory LRU.

        A ``latest`` load whose resolved archive turns out corrupt
        (truncated, bit-flipped) degrades to the newest *readable*
        older version with a :class:`RuntimeWarning` instead of taking
        the serving process down; explicit integer versions still fail
        loudly — the caller asked for that exact artifact.
        """
        coordinate = self.resolve(compressor, fingerprint, version)
        with self._lock:
            cached = self._loaded.get(coordinate.key)
            if cached is not None:
                self._loaded.move_to_end(coordinate.key)
                self.load_hits += 1
                return cached
            self.load_misses += 1
        try:
            pipeline = load_pipeline(coordinate.path)
        except CorruptStreamError as exc:
            if version != LATEST:
                raise
            pipeline, coordinate = self._load_newest_readable(
                compressor, coordinate.fingerprint, coordinate.version, exc
            )
        with self._lock:
            self._cache_locked(coordinate.key, pipeline)
        return pipeline

    def _load_newest_readable(
        self,
        compressor: str,
        fingerprint: str,
        bad_version: int,
        cause: CorruptStreamError,
    ) -> tuple[FXRZ, ModelVersion]:
        """Walk versions below ``bad_version`` until one deserializes."""
        entry_dir = self.root / compressor / fingerprint
        older = sorted(
            (
                int(p.stem[1:])
                for p in entry_dir.glob(f"v*{_SUFFIX}")
                if p.stem[1:].isdigit() and int(p.stem[1:]) < bad_version
            ),
            reverse=True,
        )
        for candidate in older:
            path = entry_dir / f"v{candidate}{_SUFFIX}"
            try:
                pipeline = load_pipeline(path)
            except CorruptStreamError:
                continue
            warnings.warn(
                f"registry entry {compressor}/{fingerprint}: latest "
                f"version v{bad_version} is corrupt ({cause}); serving "
                f"older readable version v{candidate}",
                RuntimeWarning,
                stacklevel=4,
            )
            return pipeline, ModelVersion(
                compressor=compressor,
                fingerprint=fingerprint,
                version=candidate,
                path=path,
            )
        raise cause

    # -- internals -------------------------------------------------------------

    def _cache_locked(self, key: tuple[str, str, int], pipeline: FXRZ) -> None:
        self._loaded[key] = pipeline
        self._loaded.move_to_end(key)
        while len(self._loaded) > self.max_loaded:
            self._loaded.popitem(last=False)
            self.evictions += 1

    @staticmethod
    def _write_manifest(entry_dir: pathlib.Path, manifest: dict) -> None:
        """Atomic manifest replace: a reader never sees a half-write."""
        path = entry_dir / _MANIFEST
        tmp = entry_dir / f".{_MANIFEST}.{os.getpid()}.tmp"
        tmp.write_text(json.dumps(manifest, indent=2))
        tmp.replace(path)

    @staticmethod
    def _read_manifest(entry_dir: pathlib.Path, warn: bool = False) -> dict:
        path = entry_dir / _MANIFEST
        if not path.is_file():
            return {}
        try:
            manifest = json.loads(path.read_text())
        except (ValueError, OSError) as exc:
            if warn:
                warnings.warn(
                    f"registry manifest {path} is unreadable ({exc}); "
                    "treating the entry as alias-less",
                    RuntimeWarning,
                    stacklevel=4,
                )
            return {}
        return manifest if isinstance(manifest, dict) else {}
