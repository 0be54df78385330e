"""Unit tests for the versioned on-disk model registry."""

import json
import threading

import numpy as np
import pytest

import repro
from repro.compressors import get_compressor
from repro.core.persistence import pipeline_fingerprint
from repro.errors import InvalidConfiguration
from repro.serving import LATEST, ModelRegistry

from tests.conftest import small_forest_factory


@pytest.fixture(scope="module")
def fitted_pipeline():
    rng = np.random.default_rng(7)
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


class TestPublish:
    def test_versions_increment(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        first = registry.publish(pipeline)
        second = registry.publish(pipeline)
        assert (first.version, second.version) == (1, 2)
        assert first.fingerprint == second.fingerprint
        assert first.path.is_file() and second.path.is_file()

    def test_disk_layout_and_manifest(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        published = registry.publish(pipeline)
        fingerprint = pipeline_fingerprint(pipeline)
        entry_dir = tmp_path / "reg" / "sz" / fingerprint
        assert published.path == entry_dir / "v1.fxrz"
        manifest = json.loads((entry_dir / "manifest.json").read_text())
        assert manifest["latest"] == 1
        assert manifest["versions"]["1"]["compressor"] == "sz"

    def test_entries_and_fingerprints(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(pipeline)
        registry.publish(pipeline)
        entries = registry.entries()
        assert [e.version for e in entries] == [1, 2]
        assert registry.fingerprints("sz") == [pipeline_fingerprint(pipeline)]
        assert registry.fingerprints("zfp") == []


class TestConcurrentPublish:
    @pytest.mark.lifecycle
    def test_concurrent_publishers_get_distinct_versions(
        self, fitted_pipeline, tmp_path
    ):
        """The publish race: N threads, N distinct versions, no overwrite."""
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg", max_loaded=8)
        published = []
        errors = []
        barrier = threading.Barrier(6)

        def publish():
            barrier.wait()
            try:
                published.append(registry.publish(pipeline))
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=publish) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        versions = sorted(p.version for p in published)
        assert versions == [1, 2, 3, 4, 5, 6]
        for item in published:
            assert item.path.is_file()
        manifest = json.loads(
            (published[0].path.parent / "manifest.json").read_text()
        )
        assert manifest["latest"] == 6
        assert sorted(map(int, manifest["versions"])) == versions

    @pytest.mark.lifecycle
    def test_stale_lock_is_broken(self, fitted_pipeline, tmp_path):
        import os
        import time as time_mod

        from repro.serving.registry import _LOCK

        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        first = registry.publish(pipeline)
        lock = first.path.parent / _LOCK
        lock.write_text("12345")
        old = time_mod.time() - 120.0
        os.utime(lock, (old, old))
        second = registry.publish(pipeline)  # breaks the abandoned lock
        assert second.version == 2
        assert not lock.exists()


@pytest.mark.lifecycle
class TestPromoteRollback:
    def test_unpromoted_publish_leaves_latest(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(pipeline)
        candidate = registry.publish(pipeline, promote=False)
        assert candidate.version == 2
        assert registry.resolve("sz", version=LATEST).version == 1
        # The candidate is loadable by explicit version.
        assert registry.load("sz", version=2).is_fitted

    def test_promote_flips_alias_and_records_history(
        self, fitted_pipeline, tmp_path
    ):
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(pipeline)
        candidate = registry.publish(pipeline, promote=False)
        promoted = registry.promote(
            "sz", candidate.fingerprint, candidate.version, note="canary won"
        )
        assert promoted.version == 2
        assert registry.resolve("sz", version=LATEST).version == 2
        events = registry.history("sz")
        assert events[-1]["action"] == "promote"
        assert events[-1]["previous"] == 1
        assert events[-1]["note"] == "canary won"

    def test_promote_missing_version_raises(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(pipeline)
        with pytest.raises(InvalidConfiguration):
            registry.promote("sz", None, 99)

    def test_rollback_restores_previous_latest(
        self, fitted_pipeline, tmp_path
    ):
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(pipeline)
        candidate = registry.publish(pipeline, promote=False)
        registry.promote("sz", None, candidate.version)
        restored = registry.rollback("sz", note="post-promotion regression")
        assert restored.version == 1
        assert registry.resolve("sz", version=LATEST).version == 1
        assert registry.history("sz")[-1]["action"] == "rollback"

    def test_rollback_without_predecessor_raises(
        self, fitted_pipeline, tmp_path
    ):
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(pipeline)
        with pytest.raises(InvalidConfiguration):
            registry.rollback("sz")


class TestLoad:
    def test_latest_alias_tracks_newest(self, fitted_pipeline, tmp_path):
        pipeline, train = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(pipeline)
        registry.publish(pipeline)
        assert registry.resolve("sz", version=LATEST).version == 2
        loaded = registry.load("sz")
        probe = train[0]
        assert loaded.estimate_config(probe, 6.0).config == pytest.approx(
            pipeline.estimate_config(probe, 6.0).config
        )

    def test_publish_warms_lru(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(pipeline)
        assert registry.load("sz") is pipeline
        assert registry.load_hits == 1 and registry.load_misses == 0

    def test_lru_eviction_forces_reload(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg", max_loaded=1)
        registry.publish(pipeline)
        registry.publish(pipeline)  # v2 evicts warm v1
        assert registry.evictions == 1
        v1 = registry.load("sz", version=1)  # miss: deserialized from disk
        assert registry.load_misses == 1
        assert v1 is not pipeline
        assert v1.is_fitted

    def test_missing_manifest_falls_back_to_scan(
        self, fitted_pipeline, tmp_path
    ):
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        published = registry.publish(pipeline)
        (published.path.parent / "manifest.json").unlink()
        assert registry.resolve("sz", version=LATEST).version == 1

    def test_unknown_lookups_raise(self, fitted_pipeline, tmp_path):
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(InvalidConfiguration):
            registry.resolve("sz")  # nothing published yet
        registry.publish(pipeline)
        with pytest.raises(InvalidConfiguration):
            registry.resolve("zfp")
        with pytest.raises(InvalidConfiguration):
            registry.resolve("sz", version=99)
        with pytest.raises(InvalidConfiguration):
            registry.resolve("sz", version="new")

    def test_max_loaded_validated(self, tmp_path):
        with pytest.raises(InvalidConfiguration):
            ModelRegistry(tmp_path, max_loaded=0)


@pytest.mark.robustness
class TestCorruptionFallback:
    """Serving survives corrupt manifests and corrupt latest artifacts."""

    @staticmethod
    def _entry_dir(registry, published):
        return published.path.parent

    def test_corrupt_manifest_warns_and_serves_newest_on_disk(
        self, fitted_pipeline, tmp_path
    ):
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        registry.publish(pipeline)
        second = registry.publish(pipeline)
        (second.path.parent / "manifest.json").write_text("{not json")
        # Two warnings fire: the unreadable manifest itself, then the
        # alias-less fallback to the newest on-disk version.
        with pytest.warns(RuntimeWarning, match="unreadable|on-disk"):
            resolved = registry.resolve("sz", version=LATEST)
        assert resolved.version == 2

    def test_aliasless_manifest_warns_and_falls_back(
        self, fitted_pipeline, tmp_path
    ):
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        published = registry.publish(pipeline)
        registry.publish(pipeline)
        manifest = published.path.parent / "manifest.json"
        manifest.write_text(json.dumps({"versions": {}}))  # no 'latest'
        with pytest.warns(RuntimeWarning, match="newest on-disk version v2"):
            resolved = registry.resolve("sz", version=LATEST)
        assert resolved.version == 2

    def test_publish_after_corrupt_manifest_keeps_versions(
        self, fitted_pipeline, tmp_path
    ):
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        first = registry.publish(pipeline)
        second = registry.publish(pipeline)
        before = (first.path.read_bytes(), second.path.read_bytes())
        (second.path.parent / "manifest.json").write_text("{not json")
        third = registry.publish(pipeline)
        # The version counter is derived from the on-disk files, so a
        # trashed manifest must not reset it and overwrite v1.
        assert third.version == 3
        assert first.path.read_bytes() == before[0]
        assert second.path.read_bytes() == before[1]
        manifest = json.loads(
            (third.path.parent / "manifest.json").read_text()
        )
        assert manifest["latest"] == 3

    def test_corrupt_latest_artifact_degrades_to_older_version(
        self, fitted_pipeline, tmp_path
    ):
        pipeline, train = fitted_pipeline
        publisher = ModelRegistry(tmp_path / "reg")
        publisher.publish(pipeline)
        second = publisher.publish(pipeline)
        second.path.write_bytes(second.path.read_bytes()[:200])  # truncate v2
        registry = ModelRegistry(tmp_path / "reg")  # cold LRU -> disk load
        with pytest.warns(
            RuntimeWarning, match="serving older readable version v1"
        ):
            served = registry.load("sz")
        probe = train[0]
        assert served.estimate_config(probe, 6.0).config == pytest.approx(
            pipeline.estimate_config(probe, 6.0).config
        )

    def test_explicit_version_still_fails_loudly(
        self, fitted_pipeline, tmp_path
    ):
        from repro.errors import CorruptStreamError

        pipeline, _ = fitted_pipeline
        publisher = ModelRegistry(tmp_path / "reg")
        publisher.publish(pipeline)
        second = publisher.publish(pipeline)
        second.path.write_bytes(second.path.read_bytes()[:200])
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(CorruptStreamError):
            registry.load("sz", version=2)

    def test_every_version_corrupt_raises(self, fitted_pipeline, tmp_path):
        from repro.errors import CorruptStreamError

        pipeline, _ = fitted_pipeline
        publisher = ModelRegistry(tmp_path / "reg")
        for published in (
            publisher.publish(pipeline),
            publisher.publish(pipeline),
        ):
            published.path.write_bytes(published.path.read_bytes()[:100])
        registry = ModelRegistry(tmp_path / "reg")
        with pytest.raises(CorruptStreamError):
            registry.load("sz")


def _add_legacy_quality_artifacts(entry_dir) -> dict:
    """Write what releases that published quality models left in an
    entry: ``q<N>.json`` files, ``quality_*`` manifest keys and a
    ``publish_quality`` history event. Returns the manifest."""
    manifest_path = entry_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for version in (1, 2):
        (entry_dir / f"q{version}.json").write_text(
            json.dumps({"kind": "fxrz-quality-model", "offset_db": 1.0})
        )
    manifest["quality_latest"] = 2
    manifest["quality_versions"] = {
        str(version): {"compressor": "sz", "offset_db": 1.0}
        for version in (1, 2)
    }
    manifest["history"].append(
        {
            "action": "publish_quality",
            "version": 2,
            "promoted": True,
            "previous": 1,
            "time": 0.0,
        }
    )
    manifest_path.write_text(json.dumps(manifest))
    return manifest


@pytest.mark.objective
class TestQualityArtifacts:
    """Entries written by releases that also published quality models."""

    def test_publish_and_load_beside_ratio_models(
        self, fitted_pipeline, tmp_path
    ):
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        first = registry.publish(pipeline)
        _add_legacy_quality_artifacts(first.path.parent)
        registry = ModelRegistry(tmp_path / "reg")
        second = registry.publish(pipeline)
        assert second.version == 2
        assert [e.version for e in registry.entries()] == [1, 2]
        assert registry.load("sz").is_fitted

    def test_quality_versions_are_independent(self, fitted_pipeline, tmp_path):
        """Ratio promote/rollback ignore the quality keys, and manifest
        rewrites keep them."""
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        first = registry.publish(pipeline)
        manifest = _add_legacy_quality_artifacts(first.path.parent)
        registry.publish(pipeline)
        assert registry.promote("sz", first.fingerprint, 1).version == 1
        assert registry.rollback("sz").version == 2
        actions = [e["action"] for e in registry.history("sz")]
        assert actions == [
            "publish",
            "publish_quality",
            "publish",
            "promote",
            "rollback",
        ]
        manifest_path = first.path.parent / "manifest.json"
        rewritten = json.loads(manifest_path.read_text())
        assert rewritten["quality_latest"] == 2
        assert rewritten["quality_versions"] == manifest["quality_versions"]

    def test_fingerprint_resolves_through_ratio_entry(
        self, fitted_pipeline, tmp_path
    ):
        pipeline, _ = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        published = registry.publish(pipeline)
        _add_legacy_quality_artifacts(published.path.parent)
        coordinate = ModelRegistry(tmp_path / "reg").resolve("sz")
        assert coordinate.fingerprint == published.fingerprint
        assert coordinate.version == 1

    def test_pre_objective_entries_still_serve(
        self, fitted_pipeline, tmp_path
    ):
        """A registry written before quality artifacts loads unchanged."""
        pipeline, train = fitted_pipeline
        registry = ModelRegistry(tmp_path / "reg")
        published = registry.publish(pipeline)
        manifest_path = published.path.parent / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest.pop("quality_latest", None)
        manifest.pop("quality_versions", None)
        manifest_path.write_text(json.dumps(manifest))
        served = ModelRegistry(tmp_path / "reg").load("sz")
        probe = train[0]
        assert served.estimate_config(probe, 6.0).config == pytest.approx(
            pipeline.estimate_config(probe, 6.0).config
        )


class TestMetricsCollector:
    def test_closed_registries_leave_a_shared_metrics_registry(
        self, fitted_pipeline, tmp_path
    ):
        import gc
        import weakref

        from repro.obs import MetricsRegistry
        from repro.runtime import RuntimeContext

        pipeline, _ = fitted_pipeline
        metrics = MetricsRegistry()
        ctx = RuntimeContext(env={}, registry=metrics)
        before = len(metrics._collectors)
        refs = []
        for _ in range(3):
            registry = ModelRegistry(tmp_path / "reg", ctx=ctx)
            registry.publish(pipeline)
            assert len(metrics._collectors) == before + 1
            assert "repro_model_registry_load_hits" in (
                metrics.render_prometheus()
            )
            refs.append(weakref.ref(registry))
            registry.close()
            registry.close()  # idempotent: removes nothing twice
            assert len(metrics._collectors) == before
        del registry
        gc.collect()
        assert [ref() for ref in refs] == [None] * 3
