"""Chaos tests of the fault-tolerant sharded estimation service.

The invariant pinned throughout: **every admitted request's future
resolves** — with a result, a typed error or a deadline — no matter
which shards crash, hang or eat poison mid-load. The scenarios mirror
``docs/ROBUSTNESS.md``: backpressure shedding, deadline expiry, seeded
crash storms with supervisor kills, hang detection, poison-request
escape to the in-process lane, and clean teardown custody of the
shared-memory transport (segments stay while referenced, shards keep a
bounded set of mappings, and shards never outlive their supervisor).
"""

import os
import subprocess
import sys
import textwrap
import time
from collections import OrderedDict
from concurrent.futures import wait

import numpy as np
import pytest

import repro
from repro.compressors import get_compressor
from repro.core.inference import InferenceEngine
from repro.core.persistence import save_pipeline
from repro.errors import (
    DeadlineExceededError,
    InvalidConfiguration,
    ServiceClosedError,
    ServiceOverloadedError,
    ShardFailedError,
)
from repro.parallel.shm import SharedNDArray
from repro.robustness.faults import FaultSpec
from repro.runtime import RuntimeContext
from repro.serving import CircuitBreaker, EstimateRequest, EstimationService
from repro.serving.service import MAX_DATASETS
from repro.serving.shard import _mapped

from tests.conftest import small_forest_factory

pytestmark = [pytest.mark.serving, pytest.mark.chaos]

#: Tight supervision knobs so the chaos scenarios converge in test time:
#: the pool's own tick, and the context's respawn backoff and breakers.
_FAST = dict(poll_interval=0.01)
_FAST_CTX = dict(
    retry_attempts=5,
    retry_base_delay=0.02,
    breaker_failures=4,
    breaker_reset=0.3,
)
#: The first shard death is final (-> FAILED) and trips its breaker.
_NO_RETRY_CTX = dict(
    retry_attempts=1,
    retry_base_delay=0.0,
    breaker_failures=1,
    breaker_reset=30.0,
)


@pytest.fixture
def fast_ctx():
    with RuntimeContext(env={}, **_FAST_CTX) as ctx:
        yield ctx


def _make_fields(n: int, side: int = 20) -> list[np.ndarray]:
    rng = np.random.default_rng(11)
    lin = np.linspace(0, 4 * np.pi, side)
    x, y, _ = np.meshgrid(lin, lin, lin, indexing="ij")
    return [
        (
            np.sin(x + 0.4 * i) * np.cos(y + 0.1 * i)
            + (0.02 + 0.01 * i) * rng.standard_normal((side,) * 3)
        ).astype(np.float32)
        for i in range(n)
    ]


@pytest.fixture(scope="module")
def fitted():
    fields = _make_fields(7)
    config = repro.FXRZConfig(stationary_points=8, augmented_samples=60)
    pipeline = repro.FXRZ(
        get_compressor("sz"), config=config, model_factory=small_forest_factory
    )
    pipeline.fit(fields[:3])
    return pipeline, fields[3:]


@pytest.fixture(scope="module")
def model_path(fitted, tmp_path_factory):
    """One serialized replica shared by every service in the module."""
    pipeline, _ = fitted
    path = tmp_path_factory.mktemp("shards") / "model.fxrz"
    save_pipeline(pipeline, path)
    return str(path)


def _wait_ready(service, want: int | None = None, timeout: float = 30.0):
    pool = service.pool
    want = pool.n_shards if want is None else want
    give_up = time.monotonic() + timeout
    while time.monotonic() < give_up:
        states = pool.shard_states()
        if sum(s["state"] == "ready" for s in states) >= want:
            return states
        time.sleep(0.02)
    raise AssertionError(
        f"{want} shard(s) never became ready: {pool.shard_states()}"
    )


class TestCircuitBreaker:
    def test_trips_open_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, reset_seconds=60.0)
        assert breaker.state == "closed"
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.would_allow() and not breaker.allow()
        assert breaker.retry_after() > 0

    def test_half_open_probe_is_single_admission(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=0.05)
        breaker.record_failure()
        assert breaker.state == "open"
        time.sleep(0.06)
        assert breaker.state == "half-open"
        assert breaker.would_allow()
        assert breaker.allow()  # consumes the probe slot
        assert not breaker.would_allow() and not breaker.allow()

    def test_probe_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=0.05)
        breaker.record_failure()
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.retry_after() == 0.0
        assert breaker.allow() and breaker.allow()  # no probe limit closed

    def test_probe_failure_reopens_full_window(self):
        breaker = CircuitBreaker(failure_threshold=5, reset_seconds=0.05)
        for _ in range(5):
            breaker.record_failure()
        time.sleep(0.06)
        assert breaker.allow()
        breaker.record_failure()  # the probe itself failed
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_validation(self):
        with pytest.raises(InvalidConfiguration):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(InvalidConfiguration):
            CircuitBreaker(reset_seconds=-1.0)


class TestShardedParity:
    def test_results_match_sequential_engine(
        self, fitted, model_path, fast_ctx
    ):
        pipeline, probes = fitted
        engine = InferenceEngine(
            pipeline.model, pipeline.compressor, config=pipeline.config
        )
        requests = [
            EstimateRequest(data=probe, target_ratio=float(tcr))
            for probe in probes[:2]
            for tcr in (4.0, 6.0, 9.0)
        ]
        with EstimationService.for_pipeline(
            pipeline,
            guarded=False,
            ctx=fast_ctx,
            shards=2,
            model_path=model_path,
            **_FAST,
        ) as service:
            _wait_ready(service)
            served = service.run_batch(requests, timeout=60.0)
            metrics = service.metrics
            stats = service.pool.stats

        for request, result in zip(requests, served):
            expected = engine.estimate(request.data, request.target_ratio)
            assert result.estimate.config == expected.config
            assert result.estimate.adjusted_target == expected.adjusted_target
            assert result.latency_seconds > 0
        assert stats.admitted == len(requests)
        assert stats.shed == stats.expired == metrics.requests_failed == 0
        assert metrics.requests_total == len(requests)
        assert metrics.latency_count == len(requests)

    def test_estimate_convenience_and_shard_view(
        self, fitted, model_path, fast_ctx
    ):
        pipeline, probes = fitted
        with EstimationService.for_pipeline(
            pipeline,
            guarded=True,
            ctx=fast_ctx,
            shards=1,
            model_path=model_path,
            **_FAST,
        ) as service:
            states = _wait_ready(service)
            assert states[0]["generation"] == 1
            assert states[0]["breaker"] == "closed"
            assert states[0]["pid"] is not None
            served = service.estimate(probes[0], 6.0)
        assert served.estimate.config > 0
        assert served.request_id.startswith("req-")
        assert served.batch_size == 1

    def test_ctx_supplies_supervision_defaults(self, fitted, model_path):
        pipeline, _ = fitted
        with RuntimeContext(
            env={}, deadline=3.0, breaker_failures=2, breaker_reset=0.25
        ) as ctx:
            service = EstimationService.for_pipeline(
                pipeline,
                guarded=True,
                ctx=ctx,
                shards=1,
                model_path=model_path,
            )
            try:
                assert service.default_deadline == 3.0
                breaker = service.pool.slots[0].breaker
                assert breaker.failure_threshold == 2
                assert breaker.reset_seconds == 0.25
            finally:
                service.close(drain=False, timeout=5.0)


class TestBackpressure:
    def test_overload_sheds_with_retry_hint(
        self, fitted, model_path, fast_ctx
    ):
        pipeline, probes = fitted
        with EstimationService.for_pipeline(
            pipeline,
            guarded=True,
            ctx=fast_ctx,
            shards=1,
            queue_depth=2,
            max_inflight_per_shard=1,
            model_path=model_path,
            **_FAST,
        ) as service:
            _wait_ready(service)
            futures, hints = [], []
            for i in range(40):
                try:
                    futures.append(
                        service.submit(
                            EstimateRequest(
                                data=probes[0],
                                target_ratio=4.0 + 0.1 * i,
                                dataset_id="burst",
                            )
                        )
                    )
                except ServiceOverloadedError as exc:
                    hints.append(exc.retry_after)
            done, not_done = wait(futures, timeout=60.0)
            stats = service.pool.stats
        assert hints, "a 40-deep burst into a 2-deep queue must shed"
        assert all(hint > 0 for hint in hints)
        assert not not_done, "every admitted future must resolve"
        assert stats.shed == len(hints)
        assert stats.admitted == len(futures)
        assert all(f.result().estimate.config > 0 for f in done)

    def test_closed_service_rejects_submissions(
        self, fitted, model_path, fast_ctx
    ):
        pipeline, probes = fitted
        service = EstimationService.for_pipeline(
            pipeline,
            guarded=True,
            ctx=fast_ctx,
            shards=1,
            model_path=model_path,
            **_FAST,
        )
        service.close(drain=False, timeout=5.0)
        service.close()  # idempotent
        with pytest.raises(ServiceClosedError, match="closed"):
            service.submit(EstimateRequest(data=probes[0], target_ratio=5.0))
        # back-compat: same family the plain service raises when closed
        assert issubclass(ServiceClosedError, InvalidConfiguration)


class TestDeadlines:
    def test_expired_request_fails_typed(self, fitted, model_path, fast_ctx):
        pipeline, probes = fitted
        with EstimationService.for_pipeline(
            pipeline,
            guarded=True,
            ctx=fast_ctx,
            shards=1,
            model_path=model_path,
            **_FAST,
        ) as service:
            _wait_ready(service)
            future = service.submit(
                EstimateRequest(
                    data=probes[0],
                    target_ratio=6.0,
                    deadline_seconds=2e-05,  # expires before any shard reply
                )
            )
            with pytest.raises(DeadlineExceededError):
                future.result(timeout=30.0)
            stats = service.pool.stats
            metrics = service.metrics
        assert stats.expired == 1
        assert metrics.requests_total == metrics.requests_failed == 1

    def test_invalid_deadlines_rejected(self, fitted, model_path, fast_ctx):
        pipeline, probes = fitted
        with pytest.raises(InvalidConfiguration, match="default_deadline"):
            EstimationService.for_pipeline(
                pipeline,
                guarded=True,
                ctx=fast_ctx,
                shards=1,
                model_path=model_path,
                default_deadline=-1.0,
            )
        with EstimationService.for_pipeline(
            pipeline,
            guarded=True,
            ctx=fast_ctx,
            shards=1,
            model_path=model_path,
            **_FAST,
        ) as service:
            with pytest.raises(InvalidConfiguration, match="deadline"):
                service.submit(
                    EstimateRequest(
                        data=probes[0], target_ratio=6.0, deadline_seconds=0.0
                    )
                )


class TestChaosCrashStorm:
    """The ISSUE's acceptance scenario: >= 2 shards die mid-load."""

    def test_all_admitted_requests_survive_shard_deaths(
        self, fitted, model_path, fast_ctx
    ):
        pipeline, probes = fitted
        faults = FaultSpec(seed=7, worker_crash_prob=0.25)
        with EstimationService.for_pipeline(
            pipeline,
            guarded=True,
            ctx=fast_ctx,
            shards=3,
            model_path=model_path,
            faults=faults,
            max_redeliveries=4,
            **_FAST,
        ) as service:
            _wait_ready(service)
            futures = []
            for i in range(30):
                futures.append(
                    service.submit(
                        EstimateRequest(
                            data=probes[i % len(probes)],
                            target_ratio=4.0 + 0.25 * (i % 16),
                        )
                    )
                )
                if i == 5:
                    service.pool.kill_shard(0)  # supervised kill #1 mid-load
                if i == 15:
                    service.pool.kill_shard(1)  # supervised kill #2 mid-load
            done, not_done = wait(futures, timeout=120.0)
            stats = service.pool.stats
            metrics = service.metrics

        assert not not_done, (
            f"hung futures under chaos: {len(not_done)} unresolved "
            f"(stats={stats})"
        )
        results = [f.result() for f in done]  # raises if any future failed
        assert len(results) == 30
        assert stats.admitted == metrics.requests_total == 30
        assert metrics.requests_failed == 0 and stats.expired == 0
        assert stats.kills >= 2, "both supervised kills must be recorded"
        assert stats.respawns >= 2, "killed shards must come back"
        # After the storm the topology heals: every shard serving again.
        assert all(f.result().estimate.config > 0 for f in done)


class _ClosedUnderRecv:
    """A reply conn whose first ``recv`` fails the way a conn closed by
    another thread mid-read does (its handle already ``None``)."""

    def __init__(self, conn):
        self._conn = conn
        self.raised = False

    def fileno(self):
        return self._conn.fileno()

    def recv(self):
        if not self.raised:
            self.raised = True
            raise TypeError(
                "'NoneType' object cannot be interpreted as an integer"
            )
        return self._conn.recv()

    def close(self):
        self._conn.close()


class TestCollectorSurvivesClosedConn:
    def test_reply_after_conn_closed_mid_recv_still_resolves(
        self, fitted, model_path, fast_ctx
    ):
        pipeline, probes = fitted
        with EstimationService.for_pipeline(
            pipeline,
            guarded=True,
            ctx=fast_ctx,
            shards=1,
            model_path=model_path,
            **_FAST,
        ) as service:
            _wait_ready(service)
            slot = service.pool.slots[0]
            with service.pool._lock:
                flaky = slot.res_conn = _ClosedUnderRecv(slot.res_conn)
            # Let the idle collector (0.1 s wait ticks) re-read the
            # slot's conn before the reply arrives.
            time.sleep(0.5)
            served = service.submit(
                EstimateRequest(data=probes[0], target_ratio=6.0)
            ).result(timeout=30)
            assert flaky.raised
            assert served.estimate.config > 0
            collector = next(
                t for t in service.pool._threads if t.name.endswith("collect")
            )
            assert collector.is_alive()


class TestHangDetection:
    def test_hung_shard_is_killed_and_request_recovers(
        self, fitted, model_path, fast_ctx
    ):
        pipeline, probes = fitted
        faults = FaultSpec(seed=3, worker_hang_prob=0.9, hang_seconds=30.0)
        with EstimationService.for_pipeline(
            pipeline,
            guarded=True,
            ctx=fast_ctx,
            shards=1,
            model_path=model_path,
            faults=faults,
            hang_timeout=0.5,
            heartbeat_timeout=2.0,
            max_redeliveries=0,  # first redelivery goes to the ladder
            **_FAST,
        ) as service:
            _wait_ready(service)
            tick = time.monotonic()
            served = service.submit(
                EstimateRequest(
                    data=probes[0], target_ratio=6.0, deadline_seconds=20.0
                )
            ).result(timeout=60.0)
            elapsed = time.monotonic() - tick
            stats = service.pool.stats
        assert served.estimate.config > 0
        assert stats.kills >= 1, "the wedged shard must be killed"
        assert stats.fallbacks >= 1, "the orphan resolves on the ladder"
        assert elapsed < 20.0, "recovery must beat the hang duration"


class TestPoisonRequests:
    def test_poison_exhausts_redeliveries_then_degrades(
        self, fitted, model_path, fast_ctx
    ):
        pipeline, probes = fitted
        faults = FaultSpec(seed=11, poison_request_prob=0.4)
        poison_id = next(
            rid
            for rid in (f"poison-{i}" for i in range(64))
            if faults.is_poison(rid)
        )
        clean_id = next(
            rid
            for rid in (f"clean-{i}" for i in range(64))
            if not faults.is_poison(rid)
        )
        with EstimationService.for_pipeline(
            pipeline,
            guarded=True,
            ctx=fast_ctx,
            shards=2,
            model_path=model_path,
            faults=faults,
            max_redeliveries=2,
            **_FAST,
        ) as service:
            _wait_ready(service)
            poison = service.submit(
                EstimateRequest(
                    data=probes[0], target_ratio=6.0, request_id=poison_id
                )
            )
            served = poison.result(timeout=120.0)
            clean = service.submit(
                EstimateRequest(
                    data=probes[1], target_ratio=6.0, request_id=clean_id
                )
            ).result(timeout=120.0)
            stats = service.pool.stats
        assert served.request_id == poison_id
        assert served.estimate.config > 0
        assert stats.redelivered >= 2, "poison must bounce between shards"
        assert stats.fallbacks >= 1, "the cap routes poison to the ladder"
        assert stats.respawns >= 1
        assert clean.estimate.config > 0


class TestDegradationLadder:
    def test_all_shards_failed_routes_to_fallback(self, fitted, model_path):
        pipeline, probes = fitted
        with RuntimeContext(
            env={}, **_NO_RETRY_CTX
        ) as ctx, EstimationService.for_pipeline(
            pipeline,
            guarded=True,
            ctx=ctx,
            shards=1,
            model_path=model_path,
            **_FAST,
        ) as service:
            _wait_ready(service)
            service.pool.kill_shard(0)
            give_up = time.monotonic() + 10.0
            while time.monotonic() < give_up:
                if service.pool.shard_states()[0]["state"] == "failed":
                    break
                time.sleep(0.02)
            assert service.pool.shard_states()[0]["state"] == "failed"
            served = service.estimate(probes[0], 6.0)
            stats = service.pool.stats
        assert served.estimate.config > 0
        assert stats.fallbacks >= 1
        assert served.estimate.tier in ("model", "curve", "fraz")

    def test_disabled_fallback_fails_typed(self, fitted, model_path):
        pipeline, probes = fitted
        with RuntimeContext(
            env={}, **_NO_RETRY_CTX
        ) as ctx, EstimationService.for_pipeline(
            pipeline,
            guarded=True,
            ctx=ctx,
            shards=1,
            model_path=model_path,
            fallback=False,
            **_FAST,
        ) as service:
            _wait_ready(service)
            service.pool.kill_shard(0)
            give_up = time.monotonic() + 10.0
            while time.monotonic() < give_up:
                if service.pool.shard_states()[0]["state"] == "failed":
                    break
                time.sleep(0.02)
            future = service.submit(
                EstimateRequest(data=probes[0], target_ratio=6.0)
            )
            with pytest.raises(ShardFailedError):
                future.result(timeout=60.0)


class TestCloseSemantics:
    def test_drain_false_resolves_everything(
        self, fitted, model_path, fast_ctx
    ):
        pipeline, probes = fitted
        service = EstimationService.for_pipeline(
            pipeline,
            guarded=True,
            ctx=fast_ctx,
            shards=1,
            max_inflight_per_shard=1,
            model_path=model_path,
            **_FAST,
        )
        _wait_ready(service)
        futures = [
            service.submit(
                EstimateRequest(data=probes[0], target_ratio=4.0 + 0.1 * i)
            )
            for i in range(16)
        ]
        service.close(drain=False, timeout=5.0)
        assert all(f.done() for f in futures), "no future may be left hanging"
        rejected = 0
        for future in futures:
            exc = future.exception()
            if exc is not None:
                assert isinstance(exc, ServiceClosedError)
                rejected += 1
        assert rejected >= 1, "an immediate close must reject queued work"

    def test_segments_unlinked_and_ctx_custody_released(
        self, fitted, model_path
    ):
        pipeline, probes = fitted
        with RuntimeContext(env={}) as ctx:
            service = EstimationService.for_pipeline(
                pipeline,
                guarded=True,
                ctx=ctx,
                shards=1,
                model_path=model_path,
                **_FAST,
            )
            _wait_ready(service)
            service.estimate(probes[0], 6.0)
            descriptors = [
                handle.descriptor for handle in service.pool._segments.values()
            ]
            assert descriptors, "serving a request must create a segment"
            service.close()
            for descriptor in descriptors:
                with pytest.raises(FileNotFoundError):
                    SharedNDArray.attach(descriptor)
            ctx.close()
            # custody was released at service close: the context found
            # nothing left to unlink at its own teardown.
            assert not any(
                "shared-memory" in note for note in ctx.teardown_notes
            )


def _shm_mappings(pid: int) -> set[str]:
    """The shared-memory segments mapped into process ``pid``."""
    with open(f"/proc/{pid}/maps", encoding="utf-8") as maps:
        # pathname is the sixth field; unlinked ones end in "(deleted)"
        return {line.split()[5] for line in maps if "/psm_" in line}


def _gone(pid: int) -> bool:
    """Whether ``pid`` has exited (a zombie awaiting its reaper counts)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


class TestSegmentLifetime:
    def test_queued_requests_keep_their_segments(
        self, fitted, model_path, fast_ctx
    ):
        """More distinct datasets in flight than MAX_DATASETS: none of
        the segments a queued request points at may be unlinked."""
        pipeline, _ = fitted
        fields = _make_fields(100, side=16)
        with EstimationService.for_pipeline(
            pipeline,
            guarded=False,
            ctx=fast_ctx,
            shards=1,
            queue_depth=128,
            model_path=model_path,
            **_FAST,
        ) as service:
            _wait_ready(service)
            futures = service.submit_many(
                [EstimateRequest(data=field, target_ratio=6.0)
                 for field in fields]
            )
            done, not_done = wait(futures, timeout=120.0)
            assert not not_done
            errors = [f.exception() for f in done if f.exception()]
            assert not errors, f"{len(errors)} failed: {errors[0]!r}"
            assert len(service.pool._segments) <= MAX_DATASETS

    @pytest.mark.skipif(
        not os.path.isdir("/proc"), reason="needs /proc/<pid>/maps"
    )
    def test_shard_mappings_stay_bounded(self, fitted, model_path, fast_ctx):
        pipeline, _ = fitted
        fields = _make_fields(150, side=16)
        with EstimationService.for_pipeline(
            pipeline,
            guarded=False,
            ctx=fast_ctx,
            shards=1,
            model_path=model_path,
            **_FAST,
        ) as service:
            [state] = _wait_ready(service)
            for start in range(0, len(fields), 10):
                service.run_batch(
                    [EstimateRequest(data=field, target_ratio=6.0)
                     for field in fields[start:start + 10]],
                    timeout=120.0,
                )
            mapped = _shm_mappings(state["pid"])
        assert 0 < len(mapped) <= MAX_DATASETS


class TestShardMappingLRU:
    def test_mappings_evict_least_recently_used(self):
        owners = [
            SharedNDArray.from_array(np.full(4, float(i)))
            for i in range(MAX_DATASETS + 2)
        ]
        segments = OrderedDict()
        try:
            for owner in owners:
                handle = _mapped(segments, owner.descriptor)
                assert handle.asarray()[0] == owner.asarray()[0]
            assert len(segments) == MAX_DATASETS
            assert list(segments)[0] == owners[2].descriptor.name
            # A hit moves the mapping to the back of the LRU.
            assert _mapped(segments, owners[2].descriptor) is segments[
                owners[2].descriptor.name
            ]
            assert list(segments)[-1] == owners[2].descriptor.name
        finally:
            for handle in segments.values():
                handle.close()
            for owner in owners:
                owner.close()
                owner.unlink()


_ORPHAN_SCRIPT = textwrap.dedent(
    """
    import os, sys, time
    from repro.core.persistence import load_pipeline
    from repro.serving import EstimationService

    pipeline = load_pipeline(sys.argv[1])
    service = EstimationService.for_pipeline(
        pipeline, shards=3, model_path=sys.argv[1], poll_interval=0.01
    )
    give_up = time.monotonic() + 60.0
    while time.monotonic() < give_up:
        states = service.pool.shard_states()
        if all(s["state"] == "ready" for s in states):
            break
        time.sleep(0.02)
    print(" ".join(str(s["pid"]) for s in states), flush=True)
    os._exit(0)  # no close(), no atexit: the shards are on their own
    """
)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestOrphanedShards:
    def test_shards_exit_when_supervisor_dies(self, model_path, tmp_path):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(repro.__file__), os.pardir)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
        )
        # Orphans would inherit stdout too, so read the pid line rather
        # than waiting for EOF on the pipe.
        with open(tmp_path / "stderr.txt", "w+") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-c", _ORPHAN_SCRIPT, model_path],
                stdout=subprocess.PIPE, stderr=stderr, text=True, env=env,
            )
            with proc.stdout:
                line = proc.stdout.readline()
            assert proc.wait(timeout=120) == 0, stderr.seek(0) or stderr.read()
        pids = [int(pid) for pid in line.split()]
        assert len(pids) == 3
        give_up = time.monotonic() + 5.0
        while time.monotonic() < give_up and not all(map(_gone, pids)):
            time.sleep(0.05)
        survivors = [pid for pid in pids if not _gone(pid)]
        for pid in survivors:  # never leak them past this test
            os.kill(pid, 9)
        assert not survivors, f"orphaned shards still alive: {survivors}"
