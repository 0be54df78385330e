"""The four workloads: one shared set-up, one kind of operation each.

Every workload sets up the same model — SZ trained on the Hurricane
``TC`` training series at :data:`BENCH_CONFIG` — then times a single
kind of operation through a public entry point
(``FXRZ.estimate_config``, ``EstimationService.submit`` or
``FXRZ.compress_to_ratio``) over a fixed, seeded sequence, and checks
every output. A run's operation count is ``seconds * nominal rate``, so
every run at one ``--seconds`` has the same mix.

Operations are timed on two clocks: the wall clock and the process CPU
clock. On a shared virtual machine the wall clock also counts the time
the hypervisor gives the vCPU to other guests (CPU steal), which varies
by tens of percent from hour to hour; the CPU clock does not. Neither
leaves out the host's drifting speed, so the untraced loop also times a
reference kernel after every operation (see :mod:`fxbench.speed`).
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro import FXRZ, FXRZConfig
from repro.compressors import get_compressor
from repro.datasets import hurricane
from repro.datasets.registry import HURRICANE_TEST_STEP, HURRICANE_TRAIN_STEPS
from repro.errors import ReproError
from repro.serving import EstimateRequest, EstimationService

from fxbench.stats import stratified_log_targets

#: The bench configuration shared by every workload.
BENCH_CONFIG = FXRZConfig(stationary_points=12, augmented_samples=150)

FIELD = "TC"

#: Timesteps outside the training series and other than the held-out one.
UNTRAINED_STEPS = tuple(
    t
    for t in range(1, hurricane.MAX_TIMESTEP + 1)
    if t not in HURRICANE_TRAIN_STEPS and t != HURRICANE_TEST_STEP
)

#: Targets are drawn from this share of the trained log-ratio range;
#: the outer edges are where the regressor extrapolates.
TARGET_BAND = (0.2, 0.85)


def fit_pipeline() -> FXRZ:
    """Generate the training series and fit the bench model."""
    train = [
        hurricane.generate_hurricane_field(FIELD, t)
        for t in HURRICANE_TRAIN_STEPS
    ]
    fxrz = FXRZ(get_compressor("sz"), BENCH_CONFIG)
    fxrz.fit(train)
    return fxrz


def target_band(fxrz: FXRZ, data: np.ndarray) -> tuple[float, float]:
    lo, hi = fxrz.trained_ratio_range(data)
    span = math.log(hi / lo)
    return lo * math.exp(TARGET_BAND[0] * span), lo * math.exp(
        TARGET_BAND[1] * span
    )


def streams(seed: int, name: str, n: int) -> list[np.random.Generator]:
    """``n`` independent generators for one workload and seed."""
    base = zlib.crc32(name.encode())
    return [np.random.default_rng([seed, base, k]) for k in range(n)]


def usable(config) -> bool:
    return isinstance(config, float) and math.isfinite(config) and config > 0


def config_of(output):
    """The estimated config inside any operation's result (None on failure).

    An ``Estimate`` carries it directly; a ``FixedRatioResult`` or a
    ``ServedEstimate`` carries it on its ``estimate``.
    """
    if isinstance(output, BaseException):
        return None
    return getattr(output, "estimate", output).config


@dataclass
class Pair:
    """One (field, target) input; ``key`` names it for repeat checks."""

    key: str
    data: np.ndarray
    target: float


@dataclass
class Window:
    """What the timed window produced.

    ``cpu`` and ``wall`` are seconds per operation on the process CPU
    clock and the wall clock; ``started`` is each operation's wall-clock
    start; ``outputs`` holds each operation's result or exception;
    ``ref`` holds the CPU seconds of the reference kernel timed after
    each operation (empty when none ran).
    """

    cpu: np.ndarray
    wall: np.ndarray
    started: np.ndarray
    outputs: list
    ref: np.ndarray = field(default_factory=lambda: np.empty(0))
    extra: dict = field(default_factory=dict)


@dataclass
class Failure:
    """A failed check: ``op`` is the failed operation, or None for the run."""

    op: int | None
    message: str


def closed_loop(op, items, tracer=None, reference=None) -> Window:
    """One caller: run ``op(item)`` back to back and time each call.

    ``reference``, if given, runs after each operation, outside its
    timing, and returns the CPU seconds it measured.
    """
    wall, cpu = time.perf_counter, time.process_time
    n = len(items)
    cpu_t, wall_t, started = np.empty(n), np.empty(n), np.empty(n)
    ref_t = np.empty(n if reference is not None else 0)
    outputs: list = [None] * n
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.bind(i)
        tick, tock = wall(), cpu()
        try:
            outputs[i] = op(item)
        except Exception as exc:  # noqa: BLE001 — counted as a failure
            outputs[i] = exc
        cpu_t[i], wall_t[i] = cpu() - tock, wall() - tick
        started[i] = tick
        if tracer is not None:
            tracer.unbind()
        if reference is not None:
            ref_t[i] = reference()
    return Window(
        cpu=cpu_t, wall=wall_t, started=started, outputs=outputs, ref=ref_t
    )


class Workload:
    """Shared shape: set up, warm, run the window, check, measure error."""

    name = ""
    #: Operations per second of ``--seconds`` on the reference host.
    nominal_rate = 1.0
    #: Highest percentile ``norm_tail_ms`` may report (see stats.tail_percentile).
    tail_ceiling = 90.0
    #: Whether operations go through the estimation service.
    serving = False
    #: Reference kernel that matches the operation's dominant layer.
    speed_kernel = "dispatch"

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.count = max(1, round(seconds * self.nominal_rate))
        self.fxrz: FXRZ | None = None

    def setup(self) -> None:
        self.fxrz = fit_pipeline()
        self.build()

    def build(self) -> None:
        raise NotImplementedError

    def warm(self) -> None:
        raise NotImplementedError

    def run(self, tracer=None, reference=None) -> Window:
        raise NotImplementedError

    def check(self, window: Window) -> list[Failure]:
        raise NotImplementedError

    def est_error(self, window: Window) -> float:
        raise NotImplementedError

    def counts(self, window: Window) -> dict:
        return {
            "sweep_runs": sum(c.configs.size for c in self.fxrz.curves),
        }

    def configs(self, window: Window) -> list:
        """Per-operation configs (None for failures)."""
        return [config_of(out) for out in window.outputs]

    def close(self) -> None:
        pass


def _repeat_failures(keys, configs) -> list[Failure]:
    """Every repeat of a key must return a bit-identical config."""
    first: dict = {}
    failures = []
    for i, (key, config) in enumerate(zip(keys, configs)):
        if config is None:
            continue
        if key in first and first[key] != config:
            failures.append(Failure(
                i, f"op {i}: {key} returned {config!r}, first {first[key]!r}"
            ))
        first.setdefault(key, config)
    return failures


def _output_failures(outputs) -> list[Failure]:
    failures = []
    for i, out in enumerate(outputs):
        if isinstance(out, BaseException):
            failures.append(Failure(i, f"op {i}: {type(out).__name__}: {out}"))
        elif not usable(config_of(out)):
            failures.append(
                Failure(i, f"op {i}: unusable config {config_of(out)!r}")
            )
    return failures


class EstimateWorkload(Workload):
    """Closed loop of plain ``FXRZ.estimate_config`` calls."""

    shape: tuple = (16, 48, 48)
    #: The fields: the held-out step and every other untrained one.
    steps: tuple = (HURRICANE_TEST_STEP,) + UNTRAINED_STEPS
    #: Seeded targets per field, one per stratum of the target band.
    n_targets = 2
    #: Probe targets per field at the stratum centres, the same at every
    #: seed; ``est_error_median`` is measured on these operations only,
    #: because the error moves steeply with the target.
    n_probes = 2
    #: Untimed operations run before the window.
    n_warm = 16

    def build(self) -> None:
        target_rng, order_rng = streams(self.seed, self.name, 2)
        self.pairs: list[Pair] = []
        self.probes: list[int] = []
        for step in self.steps:
            data = hurricane.generate_hurricane_field(
                FIELD, step, shape=self.shape
            )
            lo, hi = target_band(self.fxrz, data)
            for k, target in enumerate(
                stratified_log_targets(lo, hi, self.n_targets, target_rng)
            ):
                self.pairs.append(Pair(f"t{step}/s{k}", data, target))
            for k, target in enumerate(
                stratified_log_targets(lo, hi, self.n_probes, None)
            ):
                self.probes.append(len(self.pairs))
                self.pairs.append(Pair(f"t{step}/p{k}", data, target))
        n = len(self.pairs)
        first = list(order_rng.permutation(n))
        rest = list(order_rng.integers(0, n, max(0, self.count - n)))
        self.sequence = [int(i) for i in first + rest]

    def op(self, index: int):
        pair = self.pairs[index]
        return self.fxrz.estimate_config(pair.data, pair.target)

    def warm(self) -> None:
        for index in self.sequence[: self.n_warm]:
            self.op(index)

    def run(self, tracer=None, reference=None) -> Window:
        return closed_loop(self.op, self.sequence, tracer, reference)

    def check(self, window: Window) -> list[Failure]:
        failures = _output_failures(window.outputs)
        keys = [self.pairs[i].key for i in self.sequence]
        return failures + _repeat_failures(keys, self.configs(window))

    def est_error(self, window: Window) -> float:
        """Median |TCR - MCR| / TCR over the probes, compressing at each config."""
        configs: dict[int, float | None] = {}
        for index, result in zip(self.sequence, window.outputs):
            configs.setdefault(index, config_of(result))
        errors = []
        for index in self.probes:
            pair, config = self.pairs[index], configs[index]
            if config is None:
                continue  # a failed operation, already counted
            blob = self.fxrz.compressor.compress(pair.data, config)
            errors.append(
                abs(pair.target - blob.compression_ratio) / pair.target
            )
        return float(np.median(errors))


class Estimate48(EstimateWorkload):
    name = "estimate-48"
    nominal_rate = 170.0
    #: p90 moved 30 % between runs at one seed where p75 held within 7 %:
    #: in some host phases the costliest tenth slows more than the rest.
    tail_ceiling = 75.0


class Estimate128(EstimateWorkload):
    name = "estimate-128"
    speed_kernel = "stream"
    shape = (128, 128, 128)
    #: Two fields: every probe costs a 128^3 compression.
    steps = (HURRICANE_TEST_STEP, 40)
    n_targets = 4
    n_probes = 3
    nominal_rate = 32.0
    #: Operations cost nearly the same here, so p90 is host noise: it
    #: moved 20 % between runs where p75 held.
    tail_ceiling = 75.0


class Compress64(EstimateWorkload):
    """Closed loop of ``FXRZ.compress_to_ratio`` (no refinements)."""

    name = "compress-64"
    speed_kernel = "stream"
    nominal_rate = 25.0
    shape = (64, 64, 64)
    #: The held-out step and seven untrained steps spread over the run.
    steps = (HURRICANE_TEST_STEP, 3, 9, 16, 22, 29, 35, 42)
    n_targets = 4
    n_probes = 4
    #: Operations decompressed outside the window for the bound check.
    n_roundtrip = 8

    def op(self, index: int):
        pair = self.pairs[index]
        return self.fxrz.compress_to_ratio(pair.data, pair.target)

    def check(self, window: Window) -> list[Failure]:
        failures = _output_failures(window.outputs)
        keys = [self.pairs[i].key for i in self.sequence]
        failures += _repeat_failures(keys, self.configs(window))
        failures += _repeat_failures(
            keys,
            [
                None if isinstance(out, BaseException)
                else (len(out.blob.data), zlib.crc32(out.blob.data))
                for out in window.outputs
            ],
        )
        for i, (index, out) in enumerate(zip(self.sequence, window.outputs)):
            if isinstance(out, BaseException):
                continue
            raw = self.pairs[index].data.nbytes
            if out.measured_ratio != raw / len(out.blob.data):
                failures.append(Failure(
                    i,
                    f"op {i}: measured_ratio {out.measured_ratio!r} != "
                    f"{raw}/{len(out.blob.data)}",
                ))
        rng = streams(self.seed, self.name + "/roundtrip", 1)[0]
        picks = rng.choice(len(window.outputs), self.n_roundtrip, replace=False)
        for i in sorted(int(p) for p in picks):
            out = window.outputs[i]
            if isinstance(out, BaseException):
                continue
            data = self.pairs[self.sequence[i]].data
            compressor = self.fxrz.compressor
            try:
                # The compressor's own pointwise contract: the bound, plus
                # the half-ulp a float32 reconstruction adds when stored.
                compressor.verify(
                    data, compressor.decompress(out.blob), out.blob.config
                )
            except ReproError as exc:
                failures.append(Failure(i, f"op {i}: {type(exc).__name__}: {exc}"))
        return failures

    def est_error(self, window: Window) -> float:
        seen: dict[int, float] = {}
        for index, out in zip(self.sequence, window.outputs):
            if index not in seen and not isinstance(out, BaseException):
                seen[index] = out.estimation_error
        return float(np.median([seen[i] for i in self.probes if i in seen]))

    def counts(self, window: Window) -> dict:
        out = super().counts(window)
        out["compressed_bytes"] = sum(
            len(r.blob.data)
            for r in window.outputs
            if not isinstance(r, BaseException)
        )
        return out


class Serve48(Workload):
    """One caller, waiting for each reply, into the guarded service.

    Only one request is in flight, so one of the two workers and one
    host core stay idle. Two saturating callers were the first design:
    at 2 vCPUs their latency followed host CPU steal (a 45 % move of the
    median between two sets of runs), and so did an open loop of
    Poisson arrivals. With one request in flight the queue never builds,
    so requests are never coalesced (``batch_size`` reads 1).
    """

    name = "serve-48"
    serving = True
    nominal_rate = 130.0
    #: The hot pool: fixed steps, nine of which the parent's model
    #: answers from the model tier and three from the curve tier, so the
    #: median latency sits inside one mode of the two-tier service time.
    hot_steps = (1, 7, 14, 17, 21, 24, 35, 38, 41, 4, 11, 36)
    n_hot_targets = 6
    #: Fixed probe targets per hot dataset (see EstimateWorkload.n_probes).
    n_probes = 4
    fresh_share = 0.1
    #: Hot datasets plus fresh ones must fit the service's default
    #: 128-entry feature cache, so hits and misses stay deterministic.
    max_fresh = 96
    n_crosscheck = 24
    #: Seconds a request may take before it counts as failed.
    timeout = 60.0

    def build(self) -> None:
        fresh_rng, target_rng, mix_rng = streams(self.seed, self.name, 3)
        self.hot: list[Pair] = []
        self.probes: list[Pair] = []
        for step in self.hot_steps:
            data = hurricane.generate_hurricane_field(FIELD, step)
            lo, hi = target_band(self.fxrz, data)
            for target in stratified_log_targets(
                lo, hi, self.n_hot_targets, target_rng
            ):
                self.hot.append(Pair(f"hot-t{step}", data, target))
            for target in stratified_log_targets(lo, hi, self.n_probes, None):
                self.probes.append(Pair(f"hot-t{step}", data, target))
        self.hot += self.probes
        n_fresh_requests = round(self.fresh_share * self.count)
        n_fresh = max(1, min(self.max_fresh, n_fresh_requests))
        self.fresh: list[Pair] = []
        for j in range(n_fresh):
            step = int(fresh_rng.choice(UNTRAINED_STEPS))
            data = hurricane.generate_hurricane_field(
                FIELD, step, seed=int(fresh_rng.integers(1, 2**16))
            )
            lo, hi = target_band(self.fxrz, data)
            target = stratified_log_targets(lo, hi, 1, target_rng)[0]
            self.fresh.append(Pair(f"fresh-{j}", data, target))
        # Every hot pair is requested at least once, then at random.
        n_hot_requests = self.count - n_fresh_requests
        hot_order = list(mix_rng.permutation(len(self.hot)))[:n_hot_requests]
        hot_order += list(
            mix_rng.integers(0, len(self.hot), n_hot_requests - len(hot_order))
        )
        fresh_slots = set(
            int(i)
            for i in mix_rng.choice(self.count, n_fresh_requests, replace=False)
        )
        hot_iter, fresh_count = iter(hot_order), 0
        self.requests: list[Pair] = []
        for i in range(self.count):
            if i in fresh_slots:
                self.requests.append(self.fresh[fresh_count % n_fresh])
                fresh_count += 1
            else:
                self.requests.append(self.hot[int(next(hot_iter))])
        self.service = self.make_service()

    def make_service(self) -> EstimationService:
        return EstimationService.for_pipeline(self.fxrz, guarded=True, workers=2)

    def request(self, i: int, data: np.ndarray) -> EstimateRequest:
        pair = self.requests[i]
        return EstimateRequest(
            data=data,
            target_ratio=pair.target,
            request_id=f"r{i}",
            dataset_id=pair.key,
        )

    def warm(self) -> None:
        """Fill the feature cache with the hot pool and run the ladder once."""
        seen = {}
        for pair in self.hot:
            seen.setdefault(pair.key, pair)
        self.service.run_batch(
            [
                EstimateRequest(
                    data=p.data, target_ratio=p.target, dataset_id=p.key
                )
                for p in seen.values()
            ],
            timeout=self.timeout,
        )

    def run(self, tracer=None, reference=None) -> Window:
        # A distinct view per request lets the trace tell requests apart.
        views = [pair.data.view() for pair in self.requests]
        if tracer is not None:
            tracer.op_of_data = {id(v): i for i, v in enumerate(views)}
        hits0, misses0 = self.service.cache.hits, self.service.cache.misses

        def op(i):
            future = self.service.submit(self.request(i, views[i]))
            return future.result(timeout=self.timeout)

        window = closed_loop(op, range(self.count), reference=reference)
        window.extra = {
            "cache_hits": self.service.cache.hits - hits0,
            "cache_misses": self.service.cache.misses - misses0,
        }
        return window

    def tiers(self, window: Window) -> dict[str, int]:
        counts = {"model": 0, "curve": 0, "fraz": 0}
        for out in window.outputs:
            if not isinstance(out, BaseException):
                counts[out.estimate.tier] = counts.get(out.estimate.tier, 0) + 1
        return counts

    def check(self, window: Window) -> list[Failure]:
        outputs = window.outputs
        failures = _output_failures(outputs)
        if len(outputs) != self.count:
            failures.append(
                Failure(None, f"sent {self.count}, accounted {len(outputs)}")
            )
        keys = [f"{p.key}@{p.target!r}" for p in self.requests]
        failures += _repeat_failures(keys, self.configs(window))
        reference = self.fxrz.guarded()
        rng = streams(self.seed, self.name + "/crosscheck", 1)[0]
        picks = rng.choice(self.count, self.n_crosscheck, replace=False)
        for i in sorted(int(p) for p in picks):
            served = outputs[i]
            if isinstance(served, BaseException):
                continue
            pair = self.requests[i]
            expected = reference.estimate(pair.data, pair.target)
            if (served.estimate.config, served.estimate.tier) != (
                expected.config,
                expected.tier,
            ):
                failures.append(Failure(
                    i,
                    f"request {i}: served {served.estimate.config!r}/"
                    f"{served.estimate.tier} != in-process "
                    f"{expected.config!r}/{expected.tier}",
                ))
        return failures

    def est_error(self, window: Window) -> float:
        served: dict[tuple, float] = {}
        for pair, out in zip(self.requests, window.outputs):
            if not isinstance(out, BaseException):
                served.setdefault((pair.key, pair.target), out.estimate.config)
        errors = []
        for pair in self.probes:
            config = served.get((pair.key, pair.target))
            if config is None:
                continue  # a run too short to reach every probe
            ratio = self.fxrz.compressor.compress(pair.data, config).compression_ratio
            errors.append(abs(pair.target - ratio) / pair.target)
        return float(np.median(errors))

    def counts(self, window: Window) -> dict:
        out = super().counts(window)
        out["cache_hits"] = window.extra["cache_hits"]
        out["cache_misses"] = window.extra["cache_misses"]
        out.update({f"tier_{k}": v for k, v in self.tiers(window).items()})
        return out

    def close(self) -> None:
        service = getattr(self, "service", None)
        if service is not None:
            service.close(timeout=30.0)


WORKLOADS = {w.name: w for w in (Estimate48, Estimate128, Serve48, Compress64)}
