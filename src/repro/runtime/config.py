"""Layered runtime configuration.

A :class:`RuntimeConfig` is resolved through four layers, later layers
winning:

1. **defaults** — the dataclass field defaults below;
2. **environment** — ``REPRO_<FIELD>`` variables (``REPRO_JOBS``,
   ``REPRO_TRACE``, ``REPRO_METRICS``, ``REPRO_SEED``,
   ``REPRO_FALLBACK``, ``REPRO_MIN_CONFIDENCE``, ...);
3. **TOML profile** — a file passed explicitly or named by
   ``REPRO_PROFILE``, holding a ``[runtime]`` table;
4. **explicit overrides** — keyword arguments to :meth:`resolve` (or
   to :class:`~repro.runtime.context.RuntimeContext`), where ``None``
   means "unset, fall through to the lower layers".

Each resolved field remembers which layer supplied it in
:attr:`RuntimeConfig.provenance`, so tooling (and the tests) can
explain where a value came from.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
from dataclasses import dataclass, field

from repro.config import DEFAULT_SEED
from repro.errors import InvalidConfiguration

_ENV_PREFIX = "REPRO_"
_PROFILE_ENV = "REPRO_PROFILE"
_PROFILE_TABLE = "runtime"

_BACKENDS = ("auto", "serial", "thread", "process")
_FALLBACKS = ("none", "curve", "fraz")


@dataclass(frozen=True)
class RuntimeConfig:
    """Frozen knobs of one runtime session.

    Attributes:
        jobs: worker count for the parallel executor (1 = serial,
            0 = all CPUs, negatives count back joblib-style).
        backend: executor backend (``auto``/``serial``/``thread``/
            ``process``).
        trace: JSONL span-log path the context exports on close
            (empty = tracing stays off unless a tracer is injected).
        metrics: Prometheus-text path the context flushes on close
            (empty = metrics stay off unless a registry is injected).
        seed: master seed of the context's root ``SeedSequence``;
            worker child contexts derive per-task seeds from it.
        fallback: terminal rung of the guarded-inference ladder.
        min_confidence: model-tier acceptance threshold in [0, 1].
        retry_attempts: attempt budget of the context retry policy
            (also the shard respawn budget of the sharded service).
        retry_base_delay: base backoff delay of the retry policy.
        breaker_failures: consecutive shard failures that trip a
            serving circuit breaker from closed to open.
        breaker_reset: seconds an open breaker waits before letting a
            half-open probe request through.
        deadline: default per-request deadline in seconds for the
            serving layer (0 = no deadline).
        outcome_log: JSONL path the session's serving outcomes append
            to (empty = outcome logging stays off unless a log is
            injected).
        drift_window: rolling-window length of the drift detector.
        drift_ood_threshold: window OOD fraction that marks an
            observation hot, in (0, 1].
        drift_error_threshold: calibration-error EWMA that marks an
            observation hot.
        drift_hysteresis: consecutive hot (cool) observations required
            to enter (leave) the drifting state.
        retrain_min_samples: fresh trainable outcomes that trigger a
            background retrain on volume alone.
        canary_fraction: most-recent fraction of trainable outcomes
            held out for the canary replay, in (0, 1).
        canary_margin: fractional median-error improvement a candidate
            must show to be promoted, in [0, 1).
        scrape_port: TCP port of the observability endpoint
            (``/metrics``, ``/healthz``, ``/slo``, ``/spans``) that an
            estimation service with a shard lane embeds; 0 picks an
            ephemeral port, -1 disables the server.
        trace_sample: fraction of served requests (in-process or
            sharded) that get a distributed trace, in [0, 1] (1 =
            trace everything; only meaningful when a tracer is
            installed at all).
        slo_availability: availability SLO objective (good-request
            fraction) in (0, 1].
        slo_p99_ms: p99 latency SLO threshold, milliseconds.
        slo_calibration_error: calibration-error EWMA the model SLO
            tolerates before alerting.
        slo_window: rolling SLO evaluation window, seconds.
        provenance: ``field -> layer`` map ("default"/"env"/"profile"/
            "override"); informational, excluded from equality.
    """

    jobs: int = 1
    backend: str = "auto"
    trace: str = ""
    metrics: str = ""
    seed: int = DEFAULT_SEED
    fallback: str = "fraz"
    min_confidence: float = 0.5
    retry_attempts: int = 4
    retry_base_delay: float = 0.5
    breaker_failures: int = 5
    breaker_reset: float = 30.0
    deadline: float = 0.0
    outcome_log: str = ""
    drift_window: int = 256
    drift_ood_threshold: float = 0.5
    drift_error_threshold: float = 0.25
    drift_hysteresis: int = 3
    retrain_min_samples: int = 64
    canary_fraction: float = 0.25
    canary_margin: float = 0.0
    scrape_port: int = -1
    trace_sample: float = 1.0
    slo_availability: float = 0.999
    slo_p99_ms: float = 250.0
    slo_calibration_error: float = 0.25
    slo_window: float = 300.0
    provenance: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise InvalidConfiguration(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.fallback not in _FALLBACKS:
            raise InvalidConfiguration(
                f"fallback must be one of {_FALLBACKS}, got {self.fallback!r}"
            )
        if not 0.0 <= self.min_confidence <= 1.0:
            raise InvalidConfiguration("min_confidence must be in [0, 1]")
        if self.retry_attempts < 1:
            raise InvalidConfiguration("retry_attempts must be >= 1")
        if self.retry_base_delay < 0:
            raise InvalidConfiguration("retry_base_delay must be >= 0")
        if self.breaker_failures < 1:
            raise InvalidConfiguration("breaker_failures must be >= 1")
        if self.breaker_reset < 0:
            raise InvalidConfiguration("breaker_reset must be >= 0")
        if self.deadline < 0:
            raise InvalidConfiguration("deadline must be >= 0")
        if self.drift_window < 1:
            raise InvalidConfiguration("drift_window must be >= 1")
        if not 0.0 < self.drift_ood_threshold <= 1.0:
            raise InvalidConfiguration(
                "drift_ood_threshold must be in (0, 1]"
            )
        if self.drift_error_threshold <= 0:
            raise InvalidConfiguration("drift_error_threshold must be > 0")
        if self.drift_hysteresis < 1:
            raise InvalidConfiguration("drift_hysteresis must be >= 1")
        if self.retrain_min_samples < 1:
            raise InvalidConfiguration("retrain_min_samples must be >= 1")
        if not 0.0 < self.canary_fraction < 1.0:
            raise InvalidConfiguration("canary_fraction must be in (0, 1)")
        if not 0.0 <= self.canary_margin < 1.0:
            raise InvalidConfiguration("canary_margin must be in [0, 1)")
        if not -1 <= self.scrape_port <= 65535:
            raise InvalidConfiguration(
                "scrape_port must be -1 (off), 0 (ephemeral) or a TCP port"
            )
        if not 0.0 <= self.trace_sample <= 1.0:
            raise InvalidConfiguration("trace_sample must be in [0, 1]")
        if not 0.0 < self.slo_availability <= 1.0:
            raise InvalidConfiguration("slo_availability must be in (0, 1]")
        if self.slo_p99_ms <= 0:
            raise InvalidConfiguration("slo_p99_ms must be > 0")
        if self.slo_calibration_error <= 0:
            raise InvalidConfiguration("slo_calibration_error must be > 0")
        if self.slo_window <= 0:
            raise InvalidConfiguration("slo_window must be > 0")

    def replace(self, **changes) -> "RuntimeConfig":
        """A copy with ``changes`` applied (provenance marks them)."""
        provenance = dict(self.provenance)
        for name in changes:
            provenance[name] = "override"
        return dataclasses.replace(self, provenance=provenance, **changes)

    @classmethod
    def resolve(
        cls,
        profile: str | os.PathLike | None = None,
        env: dict | None = None,
        **overrides,
    ) -> "RuntimeConfig":
        """Resolve defaults -> env -> TOML profile -> overrides.

        Args:
            profile: TOML profile path; defaults to ``$REPRO_PROFILE``.
            env: environment mapping (defaults to ``os.environ``;
                tests inject a dict).
            **overrides: explicit field values; ``None`` means unset.
        """
        env = os.environ if env is None else env
        fields = {
            f.name: f.default
            for f in dataclasses.fields(cls)
            if f.name != "provenance"
        }
        values = dict(fields)
        provenance = {name: "default" for name in values}
        for name in values:
            raw = env.get(_ENV_PREFIX + name.upper())
            if raw is not None:
                values[name] = _coerce(
                    name,
                    raw,
                    f"environment variable {_ENV_PREFIX}{name.upper()}",
                )
                provenance[name] = "env"
        path = profile if profile is not None else env.get(_PROFILE_ENV) or None
        if path:
            for name, value in _load_profile(path).items():
                values[name] = value
                provenance[name] = "profile"
        for name, value in overrides.items():
            if name not in values:
                raise InvalidConfiguration(
                    f"unknown runtime option {name!r} "
                    f"(known: {', '.join(sorted(values))})"
                )
            if value is None:
                continue
            values[name] = _coerce(name, value, f"override {name!r}")
            provenance[name] = "override"
        return cls(provenance=provenance, **values)


def _coerce(name: str, value, source: str):
    """Parse ``value`` into the field's type, blaming ``source``."""
    target = {
        "jobs": int,
        "backend": str,
        "trace": str,
        "metrics": str,
        "seed": int,
        "fallback": str,
        "min_confidence": float,
        "retry_attempts": int,
        "retry_base_delay": float,
        "breaker_failures": int,
        "breaker_reset": float,
        "deadline": float,
        "outcome_log": str,
        "drift_window": int,
        "drift_ood_threshold": float,
        "drift_error_threshold": float,
        "drift_hysteresis": int,
        "retrain_min_samples": int,
        "canary_fraction": float,
        "canary_margin": float,
        "scrape_port": int,
        "trace_sample": float,
        "slo_availability": float,
        "slo_p99_ms": float,
        "slo_calibration_error": float,
        "slo_window": float,
    }[name]
    try:
        if target is str:
            if not isinstance(value, str):
                raise ValueError(f"expected a string, got {type(value).__name__}")
            return value
        return target(value)
    except (TypeError, ValueError) as exc:
        raise InvalidConfiguration(
            f"{source}: cannot read {value!r} as {name} ({exc})"
        ) from exc


def _load_profile(path: str | os.PathLike) -> dict:
    """The ``[runtime]`` table of a TOML profile, values coerced."""
    import tomllib

    profile_path = pathlib.Path(path)
    try:
        with open(profile_path, "rb") as handle:
            document = tomllib.load(handle)
    except OSError as exc:
        raise InvalidConfiguration(
            f"cannot read runtime profile {profile_path}: {exc}"
        ) from exc
    except tomllib.TOMLDecodeError as exc:
        raise InvalidConfiguration(
            f"invalid TOML in runtime profile {profile_path}: {exc}"
        ) from exc
    table = document.get(_PROFILE_TABLE, {})
    if not isinstance(table, dict):
        raise InvalidConfiguration(
            f"runtime profile {profile_path}: [runtime] must be a table"
        )
    known = {
        f.name for f in dataclasses.fields(RuntimeConfig) if f.name != "provenance"
    }
    out = {}
    for name, value in table.items():
        if name not in known:
            raise InvalidConfiguration(
                f"runtime profile {profile_path}: unknown option {name!r} "
                f"(known: {', '.join(sorted(known))})"
            )
        out[name] = _coerce(name, value, f"profile {profile_path}")
    return out
