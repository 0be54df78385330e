"""Append-only serving-outcome log with rotation and replay.

One :class:`OutcomeRecord` captures what one estimate *claimed* and —
when the caller actually compressed — what the compressor *measured*.
Records with a measured ratio are future training rows; estimate-only
records still feed drift detection (their features and adjusted ratio
say where the serving traffic lives relative to the training
envelope).

The log is a line-per-record JSONL file. Crash safety comes from the
write discipline, not from a database: every record is serialized to
one complete ``\\n``-terminated line and written with a single
``write()`` + ``flush()`` on an append-mode handle, so a crash can
tear at most the line being written. The replay reader skips (and
counts) unparseable lines instead of failing the whole replay.

**Single-writer rule**: one :class:`OutcomeLog` instance owns its file
within one process. Forked shard workers must NOT append — their lines
would interleave mid-line with the parent's. An
:class:`~repro.serving.EstimationService` with a shard lane records
outcomes parent-side from the estimates its shards ship back over the
reply pipe, and
:meth:`~repro.runtime.context.RuntimeContext.spec` deliberately drops
``outcome_log`` so shard child contexts never build a log of their own.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import threading
import time
from dataclasses import dataclass, field

from repro.errors import InvalidConfiguration

_OUTCOMES_TOTAL = "repro_lifecycle_outcomes_total"


@dataclass(frozen=True)
class OutcomeRecord:
    """One serving outcome: the estimate, and optionally the truth.

    Attributes:
        dataset_key: serving-layer dataset key (content fingerprint or
            ``id:...``); empty when the caller had none.
        compressor: compressor name the estimate answered for.
        features: the five model-input features of the dataset.
        nonconstant: non-constant block fraction R at estimate time.
        target_ratio: the requested TCR.
        adjusted_target: the ACR actually fed to the model.
        config: the error configuration the estimate returned.
        tier: which ladder rung answered (``model``/``curve``/``fraz``).
        confidence: the guarded engine's model-tier confidence.
        fallback_reason: why the model tier was left (empty otherwise).
        measured_ratio: the compression ratio actually achieved, when
            the caller compressed; ``None`` for estimate-only records.
        source: which layer recorded this (``guarded``/``service``/
            ``shard``/``fallback``/``compress``).
        timestamp: UNIX time of the recording.
        trace_id: the distributed-trace id the request was served
            under (0 when untraced) — joins this record back to its
            span tree (``outcomes-report --spans``).
        objective: canonical objective string the request carried
            (``"ratio:10"``, ``"psnr:60"``); empty on rows written
            before objectives existed — read :attr:`objective_kind`
            instead of parsing this directly.
        measured_psnr: the reconstruction PSNR actually measured, when
            the caller compressed (or a quality probe ran); ``None``
            otherwise.
    """

    dataset_key: str
    compressor: str
    features: tuple[float, ...]
    nonconstant: float
    target_ratio: float
    adjusted_target: float
    config: float
    tier: str = ""
    confidence: float = 1.0
    fallback_reason: str = ""
    measured_ratio: float | None = None
    source: str = ""
    timestamp: float = 0.0
    trace_id: int = 0
    objective: str = ""
    measured_psnr: float | None = None

    @classmethod
    def from_estimate(
        cls,
        estimate,
        *,
        dataset_key: str = "",
        compressor: str = "",
        measured_ratio: float | None = None,
        measured_psnr: float | None = None,
        source: str = "",
        timestamp: float | None = None,
    ) -> "OutcomeRecord":
        """Build a record from an :class:`~repro.core.inference.Estimate`."""
        objective = getattr(estimate, "objective", None)
        return cls(
            dataset_key=str(dataset_key),
            compressor=str(compressor),
            features=tuple(float(v) for v in estimate.features),
            nonconstant=float(estimate.nonconstant),
            target_ratio=float(estimate.target_ratio),
            adjusted_target=float(estimate.adjusted_target),
            config=float(estimate.config),
            tier=str(estimate.tier),
            confidence=float(estimate.confidence),
            fallback_reason=str(estimate.fallback_reason),
            measured_ratio=(
                None if measured_ratio is None else float(measured_ratio)
            ),
            source=str(source),
            timestamp=time.time() if timestamp is None else float(timestamp),
            trace_id=int(getattr(estimate, "trace_id", 0)),
            objective=objective.canonical if objective is not None else "",
            measured_psnr=(
                None
                if measured_psnr is None or not math.isfinite(measured_psnr)
                else float(measured_psnr)
            ),
        )

    @property
    def objective_kind(self) -> str:
        """``"ratio"``/``"psnr"``/``"ssim"``; pre-objective rows are ratio."""
        if not self.objective:
            return "ratio"
        return self.objective.split(":", 1)[0]

    @property
    def objective_value(self) -> float:
        """The objective's target value (falls back to ``target_ratio``)."""
        if not self.objective:
            return self.target_ratio
        try:
            return float(self.objective.split(":", 1)[1])
        except (IndexError, ValueError):
            return self.target_ratio

    @property
    def trainable(self) -> bool:
        """Whether this record carries a usable measured outcome."""
        return (
            self.measured_ratio is not None
            and math.isfinite(self.measured_ratio)
            and self.measured_ratio > 0.0
            and math.isfinite(self.config)
            and self.config > 0.0
            and 0.0 < self.nonconstant <= 1.0
        )

    @property
    def relative_error(self) -> float | None:
        """Formula (5) against the measurement: |TCR - MCR| / TCR."""
        if self.measured_ratio is None or self.target_ratio <= 0:
            return None
        return abs(self.target_ratio - self.measured_ratio) / self.target_ratio

    def to_dict(self) -> dict:
        return {
            "dataset_key": self.dataset_key,
            "compressor": self.compressor,
            "features": list(self.features),
            "nonconstant": self.nonconstant,
            "target_ratio": self.target_ratio,
            "adjusted_target": self.adjusted_target,
            "config": self.config,
            "tier": self.tier,
            "confidence": self.confidence,
            "fallback_reason": self.fallback_reason,
            "measured_ratio": self.measured_ratio,
            "source": self.source,
            "timestamp": self.timestamp,
            "trace_id": self.trace_id,
            "objective": self.objective,
            "measured_psnr": self.measured_psnr,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "OutcomeRecord":
        measured = payload.get("measured_ratio")
        measured_psnr = payload.get("measured_psnr")
        return cls(
            dataset_key=str(payload.get("dataset_key", "")),
            compressor=str(payload.get("compressor", "")),
            features=tuple(
                float(v) for v in payload.get("features", ())
            ),
            nonconstant=float(payload.get("nonconstant", 1.0)),
            target_ratio=float(payload.get("target_ratio", 0.0)),
            adjusted_target=float(payload.get("adjusted_target", 0.0)),
            config=float(payload.get("config", 0.0)),
            tier=str(payload.get("tier", "")),
            confidence=float(payload.get("confidence", 1.0)),
            fallback_reason=str(payload.get("fallback_reason", "")),
            measured_ratio=None if measured is None else float(measured),
            source=str(payload.get("source", "")),
            timestamp=float(payload.get("timestamp", 0.0)),
            trace_id=int(payload.get("trace_id", 0)),
            objective=str(payload.get("objective", "")),
            measured_psnr=(
                None if measured_psnr is None else float(measured_psnr)
            ),
        )


class OutcomeLog:
    """Append-only JSONL outcome log, thread-safe, with size rotation.

    Args:
        path: the live log file; rotated generations live next to it
            as ``<path>.1`` (newest) .. ``<path>.<max_files>``.
        max_bytes: rotate once the live file exceeds this size.
        max_files: rotated generations kept (older ones are deleted).
        fsync: ``True`` forces an ``fsync`` per record — durable
            against power loss, at a large per-record cost. The default
            ``flush()`` survives process crashes, which is the failure
            mode serving actually sees.
        registry: a :class:`~repro.obs.MetricsRegistry`; when given,
            every record increments ``repro_lifecycle_outcomes_total``
            (labelled by source).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        max_bytes: int = 16 * 1024 * 1024,
        max_files: int = 4,
        fsync: bool = False,
        registry=None,
    ) -> None:
        if max_bytes < 4096:
            raise InvalidConfiguration("max_bytes must be >= 4096")
        if max_files < 1:
            raise InvalidConfiguration("max_files must be >= 1")
        self.path = pathlib.Path(path)
        self.max_bytes = int(max_bytes)
        self.max_files = int(max_files)
        self.fsync = bool(fsync)
        self._lock = threading.Lock()
        self._fh = None
        self._closed = False
        self.records_written = 0
        self.rotations = 0
        self._counter = None
        if registry is not None:
            self._counter = registry.counter(
                _OUTCOMES_TOTAL, "serving outcomes recorded, by source"
            )

    # -- writing ---------------------------------------------------------------

    def record(self, record: OutcomeRecord) -> None:
        """Append one record (one complete line, flushed)."""
        line = json.dumps(record.to_dict(), separators=(",", ":")) + "\n"
        with self._lock:
            if self._closed:
                raise InvalidConfiguration(
                    f"outcome log {self.path} is closed"
                )
            fh = self._open_locked()
            fh.write(line)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
            self.records_written += 1
            if fh.tell() >= self.max_bytes:
                self._rotate_locked()
        if self._counter is not None:
            self._counter.inc(source=record.source or "unknown")

    def record_estimate(
        self,
        estimate,
        *,
        dataset_key: str = "",
        compressor: str = "",
        measured_ratio: float | None = None,
        measured_psnr: float | None = None,
        source: str = "",
    ) -> OutcomeRecord:
        """Convenience: build a record from ``estimate`` and append it."""
        record = OutcomeRecord.from_estimate(
            estimate,
            dataset_key=dataset_key,
            compressor=compressor,
            measured_ratio=measured_ratio,
            measured_psnr=measured_psnr,
            source=source,
        )
        self.record(record)
        return record

    def _open_locked(self):
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        return self._fh

    def _rotate_locked(self) -> None:
        self._fh.close()
        self._fh = None
        overflow = self._rotated_path(self.max_files)
        if overflow.exists():
            overflow.unlink()
        for generation in range(self.max_files - 1, 0, -1):
            older = self._rotated_path(generation)
            if older.exists():
                older.replace(self._rotated_path(generation + 1))
        self.path.replace(self._rotated_path(1))
        self.rotations += 1

    def _rotated_path(self, generation: int) -> pathlib.Path:
        return self.path.with_name(f"{self.path.name}.{generation}")

    # -- lifecycle -------------------------------------------------------------

    def flush(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()

    def close(self) -> None:
        """Flush and close the live handle (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._fh is not None:
                self._fh.flush()
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "OutcomeLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return self.records_written

    # -- reading ---------------------------------------------------------------

    def replay(self, include_rotated: bool = True) -> "OutcomeReplay":
        """Replay this log's files from disk (see :func:`read_outcomes`)."""
        self.flush()
        return read_outcomes(self.path, include_rotated=include_rotated)


@dataclass
class OutcomeReplay:
    """What a replay found: parsed records plus damage accounting.

    Attributes:
        records: parsed records, oldest first (rotated files first).
        torn_lines: lines that failed to parse (crash-torn writes or
            forbidden cross-process interleaving) — skipped, counted.
        files: log files read, oldest first.
    """

    records: list[OutcomeRecord] = field(default_factory=list)
    torn_lines: int = 0
    files: list[pathlib.Path] = field(default_factory=list)

    @property
    def trainable(self) -> list[OutcomeRecord]:
        return [record for record in self.records if record.trainable]


def read_outcomes(
    path: str | os.PathLike, include_rotated: bool = True
) -> OutcomeReplay:
    """Read an outcome log back, skipping (and counting) torn lines.

    ``include_rotated=True`` reads ``<path>.N`` generations too, oldest
    first, so the returned record list is in append order across
    rotations. A missing live file yields an empty replay rather than
    an error — an empty log is a valid state for a fresh deployment.
    """
    live = pathlib.Path(path)
    files: list[pathlib.Path] = []
    if include_rotated:
        generation = 1
        rotated = []
        while True:
            candidate = live.with_name(f"{live.name}.{generation}")
            if not candidate.is_file():
                break
            rotated.append(candidate)
            generation += 1
        files.extend(reversed(rotated))  # highest generation = oldest
    if live.is_file():
        files.append(live)
    replay = OutcomeReplay(files=list(files))
    for file in files:
        with open(file, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                    if not isinstance(payload, dict):
                        raise ValueError("not an object")
                    record = OutcomeRecord.from_dict(payload)
                except (ValueError, TypeError, KeyError):
                    replay.torn_lines += 1
                    continue
                replay.records.append(record)
    return replay
