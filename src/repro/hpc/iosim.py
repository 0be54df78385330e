"""Analytic model of parallel data dumping on a supercomputer.

The paper's final experiment (Sec. V-H / conclusion) dumps data from up
to 4,096 cores on ANL Bebop through a shared GPFS filesystem
(~2 GB/s aggregate), comparing end-to-end time when the fixed-ratio
configuration comes from FXRZ versus FRaZ. The mechanism behind the
1.18-8.71x gain is simple and fully captured by this model:

* every rank must *find* its error configuration before dumping:
  FXRZ pays one cheap feature pass; FRaZ pays ``iterations`` full
  compressor runs;
* then every rank compresses once and writes through the shared
  filesystem, whose aggregate bandwidth all ranks divide.

As rank count grows, the shared write stage stops scaling while the
per-rank search cost stays constant, so FRaZ's overhead dominates at
small scale (compute-bound) and shrinks relative to I/O at the largest
scale — the paper's 8.71x..1.18x band.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvalidConfiguration, RetryExhausted
from repro.robustness.faults import FaultSpec, RetryPolicy, backoff_schedule

#: Default of ``simulate_faulty_dump(retry=)``: tells "not passed" apart
#: from an explicit ``None`` (which disables retries).
_UNSET = object()


@dataclass(frozen=True)
class DumpScenario:
    """One parallel dump configuration.

    Attributes:
        n_ranks: number of MPI ranks dumping simultaneously.
        bytes_per_rank: uncompressed data owned by each rank.
        compression_ratio: achieved ratio (both strategies compress to
            the same target ratio, so the written volume matches).
        compress_throughput: single-rank compressor speed (bytes/s).
        analysis_seconds: per-rank configuration-search cost — FXRZ's
            feature pass or FRaZ's ``iterations x compression`` time.
        shared_bandwidth: aggregate filesystem bandwidth (bytes/s).
        per_rank_bandwidth: link ceiling of a single rank (bytes/s).
    """

    n_ranks: int
    bytes_per_rank: float
    compression_ratio: float
    compress_throughput: float
    analysis_seconds: float
    shared_bandwidth: float = 2e9
    per_rank_bandwidth: float = 1e9

    def __post_init__(self) -> None:
        if self.n_ranks < 1:
            raise InvalidConfiguration("n_ranks must be >= 1")
        if min(
            self.bytes_per_rank,
            self.compression_ratio,
            self.compress_throughput,
            self.shared_bandwidth,
            self.per_rank_bandwidth,
        ) <= 0:
            raise InvalidConfiguration("scenario quantities must be positive")
        if self.analysis_seconds < 0:
            raise InvalidConfiguration("analysis_seconds must be >= 0")


@dataclass(frozen=True)
class DumpBreakdown:
    """End-to-end dump time and its stages (seconds)."""

    analysis: float
    compression: float
    write: float

    @property
    def total(self) -> float:
        return self.analysis + self.compression + self.write


def simulate_dump(scenario: DumpScenario, *, ctx=None) -> DumpBreakdown:
    """End-to-end wall time of one parallel dump.

    Analysis and compression are perfectly parallel (each rank works on
    its own data); the write stage shares the filesystem: each rank's
    effective write bandwidth is ``min(per_rank, shared / n_ranks)``.
    The simulation is pure arithmetic; ``ctx`` is accepted for API
    uniformity with :func:`simulate_faulty_dump`.
    """
    analysis = scenario.analysis_seconds
    compression = scenario.bytes_per_rank / scenario.compress_throughput
    compressed = scenario.bytes_per_rank / scenario.compression_ratio
    write_bw = min(
        scenario.per_rank_bandwidth,
        scenario.shared_bandwidth / scenario.n_ranks,
    )
    write = compressed / write_bw
    return DumpBreakdown(analysis=analysis, compression=compression, write=write)


# -- fault-injected dumping ----------------------------------------------------


@dataclass(frozen=True)
class RankOutcome:
    """What happened to one rank during a fault-injected dump.

    Attributes:
        rank: rank index.
        attempts: attempts spent (1 = clean first try).
        seconds: wall time including lost work and backoff delays.
        straggler: whether the rank ran at the straggler slowdown.
        events: the fault observed on each non-final attempt, in order
            (``"rank-failure"`` or ``"write-error"``).
    """

    rank: int
    attempts: int
    seconds: float
    straggler: bool
    events: tuple[str, ...] = ()


@dataclass(frozen=True)
class FaultyDumpReport:
    """Completion report of a fault-injected parallel dump.

    Attributes:
        completion_seconds: wall time until the slowest rank finished.
        fault_free_seconds: the same scenario's happy-path time.
        ranks: per-rank outcomes, index-ordered.
    """

    completion_seconds: float
    fault_free_seconds: float
    ranks: tuple[RankOutcome, ...] = field(default_factory=tuple)

    @property
    def total_attempts(self) -> int:
        return sum(r.attempts for r in self.ranks)

    @property
    def failed_ranks(self) -> int:
        """Ranks that needed more than one attempt."""
        return sum(1 for r in self.ranks if r.attempts > 1)

    @property
    def overhead(self) -> float:
        """Completion time relative to the fault-free dump (>= 1)."""
        return self.completion_seconds / self.fault_free_seconds


def simulate_faulty_dump(
    scenario: DumpScenario,
    faults: FaultSpec,
    retry: RetryPolicy | None | object = _UNSET,
    *,
    ctx=None,
) -> FaultyDumpReport:
    """Wall time of a parallel dump under seeded, injectable faults.

    Each rank owns a deterministic random stream derived from
    ``(faults.seed, rank)`` and works through its analysis +
    compression + write budget in attempts:

    * a **rank failure** kills the attempt a uniform fraction into the
      remaining work; the checkpoint preserves
      ``faults.checkpoint_fraction`` of the progress made;
    * a **write error** costs the whole attempt's time but loses only
      the write stage (computed data survives in memory);
    * **stragglers** run all compute/write at
      ``faults.straggler_slowdown``.

    Failed attempts wait out the retry policy's jittered exponential
    backoff before restarting. A rank that exhausts its attempt budget
    aborts the dump.

    Args:
        scenario: the happy-path dump description.
        faults: seeded fault probabilities.
        retry: backoff/budget policy; an explicit ``None`` disables
            retries (any fault is terminal). Left unset, the policy
            comes from ``ctx`` when one is given, else retries are
            disabled.
        ctx: a :class:`~repro.runtime.RuntimeContext`; supplies
            ``ctx.retry_policy`` when ``retry`` is left unset.

    Returns:
        A :class:`FaultyDumpReport` with per-rank attempt counts.

    Raises:
        RetryExhausted: some rank saw a fault with retries disabled, or
            faulted on every attempt in its budget; carries ``attempts``
            and ``last_cause``.
    """
    if retry is _UNSET:
        retry = ctx.retry_policy if ctx is not None else None
    policy = retry if retry is not None else RetryPolicy(
        max_attempts=1, base_delay=0.0, jitter=0.0
    )
    clean = simulate_dump(scenario)
    write_seconds = clean.write
    outcomes = []
    for rank in range(scenario.n_ranks):
        rng = faults.rank_rng(rank)
        straggler = bool(rng.random() < faults.straggler_prob)
        slow = faults.straggler_slowdown if straggler else 1.0
        delays = backoff_schedule(policy, policy.max_attempts - 1, rng)
        remaining = clean.analysis + slow * (clean.compression + write_seconds)
        elapsed = 0.0
        events: list[str] = []
        attempts = 0
        while attempts < policy.max_attempts:
            attempts += 1
            draw = rng.random()
            if draw < faults.rank_failure_prob:
                lost_at = rng.random()
                done = lost_at * remaining
                elapsed += done
                remaining -= faults.checkpoint_fraction * done
                events.append("rank-failure")
            elif draw < faults.rank_failure_prob + faults.write_error_prob:
                elapsed += remaining
                # Compute survives; only the write stage is redone.
                remaining = min(remaining, slow * write_seconds)
                events.append("write-error")
            else:
                elapsed += remaining
                remaining = 0.0
                break
            if attempts < policy.max_attempts:
                elapsed += float(delays[attempts - 1])
        if remaining > 0.0:
            cause = events[-1] if events else "unknown fault"
            raise RetryExhausted(
                f"rank {rank} failed after {attempts} attempt(s) "
                f"(last cause: {cause}; retries "
                f"{'disabled' if policy.max_attempts == 1 else 'exhausted'})",
                attempts=attempts,
                last_cause=cause,
            )
        outcomes.append(
            RankOutcome(
                rank=rank,
                attempts=attempts,
                seconds=elapsed,
                straggler=straggler,
                events=tuple(events),
            )
        )
    return FaultyDumpReport(
        completion_seconds=max(o.seconds for o in outcomes),
        fault_free_seconds=clean.total,
        ranks=tuple(outcomes),
    )
