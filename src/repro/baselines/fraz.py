"""FRaZ — the trial-and-error fixed-ratio baseline (Underwood et al.).

FRaZ reaches a target ratio by *running the compressor* on the full
dataset at iteratively refined error configurations. Following the
paper's configuration (Sec. V-A4):

* the global error-configuration search range is split into ``k = 3``
  bins;
* each bin receives an equal share of the total iteration budget
  ("max-iterations for each bin ... max-iterations and number-bins
  together provide us total max iterations"); a bin that does not
  contain the target burns its share probing unproductive configs;
* within a bin the search probes the edges and bisects the bracket
  enclosing the target ratio.

FRaZ is compressor-agnostic, so by default it traverses the *raw*
configuration axis (``search_scale="linear"``) — it has no prior that
useful error bounds span decades, which is why small targets take many
iterations to localize (the low-TCR struggles in Fig. 12).

Every iteration costs one full compression, which is exactly why the
paper measures FRaZ at one-to-two orders of magnitude more analysis
time than FXRZ (Table VIII) — more iterations buy accuracy (Fig. 12's
6- vs 15-iteration curves) at proportional cost.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.compressors.base import Compressor
from repro.errors import InvalidConfiguration, SearchError


@dataclass(frozen=True)
class FRaZResult:
    """Outcome of one FRaZ search.

    Attributes:
        config: best error configuration found.
        measured_ratio: compression ratio at that configuration.
        target_ratio: the requested TCR.
        iterations: compressor runs spent (cache hits included — they
            still represent compressor work in the modeled system).
        search_seconds: total compressor time of those runs.
        evaluations: every (config, ratio) probed, in order.
        eval_seconds: wall time of each evaluation, in order.
    """

    config: float
    measured_ratio: float
    target_ratio: float
    iterations: int
    search_seconds: float
    evaluations: list[tuple[float, float]] = field(default_factory=list)
    eval_seconds: list[float] = field(default_factory=list)

    @property
    def estimation_error(self) -> float:
        return abs(self.target_ratio - self.measured_ratio) / self.target_ratio


def _probe_task(config: float, arrays: dict, compressor: Compressor):
    """One window probe (executor worker): ``(ratio, seconds)``."""
    tick = time.perf_counter()
    ratio = compressor.compression_ratio(arrays["data"], config)
    return ratio, time.perf_counter() - tick


def _probe_batch(configs: list, arrays: dict, compressor: Compressor):
    """A fat probe task: several edge probes in one dispatch.

    One batch runs on one worker; a single compression stream carries
    the kernel arena across its probes.
    """
    stream = compressor.compress_stream()
    results = []
    for config in configs:
        tick = time.perf_counter()
        ratio = stream.compress(arrays["data"], config).compression_ratio
        results.append((ratio, time.perf_counter() - tick))
    return results


class FRaZ:
    """Windowed iterative fixed-ratio search.

    Args:
        compressor: the error-controlled compressor to drive.
        max_iterations: total compressor-run budget (the paper uses 6
            and 15).
        n_bins: number of windows the global range is split into (the
            paper uses 3); the budget is divided evenly among them.
        search_scale: ``"linear"`` (default, the agnostic behavior) or
            ``"log"`` (an informed ablation variant).
        ctx: a :class:`~repro.runtime.RuntimeContext`. Its executor
            evaluates the window edge probes every bin opens with
            concurrently (they are known upfront and independent)
            before the inherently sequential bisections start — the
            recorded search is bit-identical to the serial one, only
            the wall clock changes. Its memo is shared across
            searches/paths; hits are charged their recorded compressor
            time, exactly like the legacy ``cache`` dict, so FRaZ's
            cost accounting stays honest.
    """

    def __init__(
        self,
        compressor: Compressor,
        max_iterations: int = 15,
        n_bins: int = 3,
        search_scale: str = "linear",
        *,
        ctx=None,
    ) -> None:
        if max_iterations < 2:
            raise InvalidConfiguration("max_iterations must be >= 2")
        if n_bins < 1:
            raise InvalidConfiguration("n_bins must be >= 1")
        if search_scale not in ("linear", "log"):
            raise InvalidConfiguration("search_scale must be 'linear' or 'log'")
        self.compressor = compressor
        self.max_iterations = max_iterations
        self.n_bins = n_bins
        self.search_scale = search_scale
        self.ctx = ctx
        self.executor = ctx.executor if ctx is not None else None
        self.memo = ctx.memo if ctx is not None else None

    def search(
        self,
        data: np.ndarray,
        target_ratio: float,
        domain: tuple[float, float] | None = None,
        cache: dict[float, tuple[float, float]] | None = None,
    ) -> FRaZResult:
        """Find the config whose measured ratio is closest to the target.

        Args:
            data: the dataset to fix the ratio for.
            target_ratio: TCR.
            domain: (low, high) config range; defaults to the
                compressor's domain for ``data``.
            cache: optional shared ``config -> (ratio, seconds)`` memo;
                hits are charged their recorded compressor time, so
                repeated searches stay honest about FRaZ's cost while
                the *experiment harness* avoids redundant real runs.
        """
        sources: dict[str, int] = {}
        with obs.span(
            "fraz.search",
            compressor=self.compressor.name,
            target_ratio=float(target_ratio),
            max_iterations=self.max_iterations,
        ) as span:
            result = self._search_body(
                data, target_ratio, domain, cache, sources
            )
            span.set_attributes(
                iterations=result.iterations,
                measured_ratio=result.measured_ratio,
                search_seconds=result.search_seconds,
            )
        registry = obs.get_registry()
        if registry is not None:
            # Counters are flushed once per search, not per probe, so
            # the probe loop stays registry-free.
            registry.counter(
                "repro_fraz_searches_total", "FRaZ searches completed"
            ).inc()
            probes = registry.counter(
                "repro_fraz_probes_total",
                "FRaZ probes by source (run/memo/prefetch/cache)",
            )
            for source, count in sources.items():
                probes.inc(count, source=source)
            registry.counter(
                "repro_fraz_compressor_seconds_total",
                "compressor seconds charged to FRaZ searches",
            ).inc(result.search_seconds)
        return result

    def _search_body(
        self,
        data: np.ndarray,
        target_ratio: float,
        domain: tuple[float, float] | None,
        cache: dict[float, tuple[float, float]] | None,
        sources: dict[str, int],
    ) -> FRaZResult:
        if target_ratio <= 0:
            raise InvalidConfiguration("target ratio must be > 0")
        lo, hi = (
            domain if domain is not None else self.compressor.config_domain(data)
        )
        if lo >= hi:
            raise SearchError("empty search domain")
        log_space = self.search_scale == "log"
        if log_space and lo <= 0:
            raise SearchError("log-scale search requires a positive domain")

        def to_axis(c: float) -> float:
            return float(np.log10(c)) if log_space else float(c)

        def from_axis(x: float) -> float:
            return float(10.0**x) if log_space else float(x)

        evaluations: list[tuple[float, float]] = []
        eval_seconds: list[float] = []
        # Sorted probe record: the duplicate-probe check bisects this
        # instead of scanning every prior evaluation (O(log n) vs the
        # old O(n) scan per bisection step), and its keys are the same
        # normalized configs the memo cache uses.
        probed_configs: list[float] = []
        memo = self.memo
        fingerprint = memo.fingerprint(data) if memo is not None else None
        prefetched: dict[float, tuple[float, float]] = {}
        # One stream per search: every real probe compresses the same
        # array, so the kernel arena sized by the first run is reused by
        # all later bisection probes.
        stream = self.compressor.compress_stream()

        def already_probed(config: float) -> bool:
            at = bisect.bisect_left(probed_configs, config)
            for neighbor in probed_configs[max(at - 1, 0) : at + 1]:
                if abs(config - neighbor) < 1e-15:
                    return True
            return False

        def measure(config: float) -> tuple[float, float, str]:
            """(ratio, seconds, source) for a normalized config — the
            cheapest source wins: harness cache, executor prefetch,
            cross-path memo, then a real compressor run."""
            if cache is not None and config in cache:
                ratio, seconds = cache[config]
                return ratio, seconds, "cache"
            if config in prefetched:
                ratio, seconds = prefetched[config]
                return ratio, seconds, "prefetch"
            if memo is not None:
                record = memo.get(memo.key(fingerprint, self.compressor, config))
                if record is not None:
                    return record.ratio, record.seconds, "memo"
            tick = time.perf_counter()
            ratio = stream.compress(data, config).compression_ratio
            seconds = time.perf_counter() - tick
            if memo is not None:
                from repro.parallel.memo import MemoRecord

                memo.put(
                    memo.key(fingerprint, self.compressor, config),
                    MemoRecord(ratio=ratio, seconds=seconds),
                )
            return ratio, seconds, "run"

        def evaluate(config: float) -> float:
            config = self.compressor.normalize_config(config)
            with obs.span("fraz.probe", eb=config) as span:
                ratio, seconds, source = measure(config)
                span.set_attributes(
                    ratio=ratio, source=source, memo_hit=source != "run"
                )
            sources[source] = sources.get(source, 0) + 1
            if cache is not None:
                cache[config] = (ratio, seconds)
            evaluations.append((config, ratio))
            eval_seconds.append(seconds)
            bisect.insort(probed_configs, config)
            return ratio

        # Split the budget evenly across bins (early bins absorb the
        # remainder), mirroring the paper's per-bin max-iterations.
        base = self.max_iterations // self.n_bins
        remainder = self.max_iterations % self.n_bins
        budgets = [
            base + (1 if i < remainder else 0) for i in range(self.n_bins)
        ]
        edges = np.linspace(to_axis(lo), to_axis(hi), self.n_bins + 1)

        self._prefetch_edges(
            data, edges, budgets, from_axis, cache, prefetched, fingerprint
        )

        for i, budget in enumerate(budgets):
            if budget < 1:
                continue
            spent_before = len(evaluations)
            left_axis, right_axis = float(edges[i]), float(edges[i + 1])
            left_ratio = evaluate(from_axis(left_axis))
            if len(evaluations) - spent_before >= budget:
                continue
            right_ratio = evaluate(from_axis(right_axis))
            # Ratio direction along the axis differs by compressor
            # family (error bounds: up; precisions: down); infer it
            # from the edge probes like a config-agnostic tool must.
            increasing = right_ratio >= left_ratio
            # Bisect within the bin towards the target.
            while len(evaluations) - spent_before < budget:
                if right_axis - left_axis < 1e-12:
                    break
                mid_axis = 0.5 * (left_axis + right_axis)
                mid_config = self.compressor.normalize_config(from_axis(mid_axis))
                if already_probed(mid_config):
                    break  # precision compressors: integer grid exhausted
                mid_ratio = evaluate(mid_config)
                if (mid_ratio < target_ratio) == increasing:
                    left_axis, left_ratio = mid_axis, mid_ratio
                else:
                    right_axis, right_ratio = mid_axis, mid_ratio

        if not evaluations:
            raise SearchError("iteration budget too small to evaluate anything")
        return self._result(evaluations, eval_seconds, target_ratio)

    def _prefetch_edges(
        self,
        data: np.ndarray,
        edges: np.ndarray,
        budgets: list[int],
        from_axis,
        cache: dict | None,
        prefetched: dict[float, tuple[float, float]],
        fingerprint: str | None,
    ) -> None:
        """Concurrently evaluate the window edges the serial loop will open.

        Every bin with budget probes its left edge, and its right edge
        when at least two evaluations fit — a schedule known before the
        search starts. Those probes are independent full compressions
        (the dominant cost at small budgets: 6 iterations over 3 bins
        spend all but one run on edges), so they are fanned over the
        executor and parked in ``prefetched`` for ``evaluate`` to
        consume in the original serial order.
        """
        if self.executor is None:
            return
        pending: list[float] = []
        seen: set[float] = set()
        for i, budget in enumerate(budgets):
            if budget < 1:
                continue
            edge_configs = [from_axis(float(edges[i]))]
            if budget >= 2:
                edge_configs.append(from_axis(float(edges[i + 1])))
            for config in edge_configs:
                config = self.compressor.normalize_config(config)
                if config in seen:
                    continue
                seen.add(config)
                if cache is not None and config in cache:
                    continue
                if self.memo is not None and (
                    self.memo.peek(
                        self.memo.key(fingerprint, self.compressor, config)
                    )
                    is not None
                ):
                    continue
                pending.append(config)
        if len(pending) < 2:
            return  # nothing to overlap
        # Fat-task dispatch: at most one batch per worker, each batch a
        # single pool task running its probes over one stream.
        n_batches = max(1, min(self.executor.n_jobs, len(pending)))
        bounds = np.linspace(0, len(pending), n_batches + 1).astype(int)
        groups = [
            pending[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo
        ]
        grouped = self.executor.map(
            _probe_batch,
            groups,
            shared={"data": np.asarray(data)},
            context=self.compressor,
        )
        results = [result for group in grouped for result in group]
        for config, (ratio, seconds) in zip(pending, results):
            prefetched[config] = (ratio, seconds)
            if self.memo is not None:
                from repro.parallel.memo import MemoRecord

                self.memo.put(
                    self.memo.key(fingerprint, self.compressor, config),
                    MemoRecord(ratio=ratio, seconds=seconds),
                )

    @staticmethod
    def _result(
        evaluations: list[tuple[float, float]],
        eval_seconds: list[float],
        target_ratio: float,
    ) -> FRaZResult:
        best_config, best_ratio = min(
            evaluations, key=lambda e: abs(e[1] - target_ratio)
        )
        return FRaZResult(
            config=best_config,
            measured_ratio=best_ratio,
            target_ratio=float(target_ratio),
            iterations=len(evaluations),
            search_seconds=float(sum(eval_seconds)),
            evaluations=evaluations,
            eval_seconds=eval_seconds,
        )
