"""Cross-path compression memo: never run an identical compression twice.

Augmentation sweeps, FRaZ searches, PSNR probes and the benchmark
suite all run ``compressor.compress(data, config)`` — and
routinely at the *same* ``(data, compressor, config)`` triple: FRaZ
re-probes bin edges across targets, benches sweep the same fields the
training pass already swept, repeated searches on one snapshot overlap
heavily. :class:`CompressionMemoCache` memoizes those outcomes under a
content-addressed key, so every caller that opts in shares one pool of
already-paid compressor runs.

Keys are ``(dataset fingerprint, compressor cache token, normalized
config)``:

* the fingerprint content-hashes the full array
  (:func:`repro.compressors.base.content_fingerprint`) — compression
  ratios depend on every point, so unlike the serving layer's sampled
  fingerprint this one must cover the whole field;
* the cache token (:meth:`Compressor.cache_token`) folds in option
  state (SZ's interpolation, ZFP's mode), so two differently-configured
  instances of the same compressor never alias;
* configs are normalized before keying, so the float the compressor
  would actually use is the float that is compared.

Thread-safety: all mutation happens under one lock, so threads (the
serving workers) can share an instance directly. Process pools cannot
share the dict itself, so ratio probes go through
:func:`measure_ratios`, the one place that keys the memo for them: it
answers hits in the caller, fans only the misses over the executor
(one compression stream per worker batch), and puts every fresh run
back. Recorded seconds
travel with each record so memo hits can stay honest about the
compressor time they represent. The PSNR probe search
(:func:`repro.core.psnr_control.probe_search`) keys the memo itself,
since it measures a roundtrip rather than a ratio.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from repro.compressors.base import Compressor, content_fingerprint
from repro.errors import InvalidConfiguration

#: Memo key: (dataset fingerprint, compressor cache token, normalized config).
MemoKey = tuple[str, str, float]


@dataclass(frozen=True)
class MemoRecord:
    """One memoized compression outcome.

    Attributes:
        ratio: measured compression ratio.
        seconds: compressor wall time of the original run (what a memo
            hit "costs" in modeled-compressor-time accounting).
        psnr: reconstruction PSNR in dB, when the PSNR probe search
            (``probe_search``) measured it; ``None`` for ratio-only
            entries.
    """

    ratio: float
    seconds: float
    psnr: float | None = None


class CompressionMemoCache:
    """LRU memo of compression outcomes, shared across execution paths.

    Args:
        max_entries: LRU capacity. Each entry is a few floats; the
            default comfortably covers a full benchmark session.
    """

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries < 1:
            raise InvalidConfiguration("memo needs at least one entry")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[MemoKey, MemoRecord] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- stats ----------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions

    @property
    def hit_ratio(self) -> float:
        total = self._hits + self._misses
        return self._hits / total if total else 0.0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict[str, float]:
        """A snapshot of the counters (for benches and service metrics)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_ratio": self.hit_ratio,
            }

    def register_metrics(self, registry, subsystem: str = "memo") -> None:
        """Expose the counters as ``repro_<subsystem>_*`` gauges.

        Pull-model (see :func:`repro.obs.bind_cache_gauges`): the
        gauges refresh when the registry exports, so ``get``/``put``
        stay untouched.
        """
        from repro.obs import bind_cache_gauges

        bind_cache_gauges(registry, subsystem, self)

    # -- keying ---------------------------------------------------------------

    @staticmethod
    def fingerprint(data: np.ndarray) -> str:
        """Content-fingerprint ``data`` for memo keying (full contents)."""
        return content_fingerprint(data)

    @staticmethod
    def key(
        fingerprint: str, compressor: Compressor, config: float
    ) -> MemoKey:
        """The memo key for one (dataset, compressor, config) triple."""
        return (
            fingerprint,
            compressor.cache_token(),
            float(compressor.normalize_config(config)),
        )

    # -- core dict operations -------------------------------------------------

    def get(self, key: MemoKey) -> MemoRecord | None:
        """The record under ``key``, counting a hit/miss; None if absent."""
        with self._lock:
            record = self._entries.get(key)
            if record is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return record

    def peek(self, key: MemoKey) -> MemoRecord | None:
        """Like :meth:`get` but without touching counters or LRU order."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: MemoKey, record: MemoRecord) -> None:
        """Store ``record``; an existing entry is only ever *enriched*.

        A ratio-only record never overwrites one that also carries a
        PSNR measurement — quality information is strictly additive.
        """
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None and record.psnr is None:
                record = replace(record, psnr=existing.psnr)
            self._entries[key] = record
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self._evictions += 1

    def __getstate__(self) -> dict:
        # Locks don't pickle; a cache shipped to a process worker (e.g.
        # inside a pipeline) becomes an independent warm snapshot there,
        # which is exactly what a read-mostly worker wants.
        with self._lock:
            return {
                "max_entries": self.max_entries,
                "entries": list(self._entries.items()),
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    def __setstate__(self, state: dict) -> None:
        self.max_entries = state["max_entries"]
        self._entries = OrderedDict(state["entries"])
        self._lock = threading.Lock()
        self._hits = state["hits"]
        self._misses = state["misses"]
        self._evictions = state["evictions"]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


def _ratio_batch(configs: list, arrays: dict, compressor: Compressor):
    """Executor batch worker: one compression stream across ``configs``."""
    return _run_ratios(compressor.compress_stream(), arrays["data"], configs)


def _run_ratios(stream, data: np.ndarray, configs: list) -> list:
    """``[(ratio, seconds), ...]`` for ``configs``, compressed on ``stream``."""
    results = []
    for config in configs:
        tick = perf_counter()
        ratio = stream.compress(data, config).compression_ratio
        results.append((ratio, perf_counter() - tick))
    return results


def measure_ratios(
    compressor: Compressor,
    data: np.ndarray,
    configs,
    *,
    memo: CompressionMemoCache | None = None,
    executor=None,
    fingerprint: str | None = None,
    stream=None,
) -> list[tuple[float, float, bool]]:
    """``[(ratio, seconds, hit), ...]`` for ``configs``, in config order.

    The one probe path for compression ratios (the augmentation sweep
    and FRaZ both measure through it):

    * memo hits are answered first and charge their recorded seconds;
    * misses go to ``executor.map_batched`` when an executor is given
      (the field ships to process workers once, and each worker batch
      runs on one compression stream), else inline on ``stream`` — or
      on a fresh stream, so one call's probes share one arena;
    * every fresh run is ``put`` in the memo.

    ``fingerprint`` is the precomputed content hash of ``data``;
    callers probing one array many times pass it to hash once.
    """
    configs = [float(config) for config in configs]
    results: list = [None] * len(configs)
    pending: list[int] = []
    keys: dict[int, MemoKey] = {}
    if memo is not None and fingerprint is None:
        fingerprint = memo.fingerprint(data)
    for i, config in enumerate(configs):
        if memo is not None:
            keys[i] = memo.key(fingerprint, compressor, config)
            record = memo.get(keys[i])
            if record is not None:
                results[i] = (record.ratio, record.seconds, True)
                continue
        pending.append(i)
    if not pending:
        return results
    misses = [configs[i] for i in pending]
    if executor is not None:
        fresh = executor.map_batched(
            _ratio_batch,
            misses,
            shared={"data": np.asarray(data)},
            context=compressor,
        )
    else:
        if stream is None:
            stream = compressor.compress_stream()
        fresh = _run_ratios(stream, data, misses)
    for i, (ratio, seconds) in zip(pending, fresh):
        results[i] = (ratio, seconds, False)
        if memo is not None:
            memo.put(keys[i], MemoRecord(ratio=ratio, seconds=seconds))
    return results
