"""Cross-path compression memo: never run an identical compression twice.

Augmentation sweeps, FRaZ searches, PSNR calibration and the benchmark
suite all invoke ``compressor.compression_ratio(data, config)`` — and
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

Thread-safety: all mutation happens under one lock, so thread-pool
workers can share an instance directly. Process pools cannot share the
dict itself; the supported pattern (used by ``build_curve`` and FRaZ)
is *lookup-before-submit, merge-after*: the parent resolves hits, ships
only misses to workers, and merges their ``(key, record)`` results back
with :meth:`merge`. Recorded seconds travel with each record so memo
hits can stay honest about the compressor time they represent.
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
        psnr: reconstruction PSNR in dB, when a quality-targeting caller
            (``calibrated_bound_for_psnr``) measured it; ``None`` for
            ratio-only entries.
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

    def merge(self, items: dict[MemoKey, MemoRecord]) -> None:
        """Bulk-insert worker-computed records (process-pool pattern)."""
        for key, record in items.items():
            self.put(key, record)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # -- convenience ----------------------------------------------------------

    def ratio(
        self,
        compressor: Compressor,
        data: np.ndarray,
        config: float,
        fingerprint: str | None = None,
    ) -> tuple[float, float, bool]:
        """``(ratio, seconds, hit)`` for one compression, memoized.

        ``fingerprint`` lets callers that sweep many configs over one
        array pay the content hash once instead of per call.
        """
        if fingerprint is None:
            fingerprint = self.fingerprint(data)
        key = self.key(fingerprint, compressor, config)
        record = self.get(key)
        if record is not None:
            return record.ratio, record.seconds, True
        tick = perf_counter()
        measured = compressor.compression_ratio(data, config)
        seconds = perf_counter() - tick
        self.put(key, MemoRecord(ratio=measured, seconds=seconds))
        return measured, seconds, False
