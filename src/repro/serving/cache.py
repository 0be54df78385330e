"""Dataset fingerprinting and the per-dataset analysis cache.

FXRZ inference splits cleanly into a per-dataset half (sampled feature
extraction + constant-block classification — the expensive part) and a
per-target half (one model query — microseconds). Serving many targets
against the same snapshot therefore wants the analysis computed once
and reused, which is exactly what :class:`FeatureCache` provides:

* :func:`dataset_fingerprint` content-hashes the dataset's *sampled
  view* (the stride-K lattice the features are computed on) together
  with its full shape/dtype — cheap even for large fields, since only
  ~stride^-d of the points are touched;
* :class:`FeatureCache` maps fingerprint -> analysis with LRU eviction,
  hit/miss counters, and in-flight deduplication: concurrent requests
  for the same uncached dataset trigger exactly one analysis, with the
  latecomers blocking on the first worker's future.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from concurrent.futures import Future
from typing import Callable

import numpy as np

from repro.core.features import uniform_sample
from repro.errors import InvalidConfiguration


def dataset_fingerprint(data: np.ndarray, stride: int = 1) -> str:
    """Content-hash the stride-K sampled view of ``data``.

    Two arrays with identical sampled lattices (and identical full
    shape/dtype) share a fingerprint; anything that would change the
    extracted features changes the hash. The full shape and dtype are
    folded in so a sub-sampled copy of a dataset never aliases its
    parent.
    """
    array = np.asarray(data)
    if array.size == 0:
        raise InvalidConfiguration("cannot fingerprint an empty dataset")
    # Cast only the sampled lattice: the bytes equal those of sampling a
    # float64 copy of the whole field.
    sampled = np.ascontiguousarray(
        uniform_sample(array, stride), dtype=np.float64
    )
    digest = hashlib.blake2b(digest_size=8)
    meta = f"{array.shape}|{array.dtype.str}|{stride}".encode("ascii")
    digest.update(meta)
    digest.update(sampled.tobytes())
    return digest.hexdigest()


class FeatureCache:
    """LRU cache of per-dataset analyses, safe for concurrent workers.

    Values are whatever the owning engine's ``analyze`` returns (a
    :class:`~repro.core.inference.DatasetAnalysis`, carrying the
    validation report when the engine validates); the cache never
    inspects them.

    Args:
        max_entries: LRU capacity; the least recently used analysis is
            dropped past this (waiters already holding its future still
            receive the value).
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise InvalidConfiguration("cache needs at least one entry")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[str, Future] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_compute(
        self, key: str, factory: Callable[[], object]
    ) -> tuple[object, bool]:
        """``(analysis, hit)`` under ``key``, computing on first use.

        A concurrent miss on the same key runs ``factory`` exactly once;
        every other caller blocks on the in-flight future (and counts as
        a hit — it did not pay for the computation). A factory that
        raises propagates to all waiters and leaves the key uncached, so
        a later request retries.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                owner = False
            else:
                entry = Future()
                self._entries[key] = entry
                self._misses += 1
                owner = True
                while len(self._entries) > self.max_entries:
                    # The just-inserted key is the newest, so the popped
                    # head is always some other entry.
                    self._entries.popitem(last=False)
                    self._evictions += 1
        if not owner:
            return entry.result(), True
        try:
            value = factory()
        except BaseException as exc:
            entry.set_exception(exc)
            with self._lock:
                if self._entries.get(key) is entry:
                    del self._entries[key]
            raise
        entry.set_result(value)
        return value, False

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
