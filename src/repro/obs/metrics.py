"""Process-wide metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` unifies the ad-hoc counters that grew up
around the pipeline — the serving recorder's tallies, the feature and
compression-memo cache hit/miss counts, FRaZ probe counts, guarded
fallback-tier tallies — behind a single namespaced API. Metric names
follow ``repro_<subsystem>_<name>`` (validated), series within one
metric are distinguished by labels, and cache-style sources that
already keep their own counters plug in via pull-model *collectors*
(:meth:`MetricsRegistry.register_collector`, :func:`bind_cache_gauges`)
so hot paths never pay for mirroring.

Exporters: :meth:`MetricsRegistry.render_prometheus` writes the
text-exposition format; :meth:`MetricsRegistry.to_dict` a JSON-friendly
snapshot. :func:`bucket_interpolate` reads a histogram's distribution
back (quantiles, counts under a threshold).
"""

from __future__ import annotations

import bisect
import re
import threading
from typing import Callable

from repro.errors import InvalidConfiguration

#: Enforced metric-name shape: ``repro_<subsystem>_<name>``, lowercase.
_NAME_RE = re.compile(r"^repro(_[a-z0-9]+)+$")

#: Default histogram buckets, in seconds: a 1-2.5-5 grid from 100 us to
#: 100 s, the range of one feature extraction up to a full FRaZ search.
#: Adjacent bounds sit at most 2.5x apart, which caps the error of any
#: percentile read back through :func:`bucket_interpolate`.
DEFAULT_BUCKETS = (
    1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise InvalidConfiguration(
            f"metric name {name!r} must match repro_<subsystem>_<name> "
            "(lowercase letters, digits and underscores)"
        )
    return name


def _label_key(labels: dict) -> tuple:
    """Canonical hashable form of a label set."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


#: Prometheus text-exposition escapes for label *values*: backslash
#: first (so escapes don't double), then quote and newline.
_LABEL_ESCAPES = str.maketrans(
    {"\\": "\\\\", '"': '\\"', "\n": "\\n"}
)

#: Escapes for ``# HELP`` text: backslash and newline only (quotes are
#: legal in help text).
_HELP_ESCAPES = str.maketrans({"\\": "\\\\", "\n": "\\n"})


def _label_suffix(key: tuple) -> str:
    """The ``{k="v",...}`` rendering of a canonical label key.

    Label values are escaped per the Prometheus text exposition format
    (backslash, double quote and newline), so a hostile dataset id like
    ``he said "hi"\\n`` cannot corrupt the scrape output.
    """
    if not key:
        return ""
    return (
        "{"
        + ",".join(
            f'{k}="{v.translate(_LABEL_ESCAPES)}"' for k, v in key
        )
        + "}"
    )


class _Metric:
    """Shared shell: name, help text, per-label-set series under a lock."""

    kind = ""

    def __init__(self, name: str, help: str, lock: threading.Lock) -> None:
        self.name = name
        self.help = help
        self._lock = lock
        self._series: dict = {}

    def labels(self) -> list:
        """The canonical label keys of every live series."""
        with self._lock:
            return sorted(self._series)


class _BoundCounter:
    """A counter series with its label key pre-resolved.

    Hot paths that hit the same series on every event (the serving
    recorder's per-request writes) bind once and skip the label-key
    sort/str work per increment.
    """

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: "Counter", key: tuple) -> None:
        self._metric = metric
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise InvalidConfiguration(
                f"counter {self._metric.name} cannot decrease "
                f"(inc by {amount})"
            )
        metric, key = self._metric, self._key
        with metric._lock:
            metric._series[key] = metric._series.get(key, 0.0) + amount

    def value(self) -> float:
        with self._metric._lock:
            return self._metric._series.get(self._key, 0.0)


class Counter(_Metric):
    """A monotonically increasing sum per label set."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise InvalidConfiguration(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(amount)

    def bind(self, **labels) -> _BoundCounter:
        """A pre-resolved handle for one label set (see :class:`_BoundCounter`)."""
        return _BoundCounter(self, _label_key(labels))

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)


class Gauge(_Metric):
    """A point-in-time value per label set (last write wins)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def value(self, **labels) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)


class Histogram(_Metric):
    """Fixed-bucket cumulative histogram with sum and count per series."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.Lock,
        buckets=DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, lock)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise InvalidConfiguration(
                f"histogram {name} buckets must be non-empty and "
                f"strictly ascending, got {buckets!r}"
            )
        self.buckets = bounds

    def observe(self, value: float, **labels) -> None:
        self._observe(float(value), _label_key(labels))

    def _observe(self, value: float, key: tuple) -> None:
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = {
                    "counts": [0] * len(self.buckets),
                    "sum": 0.0,
                    "count": 0,
                }
                self._series[key] = series
            index = bisect.bisect_left(self.buckets, value)
            if index < len(self.buckets):
                series["counts"][index] += 1
            series["sum"] += value
            series["count"] += 1

    def bind(self, **labels) -> "_BoundHistogram":
        """A pre-resolved handle for one label set (cf. :meth:`Counter.bind`)."""
        return _BoundHistogram(self, _label_key(labels))

    def snapshot(self, **labels) -> dict:
        """``{"counts": [...], "sum": s, "count": n}`` for one series."""
        return self._snapshot(_label_key(labels))

    def _snapshot(self, key: tuple) -> dict:
        with self._lock:
            series = self._series.get(key)
            if series is None:
                return {"counts": [0] * len(self.buckets), "sum": 0.0, "count": 0}
            return {
                "counts": list(series["counts"]),
                "sum": series["sum"],
                "count": series["count"],
            }


def bucket_interpolate(bounds, counts, *, value=None, rank=None) -> float:
    """Read a bucketed histogram's distribution in either direction.

    The observations in each bucket are taken as spread evenly between
    its lower edge (the previous bound, 0 for the first) and its upper
    bound, which makes the cumulative count piecewise linear. Pass
    exactly one of:

    * ``value`` -- returns how many observations lie at or below it
      (the latency SLO's "good" count for a threshold);
    * ``rank`` -- returns the smallest value with ``rank`` observations
      at or below it (``rank = q * count`` gives the ``q`` quantile).

    ``counts`` are per bucket, not cumulative, and exclude observations
    above the last bound (a histogram counts those only in its total):
    a ``rank`` past the bucketed total reads as the last bound.
    """
    if (value is None) == (rank is None):
        raise TypeError("bucket_interpolate needs exactly one of value/rank")
    lower, seen = 0.0, 0.0
    for bound, count in zip(bounds, counts):
        if value is not None and value < bound:
            return seen + count * max(value - lower, 0.0) / (bound - lower)
        if rank is not None and count and seen + count >= rank:
            return lower + (bound - lower) * (rank - seen) / count
        lower, seen = bound, seen + count
    return seen if value is not None else lower


class _BoundHistogram:
    """A histogram series with its label key pre-resolved."""

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: Histogram, key: tuple) -> None:
        self._metric = metric
        self._key = key

    @property
    def buckets(self) -> tuple:
        return self._metric.buckets

    def observe(self, value: float) -> None:
        self._metric._observe(float(value), self._key)

    def snapshot(self) -> dict:
        return self._metric._snapshot(self._key)


class MetricsRegistry:
    """Get-or-create home for every metric of one process.

    ``counter``/``gauge``/``histogram`` return the existing metric when
    the name is already registered — asking for the same name with a
    different kind (or different histogram buckets) raises, because two
    subsystems silently sharing a misdeclared metric is the exact bug a
    registry exists to prevent.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}
        self._collectors: list = []

    def _get_or_create(self, name, cls, help, factory):
        _check_name(name)
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or type(existing) is not cls:
                    raise InvalidConfiguration(
                        f"metric {name} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = factory()
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(
            name, Counter, help, lambda: Counter(name, help, self._lock)
        )

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(
            name, Gauge, help, lambda: Gauge(name, help, self._lock)
        )

    def histogram(
        self, name: str, help: str = "", buckets=DEFAULT_BUCKETS
    ) -> Histogram:
        metric = self._get_or_create(
            name,
            Histogram,
            help,
            lambda: Histogram(name, help, self._lock, buckets=buckets),
        )
        if metric.buckets != tuple(float(b) for b in buckets):
            raise InvalidConfiguration(
                f"histogram {name} already registered with buckets "
                f"{metric.buckets}, not {tuple(buckets)}"
            )
        return metric

    def register_collector(self, collect) -> Callable[[], None]:
        """Add a zero-arg callable run before every export.

        Collectors pull values out of sources that keep their own state
        (caches, pools) and write them into gauges — the source's hot
        path stays untouched. Returns a zero-arg callable that removes
        the collector again (a no-op once removed), so a source that
        closes before the registry does not stay reachable from it.
        """
        with self._lock:
            self._collectors.append(collect)

        def remove() -> None:
            with self._lock:
                if collect in self._collectors:
                    self._collectors.remove(collect)

        return remove

    def collect(self) -> None:
        """Run every registered collector (refresh pull-model gauges)."""
        with self._lock:
            collectors = list(self._collectors)
        for collect in collectors:
            collect()

    def get(self, name: str) -> "_Metric | None":
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> list:
        with self._lock:
            return [self._metrics[name] for name in sorted(self._metrics)]

    def to_dict(self) -> dict:
        """JSON-friendly snapshot of every metric (collectors refreshed)."""
        self.collect()
        out = {}
        for metric in self.metrics():
            if isinstance(metric, Histogram):
                series = {
                    _label_suffix(key) or "": metric.snapshot(**dict(key))
                    for key in metric.labels()
                }
                out[metric.name] = {
                    "kind": metric.kind,
                    "buckets": list(metric.buckets),
                    "series": series,
                }
            else:
                series = {
                    _label_suffix(key) or "": metric.value(**dict(key))
                    for key in metric.labels()
                }
                out[metric.name] = {"kind": metric.kind, "series": series}
        return out

    def render_prometheus(self) -> str:
        """Text exposition: ``# HELP``/``# TYPE`` headers + one line per
        series (histograms expand to ``_bucket{le=}``/``_sum``/``_count``)."""
        self.collect()
        lines = []
        for metric in self.metrics():
            if metric.help:
                lines.append(
                    f"# HELP {metric.name} "
                    f"{metric.help.translate(_HELP_ESCAPES)}"
                )
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            if isinstance(metric, Histogram):
                for key in metric.labels():
                    snap = metric.snapshot(**dict(key))
                    cumulative = 0
                    for bound, count in zip(metric.buckets, snap["counts"]):
                        cumulative += count
                        bucket_key = key + (("le", f"{bound:g}"),)
                        lines.append(
                            f"{metric.name}_bucket"
                            f"{_label_suffix(bucket_key)} {cumulative}"
                        )
                    inf_key = key + (("le", "+Inf"),)
                    lines.append(
                        f"{metric.name}_bucket{_label_suffix(inf_key)} "
                        f"{snap['count']}"
                    )
                    lines.append(
                        f"{metric.name}_sum{_label_suffix(key)} "
                        f"{snap['sum']:.9g}"
                    )
                    lines.append(
                        f"{metric.name}_count{_label_suffix(key)} "
                        f"{snap['count']}"
                    )
            else:
                keys = metric.labels() or [()]
                for key in keys:
                    value = metric.value(**dict(key))
                    lines.append(
                        f"{metric.name}{_label_suffix(key)} {value:.9g}"
                    )
        return "\n".join(lines) + "\n"


def bind_cache_gauges(
    registry: MetricsRegistry, subsystem: str, cache
) -> Callable[[], None]:
    """Expose a cache's hit/miss/eviction counters as registry gauges.

    Works for any object with ``hits``/``misses``/``evictions``
    attributes and ``len()`` (both :class:`repro.serving.FeatureCache`
    and :class:`repro.parallel.CompressionMemoCache`). Pull-model: the
    gauges refresh at export time via a collector, so the cache's hot
    path is untouched. Returns a zero-arg callable that refreshes the
    gauges one last time and removes the collector; call it when the
    cache is done with, or the registry keeps the cache alive.
    """
    hits = registry.gauge(
        f"repro_{subsystem}_hits", f"{subsystem} cache hits"
    )
    misses = registry.gauge(
        f"repro_{subsystem}_misses", f"{subsystem} cache misses"
    )
    evictions = registry.gauge(
        f"repro_{subsystem}_evictions", f"{subsystem} cache evictions"
    )
    entries = registry.gauge(
        f"repro_{subsystem}_entries", f"{subsystem} cached entries"
    )

    def collect() -> None:
        hits.set(cache.hits)
        misses.set(cache.misses)
        evictions.set(cache.evictions)
        entries.set(len(cache))

    remove = registry.register_collector(collect)

    def unbind() -> None:
        collect()
        remove()

    return unbind
