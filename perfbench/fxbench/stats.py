"""Latency statistics and seeded target draws."""

from __future__ import annotations

import math

import numpy as np

#: Percentiles ``norm_tail_ms`` may report, highest first.
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond the reported tail percentile.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` distinct samples lie above their ``q``-th percentile."""
    # np.percentile interpolates between order statistics at position
    # (n - 1) * q / 100, so every sample past that position is beyond.
    return n - 1 - math.floor((n - 1) * q / 100.0)


def tail_percentile(n: int, ceiling: float = 99.0) -> float:
    """The highest candidate percentile <= ``ceiling`` with enough samples past it.

    Falls back to the median when even it has fewer than
    :data:`MIN_BEYOND` samples beyond (tiny smoke runs only).
    """
    for q in TAIL_CANDIDATES:
        if q <= ceiling and samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return TAIL_CANDIDATES[-1]


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


#: Consecutive slices of a window whose statistics are medianed.
CHUNKS = 5


def chunk_median(values, statistic, chunks: int = CHUNKS) -> float:
    """Median over ``chunks`` consecutive slices of ``statistic(slice)``.

    A host slow-down that covers less than half of the window moves at
    most the slices it covers, so it leaves the median where it was.
    """
    values = np.asarray(values, dtype=np.float64)
    parts = np.array_split(values, max(1, min(chunks, len(values))))
    return float(np.median([statistic(part) for part in parts]))


def stratified_log_targets(
    lo: float, hi: float, count: int, rng: np.random.Generator | None
) -> list[float]:
    """``count`` targets, one per equal slice of [lo, hi] in log space.

    One seeded draw per stratum keeps every run's targets spread over the
    whole band, so medians over them move little from seed to seed;
    without ``rng`` each target sits at its stratum's centre.
    """
    offsets = rng.random(count) if rng is not None else np.full(count, 0.5)
    edges = (np.arange(count) + offsets) / count
    return [float(x) for x in np.exp(np.log(lo) + edges * np.log(hi / lo))]
