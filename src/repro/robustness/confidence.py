"""Confidence scoring for model-tier predictions.

Two independent signals, multiplied into one score in [0, 1]:

* **Ensemble spread** — the per-tree variance of the random forest.
  Trees that agree have all seen the queried region during training;
  trees that disagree are extrapolating ("Black-Box Statistical
  Prediction of Lossy Compression Ratios", Underwood et al., 2023,
  motivates attaching exactly this kind of signal to ratio predictions).
* **Feature envelope** — an axis-aligned bounding box over the training
  rows (five features + adjusted ratio). Queries outside the box force
  the forest to extrapolate past its leaves, where its piecewise-
  constant answer is frozen at the boundary value.

Both signals degrade smoothly (exponentials of a normalized violation)
rather than flipping a hard bit, so callers can pick their own
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidConfiguration

#: Ensemble spread (in model-target units) that halves the spread score.
_SPREAD_SCALE = 0.5


@dataclass(frozen=True)
class ConfidenceReport:
    """Breakdown of one confidence evaluation.

    Attributes:
        score: combined confidence in [0, 1].
        spread_score: per-tree agreement component.
        envelope_score: in-distribution component.
        tree_std: raw standard deviation of the per-tree predictions
            (NaN when the model exposes no ensemble).
        envelope_violation: worst per-dimension distance outside the
            training envelope, in units of that dimension's span
            (0 when inside, infinite for a non-finite query).
    """

    score: float
    spread_score: float
    envelope_score: float
    tree_std: float
    envelope_violation: float


class FeatureEnvelope:
    """Axis-aligned training-feature envelope with a soft margin.

    Args:
        rows: training input rows, shape ``(n, d)``.
        margin: fractional span expansion on each side; queries within
            the margin are still considered in-distribution.
    """

    def __init__(self, rows: np.ndarray, margin: float = 0.05) -> None:
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise InvalidConfiguration("envelope needs a (n, d) row matrix")
        if margin < 0:
            raise InvalidConfiguration("margin must be >= 0")
        lo = rows.min(axis=0)
        hi = rows.max(axis=0)
        # Degenerate dimensions (a single training dataset) get a span
        # floor proportional to their magnitude so any nearby query
        # still counts as inside.
        span = np.maximum(hi - lo, 1e-9 * np.maximum(np.abs(lo), 1.0))
        self.lo = lo - margin * span
        self.hi = hi + margin * span
        self.span = span

    def violation(self, row: np.ndarray) -> float:
        """Worst per-dimension overshoot, in span units (0 = inside)."""
        row = np.asarray(row, dtype=np.float64).ravel()
        if row.size != self.lo.size:
            raise InvalidConfiguration(
                f"query has {row.size} dims, envelope has {self.lo.size}"
            )
        if not np.isfinite(row).all():
            # NaN compares false against both bounds; count any
            # non-finite coordinate as infinitely far outside instead.
            return math.inf
        below = (self.lo - row) / self.span
        above = (row - self.hi) / self.span
        worst = float(np.max(np.maximum(below, above)))
        return max(worst, 0.0)

    def contains(self, row: np.ndarray) -> bool:
        return self.violation(row) == 0.0


def ensemble_spread(model, row: np.ndarray) -> float:
    """Std of the per-tree predictions; NaN when there is no ensemble.

    All trees answer in one packed pass through the model's
    ``tree_predictions`` (the random forest); a model without it has no
    ensemble to spread.
    """
    tree_predictions = getattr(model, "tree_predictions", None)
    if tree_predictions is None:
        return float("nan")
    row = np.atleast_2d(np.asarray(row, dtype=np.float64))[:1]
    # A contiguous copy of the row's column: ``std`` then reduces it
    # exactly as it reduces a 1-D array built tree by tree.
    preds = np.ascontiguousarray(tree_predictions(row)[:, 0])
    return float(preds.std())


def score_confidence(
    model,
    envelope: FeatureEnvelope,
    row: np.ndarray,
    spread_scale: float = _SPREAD_SCALE,
) -> ConfidenceReport:
    """Combine ensemble spread and envelope distance into one score."""
    std = ensemble_spread(model, row)
    if np.isnan(std):
        # No ensemble to interrogate: stay neutral and let the envelope
        # (and the caller's validation) carry the decision.
        spread_score = 1.0
    else:
        spread_score = float(np.exp(-std / spread_scale * np.log(2.0)))
    violation = envelope.violation(row)
    envelope_score = float(np.exp(-4.0 * violation))
    return ConfidenceReport(
        score=spread_score * envelope_score,
        spread_score=spread_score,
        envelope_score=envelope_score,
        tree_std=std,
        envelope_violation=violation,
    )
