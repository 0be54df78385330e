"""Model lifecycle: serve -> observe -> retrain -> promote.

The paper trains per-corpus ratio models offline and serves them
frozen; serving traffic, however, is free training data — every
compress call and FRaZ fallback yields a (features, predicted config,
*measured* CR) outcome. This package closes the loop between the
serving path and the :class:`~repro.serving.ModelRegistry`:

* :class:`OutcomeLog` — an append-only, crash-safe JSONL log of
  serving outcomes (estimate-only and measured), with rotation and a
  torn-line-tolerant replay reader;
* :func:`retrain` — fits candidate models from the original training
  matrix plus measured outcomes (in worker processes when the session
  has them) and publishes the best one unpromoted;
* :func:`evaluate_canary` — replay a held-out slice of the outcome
  log through incumbent and candidate; the registry alias flips only
  when the candidate's median relative CR error beats the incumbent's.

See ``docs/LIFECYCLE.md`` for the loop diagram and the promotion /
rollback contract.
"""

from repro.lifecycle.outcomes import (
    OutcomeLog,
    OutcomeRecord,
    OutcomeReplay,
    read_outcomes,
)
from repro.lifecycle.promote import (
    CanaryReport,
    evaluate_canary,
    quality_errors,
)
from repro.lifecycle.retrain import (
    RetrainResult,
    retrain,
    training_rows_from_outcomes,
)

__all__ = [
    "CanaryReport",
    "OutcomeLog",
    "OutcomeRecord",
    "OutcomeReplay",
    "RetrainResult",
    "evaluate_canary",
    "quality_errors",
    "read_outcomes",
    "retrain",
    "training_rows_from_outcomes",
]
