"""repro — reproduction of FXRZ (ICDE 2023).

A feature-driven fixed-ratio lossy compression framework for scientific
data, with from-scratch implementations of every substrate the paper
relies on: four error-controlled lossy compressors (SZ/ZFP/FPZIP/MGARD
style), entropy coders, ML regressors, synthetic scientific datasets,
the FRaZ baseline and a parallel-dumping model.

Quickstart::

    import repro
    from repro.compressors import get_compressor
    from repro.datasets import paper_training_series, paper_test_series

    train = [s.data for s in paper_training_series("hurricane")[0]]
    test = paper_test_series("hurricane")[0].snapshots[0].data

    fxrz = repro.FXRZ(get_compressor("sz"))
    fxrz.fit(train)
    result = fxrz.compress_to_ratio(test, target_ratio=40.0)
    print(result.measured_ratio, result.estimation_error)
"""

from repro.config import FXRZConfig
from repro.core.pipeline import FXRZ, FixedRatioResult
from repro.core.inference import Estimate
from repro.core.objective import (
    Objective,
    ParetoFrontier,
    PSNRTarget,
    RatioTarget,
    SSIMTarget,
    as_objective,
    parse_objective,
)
from repro.core.training import TrainingReport
from repro.baselines.fraz import FRaZ, FRaZResult
from repro.errors import (
    CompressionError,
    CorruptStreamError,
    DatasetError,
    EncodingError,
    ErrorBoundViolation,
    FallbackExhaustedError,
    InvalidConfiguration,
    NotFittedError,
    OutOfDistributionError,
    ReproError,
    RetryExhausted,
    SearchError,
)

# Imported last: repro.runtime pulls in repro.parallel and repro.obs,
# which import repro.errors/config above.
from repro.runtime import RuntimeConfig, RuntimeContext

__version__ = "1.0.0"

__all__ = [
    "FXRZ",
    "FXRZConfig",
    "FixedRatioResult",
    "Estimate",
    "Objective",
    "RatioTarget",
    "PSNRTarget",
    "SSIMTarget",
    "ParetoFrontier",
    "as_objective",
    "parse_objective",
    "TrainingReport",
    "FRaZ",
    "FRaZResult",
    "RuntimeConfig",
    "RuntimeContext",
    "ReproError",
    "EncodingError",
    "CorruptStreamError",
    "CompressionError",
    "ErrorBoundViolation",
    "FallbackExhaustedError",
    "InvalidConfiguration",
    "NotFittedError",
    "OutOfDistributionError",
    "DatasetError",
    "RetryExhausted",
    "SearchError",
    "__version__",
]
