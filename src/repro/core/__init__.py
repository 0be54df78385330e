"""FXRZ — the paper's primary contribution.

Feature-driven fixed-ratio lossy compression: extract cheap statistical
features, learn the (features, target ratio) -> error configuration
mapping from interpolation-augmented compression results, and at
runtime pick the error bound for a user's target compression ratio
without ever running the compressor.
"""

from repro.core.features import (
    FEATURE_NAMES,
    SELECTED_FEATURES,
    FeatureVector,
    extract_features,
    uniform_sample,
)
from repro.core.augmentation import CompressionCurve, build_curve
from repro.core.adjustment import (
    adjusted_ratio,
    constant_block_mask,
    nonconstant_fraction,
)
from repro.core.training import TrainingEngine, TrainingReport
from repro.core.inference import InferenceEngine, Estimate
from repro.core.objective import (
    FrontierPoint,
    Objective,
    ParetoFrontier,
    PSNRTarget,
    RatioTarget,
    SSIMTarget,
    as_objective,
    parse_objective,
)
from repro.core.pipeline import FXRZ, FixedRatioResult
from repro.core.persistence import load_pipeline, save_pipeline
from repro.core.tiling import TiledFixedRatio, TiledResult, tile_grid

__all__ = [
    "FEATURE_NAMES",
    "SELECTED_FEATURES",
    "FeatureVector",
    "extract_features",
    "uniform_sample",
    "CompressionCurve",
    "build_curve",
    "nonconstant_fraction",
    "constant_block_mask",
    "adjusted_ratio",
    "TrainingEngine",
    "TrainingReport",
    "InferenceEngine",
    "Estimate",
    "Objective",
    "RatioTarget",
    "PSNRTarget",
    "SSIMTarget",
    "FrontierPoint",
    "ParetoFrontier",
    "as_objective",
    "parse_objective",
    "FXRZ",
    "FixedRatioResult",
    "save_pipeline",
    "load_pipeline",
    "TiledFixedRatio",
    "TiledResult",
    "tile_grid",
]
