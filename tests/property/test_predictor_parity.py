"""Sliced-vs-gather predictor parity: every prediction bit-identical.

:func:`~repro.compressors.predictors.interp_prediction_linear` and
:func:`~repro.compressors.predictors.interp_prediction_cubic` read each
neighbour as a basic slice and evaluate the cubic formula only on the
interior midpoints; :mod:`tests.predictor_oracle` keeps the ``np.take``
formulation that gathers clipped neighbours and selects with
``np.where``. Their contract is bit-identity — the same float64
predictions, hence the same blob bytes and reconstructions — on every
rank, axis length and pyramid step, including axes too short for any
cubic interior.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.compressors import get_compressor
from repro.compressors.predictors import (
    interp_prediction_cubic,
    interp_prediction_linear,
)
from tests import predictor_oracle
from tests.predictor_oracle import midpoints, oracle_predictors

pytestmark = pytest.mark.kernels

#: Extents of the axes other than the predicted one, by rank.
_OTHER_AXES = {1: (), 2: (3,), 3: (2, 3), 4: (2, 1, 3)}

_PAIRS = [
    (interp_prediction_linear, predictor_oracle.interp_prediction_linear),
    (interp_prediction_cubic, predictor_oracle.interp_prediction_cubic),
]


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_predictions_match_the_gather_oracle(rank):
    rng = np.random.default_rng(rank)
    for n in range(1, 71):
        for axis in range(rank):
            shape = list(_OTHER_AXES[rank])
            shape.insert(axis, n)
            # Mixed magnitudes so any reordered float op would show.
            recon = rng.standard_normal(shape) * 10.0 ** rng.integers(
                -6, 7, shape
            )
            # Every pyramid step of this axis, down to half = 1, plus
            # one whose first midpoint is already past the end.
            half = 1
            while half <= 2 * n:
                idx = midpoints(n, half)
                for sliced, oracle in _PAIRS:
                    got = sliced(recon, axis, half)
                    want = oracle(recon, axis, idx, half)
                    assert got.shape == want.shape, (n, axis, half)
                    assert got.tobytes() == want.tobytes(), (n, axis, half)
                half *= 2


def _grid():
    rng = np.random.default_rng(29)
    for shape in [(1,), (2,), (7,), (70,), (3, 5), (9, 13), (33, 17),
                  (7, 11, 5), (16, 16, 16), (13, 21, 7), (4, 5, 6, 7)]:
        field = rng.standard_normal(shape).cumsum(axis=-1)
        yield shape, (field + 0.3 * rng.standard_normal(shape)).astype(
            np.float32
        )


def _digests(compressor, data, eb):
    blob = compressor.compress(data, eb)
    recon = compressor.decompress(blob)
    return (
        hashlib.sha256(blob.data).hexdigest(),
        hashlib.sha256(np.ascontiguousarray(recon).tobytes()).hexdigest(),
    )


@pytest.mark.parametrize(
    "name,options",
    [("sz", {}), ("sz", {"interpolation": "linear"}), ("mgard", {})],
)
def test_blobs_and_reconstructions_match_the_gather_oracle(name, options):
    compressor = get_compressor(name, **options)
    for shape, data in _grid():
        for eb in (1e-1, 1e-3, 1e-6):
            sliced = _digests(compressor, data, eb)
            with oracle_predictors():
                oracle = _digests(compressor, data, eb)
            assert sliced == oracle, (shape, eb)
