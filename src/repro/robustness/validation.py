"""Runtime-field validation and sanitization for guarded inference.

Feature extraction silently propagates NaN/Inf (a mean over a
NaN-polluted field is NaN), after which the regression model returns a
NaN error bound that every downstream consumer trusts. The guard here
inspects the field *before* features are computed: hard-invalid inputs
(empty, all-non-finite) are rejected; recoverable pollution (isolated
NaN/Inf values) is patched with finite surrogates so the pipeline can
continue, with the patching recorded so the caller can discount its
confidence in the result.

A float32/float64 field is read in its own dtype: a clean one is
checked by two reductions (its min and max) and never copied, so
guarded inference and every fallback rung work on the caller's bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidConfiguration

#: The dtypes the compressors accept, which a field keeps as its own.
_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


@dataclass(frozen=True)
class FieldReport:
    """Outcome of validating one runtime field.

    Attributes:
        data: ``None`` when the caller's array is used as it is; else the
            copy guarded inference operates on — the field with its
            non-finite values replaced (in the field's own dtype), or a
            float64 cast of a field that is not float32/float64.
        issues: machine-readable issue tags, e.g. ``("nan", "inf")``;
            empty for a clean field.
        nonfinite_fraction: fraction of values that had to be patched.
        constant: True when every (finite) value is identical.
    """

    data: np.ndarray | None
    issues: tuple[str, ...]
    nonfinite_fraction: float
    constant: bool

    @property
    def clean(self) -> bool:
        return not self.issues


def validate_field(data: np.ndarray, max_nonfinite: float = 0.5) -> FieldReport:
    """Validate ``data`` for inference; patch recoverable pollution.

    Non-finite values are replaced by the median of the finite values
    (NaN) or the finite min/max (-Inf/+Inf), which keeps the field's
    scale statistics meaningful for feature extraction.

    Raises:
        InvalidConfiguration: empty input, non-float-convertible input,
            or more than ``max_nonfinite`` of the values non-finite —
            past that point no patched statistic is trustworthy.
    """
    try:
        array = np.asarray(data)
        cast = None
        if array.dtype not in _FLOAT_DTYPES:
            array = cast = array.astype(np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidConfiguration(f"field is not numeric: {exc}") from exc
    if array.size == 0:
        raise InvalidConfiguration("cannot run inference on an empty field")

    # NaN propagates through min/max and an Inf is an extreme, so two
    # reductions prove a field finite without a field-sized mask.
    lo, hi = array.min(), array.max()
    if np.isfinite(lo) and np.isfinite(hi):
        constant = bool(lo == hi)
        return FieldReport(
            data=cast,
            issues=("constant",) if constant else (),
            nonfinite_fraction=0.0,
            constant=constant,
        )

    finite = np.isfinite(array)
    n_bad = int(array.size - np.count_nonzero(finite))
    if n_bad == array.size:
        raise InvalidConfiguration("field contains no finite values")
    bad_fraction = n_bad / array.size
    if bad_fraction > max_nonfinite:
        raise InvalidConfiguration(
            f"{bad_fraction:.0%} of the field is non-finite "
            f"(limit {max_nonfinite:.0%})"
        )

    issues: list[str] = []
    finite_values = array[finite]
    patched = array.copy()
    nan_mask = np.isnan(array)
    if nan_mask.any():
        issues.append("nan")
        patched[nan_mask] = float(np.median(finite_values))
    pos_inf = np.isposinf(array)
    neg_inf = np.isneginf(array)
    if pos_inf.any() or neg_inf.any():
        issues.append("inf")
        patched[pos_inf] = float(finite_values.max())
        patched[neg_inf] = float(finite_values.min())

    # Every surrogate lies within the finite values' range.
    constant = bool(finite_values.min() == finite_values.max())
    if constant:
        issues.append("constant")
    return FieldReport(
        data=patched,
        issues=tuple(issues),
        nonfinite_fraction=bad_fraction,
        constant=constant,
    )
