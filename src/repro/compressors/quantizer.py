"""Linear-scaling quantization with an absolute error guarantee.

This is SZ's "linear-scaling quantization": a residual ``r`` is coded as
``round(r / (2*eb))`` so that dequantizing back multiplies out to within
``eb`` of the original residual. Residuals too large for the code range,
or that floating-point rounding would reconstruct past the bound, are
treated as *unpredictable* (SZ's outlier path): their exact values
are stored losslessly on the side and their codes carry a sentinel.

:class:`LinearQuantizer` holds the validated parameters of that step;
the passes that apply it are
:func:`~repro.compressors.kernels.encode_block` and
:func:`~repro.compressors.kernels.decode_block`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidConfiguration

#: Largest representable quantization code magnitude. Codes beyond this
#: are routed to the outlier path to keep the Huffman alphabet bounded.
DEFAULT_MAX_CODE = 1 << 20


class LinearQuantizer:
    """Uniform quantizer with bin width ``2 * eb``."""

    def __init__(self, error_bound: float, max_code: int = DEFAULT_MAX_CODE) -> None:
        if error_bound <= 0 or not np.isfinite(error_bound):
            raise InvalidConfiguration("error bound must be positive and finite")
        if max_code < 1:
            raise InvalidConfiguration("max_code must be >= 1")
        self.error_bound = float(error_bound)
        self.max_code = int(max_code)
        self.sentinel = self.max_code + 1

    @property
    def bin_width(self) -> float:
        return 2.0 * self.error_bound
