"""Run-length coding for integer symbol streams.

Scientific quantization codes are dominated by long runs of the
"perfectly predicted" symbol, so a run-length stage ahead of Huffman
coding both shrinks the payload and (more importantly here) shrinks the
symbol count the pure-Python Huffman decoder has to walk.

:func:`zero_rle_encode` / :func:`zero_rle_decode` are specialised for
streams where only a single known value (usually 0) forms long runs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CorruptStreamError

#: Decoded streams never legitimately expand past this many symbols; a
#: corrupted run length must not be allowed to allocate unbounded
#: memory before the caller's own length check fires.
_MAX_DECODED = 1 << 28


def zero_rle_encode(
    symbols: np.ndarray, zero: int = 0, *, arena=None
) -> tuple[np.ndarray, np.ndarray]:
    """Encode as interleaved (zero-run-length, literal) token stream.

    The output token stream alternates: a count of ``zero`` symbols
    (possibly 0), then one literal non-zero symbol — except possibly a
    trailing zero-run. This biases the alphabet towards small run counts,
    which Huffman-codes extremely well on smooth scientific data.

    Args:
        symbols: the stream to encode.
        zero: the symbol that forms runs.
        arena: optional :class:`~repro.compressors.kernels.KernelArena`;
            when given, the returned arrays are views into pooled
            scratch buffers (valid until the next ``rle.*`` request on
            the same arena) instead of fresh allocations per call.

    Returns:
        ``(tokens, literals)`` where ``tokens`` holds the zero-run
        lengths and ``literals`` the non-zero symbols in order.
    """
    symbols = np.asarray(symbols).ravel()
    nz = np.nonzero(symbols != zero)[0]
    if arena is None:
        literals = np.empty(nz.size, dtype=symbols.dtype)
        runs = np.empty(nz.size + 1, dtype=np.int64)
    else:
        literals = arena.scratch("rle.literals", nz.size, symbols.dtype)
        runs = arena.scratch("rle.tokens", nz.size + 1, np.int64)
    np.take(symbols, nz, out=literals)
    # Zero-run before each literal, plus the trailing run.
    if nz.size == 0:
        runs[0] = symbols.size
    else:
        runs[0] = nz[0]
        np.subtract(nz[1:], nz[:-1], out=runs[1:-1])
        runs[1:-1] -= 1
        runs[-1] = symbols.size - nz[-1] - 1
    return runs, literals


def zero_rle_decode(
    tokens: np.ndarray, literals: np.ndarray, zero: int = 0
) -> np.ndarray:
    """Inverse of :func:`zero_rle_encode`.

    Raises:
        CorruptStreamError: inconsistent token/literal counts, negative
            runs, or an implausibly large decoded size.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    literals = np.asarray(literals)
    if tokens.size != literals.size + 1:
        raise CorruptStreamError("token stream must have exactly one trailing run")
    if tokens.size and tokens.min() < 0:
        raise CorruptStreamError("zero-run lengths must be non-negative")
    total = int(tokens.sum()) + literals.size
    if total > _MAX_DECODED:
        raise CorruptStreamError("implausible zero-RLE decoded size")
    out = np.full(total, zero, dtype=np.int64)
    if literals.size:
        positions = np.cumsum(tokens[:-1] + 1) - 1
        out[positions] = literals
    return out
