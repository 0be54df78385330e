"""Host-speed reference kernels and the normalisation built on them.

On a shared virtual machine the CPU time of the same operation drifts
by up to ~1.9x within a minute, even at zero CPU steal: other guests
load the shared caches, memory bus and hyperthread siblings. The
benchmark therefore runs a small, fixed reference kernel next to every
operation and reports operation time rescaled to the speed at which the
kernel takes its nominal time. Both sit in this file, frozen: no change
to the repository's sources can make them faster or slower.

Two kernels match the two kinds of work the workloads do:

* ``dispatch``: many numpy calls on 64-element arrays, the shape of a
  forest walk (interpreter and dispatch bound);
* ``stream``: block ranges over a 64^3 float64 array, the shape of the
  CA block scan and the compressors (memory bound).

On the reference host (2-vCPU Intel Xeon) the kernel matched to a
workload cut the spread of 4-second chunks of its operation time by 2-10x.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time, in ms of process CPU time, that defines reference speed
#: (about the median on the reference host inside the workloads' loops).
NOMINAL_MS = {"dispatch": 0.6, "stream": 1.7}

#: Neighbouring reference samples (each side) whose median gives the
#: host speed at one operation; a few seconds at most in every workload.
HALF_WINDOW = 15

_rng = np.random.default_rng(20231017)
_values = _rng.random(64)
_thresholds = _rng.random(64)
_rows = np.arange(64)
_block = _rng.random((64, 64, 64))
# The stream kernel writes into buffers allocated here, at import, so
# its memory does not depend on what the workload allocated before it.
_blocks = np.empty((4096, 64))
_highs, _lows = np.empty(4096), np.empty(4096)


def _dispatch() -> None:
    node = np.zeros(64, dtype=np.int64)
    active = _rows
    for _ in range(70):
        left = _values[active] <= _thresholds[active]
        node[active] = np.where(left, node[active] + 1, node[active] + 2)
        active = active[node[active] < 1 << 30]


def _stream() -> None:
    np.copyto(
        _blocks.reshape(16, 16, 16, 4, 4, 4),
        _block.reshape(16, 4, 16, 4, 16, 4).transpose(0, 2, 4, 1, 3, 5),
    )
    np.max(_blocks, axis=1, out=_highs)
    np.min(_blocks, axis=1, out=_lows)
    float(np.subtract(_highs, _lows, out=_highs).sum())


KERNELS = {"dispatch": _dispatch, "stream": _stream}


def reference(kind: str):
    """A callable that runs ``kind`` once untimed, once timed; returns CPU s.

    The untimed pass refills the caches the operation before it evicted,
    so the timed pass measures the host, not the operation's footprint.
    """
    kernel, clock = KERNELS[kind], time.process_time

    def run() -> float:
        kernel()
        tock = clock()
        kernel()
        return clock() - tock

    return run


def local_speed(ref_s: np.ndarray, kind: str) -> np.ndarray:
    """Per-operation speed factor: nominal time over the local median.

    ``ref_s`` holds one reference time (seconds) per operation. A factor
    below 1 means the host ran slower than reference speed around that
    operation, so its time is scaled down.
    """
    ref = np.asarray(ref_s, dtype=np.float64)
    n = len(ref)
    local = np.empty(n)
    for i in range(n):
        lo, hi = max(0, i - HALF_WINDOW), min(n, i + HALF_WINDOW + 1)
        local[i] = np.median(ref[lo:hi])
    return NOMINAL_MS[kind] * 1e-3 / local


def block_speed(kinds, repeats: int = 20) -> float:
    """One speed factor from ``repeats`` runs of each kernel in ``kinds``.

    Used around work that cannot be interleaved with the kernel (the
    set-up); the factor is the mean over the kernels.
    """
    factors = []
    for kind in kinds:
        run = reference(kind)
        times = [run() for _ in range(repeats)]
        factors.append(NOMINAL_MS[kind] * 1e-3 / float(np.median(times)))
    return float(np.mean(factors))
