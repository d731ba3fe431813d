"""Host speed index: the time of a fixed calibration kernel, taken around each op.

On a shared host the speed can swing by up to 1.6x (measured on a
2-core machine), in slow and fast periods that last from a few seconds
to half a minute, so a whole run can fall in one of them. Every timed op is therefore bracketed by two
calibrations, and its latency is scaled by ``REFERENCE_S`` over their
mean: the time the op would have taken on a host where the kernel takes
``REFERENCE_S``. The kernel calls no package code, so a change to the
program cannot move it.

The kernel mixes what the package spends its time on: building and
hashing Pauli strings in pure Python, small dense linear algebra, and
a pass over arrays too large for the caches. Each calibration keeps the fastest of ``REPEATS`` passes, which drops
an interrupt that lands in one pass.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

REPEATS = 3
# About the median calibration on the 2-core machine the benchmark was
# sized on (Python 3.11.7, numpy 2.4.6, scipy-openblas 0.3.31, one BLAS
# thread). It only sets the scale of the reported seconds.
REFERENCE_S = 0.0045

_MATRIX = np.random.default_rng(0).standard_normal((128, 128))
# 8 MB each, past the caches, like the dense matrices of the verify workload
_STREAM_IN = np.ones(1 << 20)
_STREAM_OUT = np.empty(1 << 20)


def _kernel() -> int:
    words = ["".join("IXYZ"[(i * j + j) & 3] for j in range(16)) for i in range(480)]
    tally = Counter(w[::2] for w in words)
    gram = _MATRIX @ _MATRIX.T
    np.linalg.eigvalsh(gram)
    np.multiply(_STREAM_IN, 1.0001, out=_STREAM_OUT)
    return len(tally) + int(_STREAM_OUT.sum())


def calibrate() -> float:
    """Seconds the kernel takes now: the fastest of ``REPEATS`` passes."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(before: float, after: float) -> float:
    """Factor that turns a latency timed between two calibrations into reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
