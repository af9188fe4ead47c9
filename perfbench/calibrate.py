"""Host-speed calibration: a fixed kernel timed next to every measured step.

The benchmark's host shares its cores with other work, which slows every
computation on it by up to about 50% for seconds to minutes at a time.
Such a slowdown hits a job and the kernel below alike, so run.py times the
kernel right before and right after each job and divides the job's time
by

    speed factor = mean(kernel time before, kernel time after) / REFERENCE_S

The scaled time reads as the time at the reference host speed.  The kernel mixes a
pure-Python loop with small symmetric eigendecompositions and matrix
products, the same kinds of work the adialab jobs do, and never calls
adialab: a change to the library moves the job times, never the kernel.

    python3 perfbench/calibrate.py      # print 20 kernel times in ms
"""

from __future__ import annotations

import time

import numpy as np

# A typical kernel time on the 2-core Intel Xeon VM (2.1 GHz, one BLAS
# thread) on which the benchmark was defined; it measured 41-93 ms there.
# Only the unit of the scaled times depends on it; their ratios do not.
REFERENCE_S = 0.05

LOOP = 300_000
ROUNDS = 150
_RNG = np.random.default_rng(411152)
_MATRICES = [
    (lambda a: a + a.T)(_RNG.standard_normal((d, d))) for d in (2, 4, 8, 16, 32)
]


def kernel_seconds() -> float:
    """Wall seconds of one run of the fixed kernel."""
    started = time.perf_counter()
    total = 0
    for i in range(LOOP):
        total += i * i
    for _ in range(ROUNDS):
        for m in _MATRICES:
            w, v = np.linalg.eigh(m)
            (v * w) @ v.T
    return time.perf_counter() - started


def speed_factor(before: float, after: float) -> float:
    """How much slower than the reference the host ran between two kernels."""
    return 0.5 * (before + after) / REFERENCE_S


if __name__ == "__main__":
    print([round(1000 * kernel_seconds(), 2) for _ in range(20)])
