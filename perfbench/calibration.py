"""Calibration kernel that expresses measured times at a fixed machine speed.

On a shared host the speed of a core changes by up to 2x from minute to
minute with the load of other tenants, and a whole run can fall in a slow
stretch.  The benchmark therefore times this fixed kernel at every pass
boundary and divides each pass time by the mean kernel time on its two
sides.  The quotient is multiplied by REFERENCE_S, so the reported values
read as seconds at a machine speed where the kernel takes REFERENCE_S.
REFERENCE_S is the median kernel time measured over 60 benchmark runs
(twenty per workload: seeds 0 to 9, then 10 to 19) on a 2-vCPU Intel
Xeon host with one BLAS thread: 0.0557 s.  On that host the reported times
therefore equal the measured ones at the median speed of those runs.

The kernel runs no capgraph code, so a change to the program moves the
reported times and not the kernel.  It mixes the kinds of work the
workloads do: sparse matrix-vector products and vector arithmetic on 10^4
elements, many small numpy calls, and interpreted floating-point Python.  Its arrays are small, so it adds little to the
process's peak memory.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

REFERENCE_S = 0.0557
KERNEL_N = 100     # the kernel's matrix is the 5-point Laplacian on a KERNEL_N^2 grid


class Calibration:
    def __init__(self):
        n = KERNEL_N
        ones = np.ones(n * n)
        self.matrix = sp.diags([4.0 * ones, -ones[1:], -ones[1:], -ones[n:], -ones[n:]],
                               [0, 1, -1, n, -n], format="csr")
        self.start = np.linspace(-1.0, 1.0, n * n)
        self.small = np.linspace(0.0, 1.0, 16)
        self.samples: list[float] = []

    def measure(self) -> float:
        """Run the kernel once; record and return its time."""
        t0 = time.perf_counter()
        y = self.start.copy()
        for _ in range(200):
            y = self.matrix @ y
            y /= np.sqrt(y @ y)
            y = np.sqrt(y * y + 1.0) - 1.0 + y
        acc = 0.0
        for i in range(1_500):
            acc += float(np.sum(self.small * (i * 1e-3)))
        for i in range(18_000):
            acc = _step(i * 1e-4, acc)
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    def scale(self, before: float, after: float) -> float:
        """Factor that turns a time measured between two kernel runs into
        seconds at the reference speed."""
        return REFERENCE_S / (0.5 * (before + after))


def _step(x: float, acc: float) -> float:
    """Interpreted float arithmetic and a call, like the bisection loops."""
    a, b = 1.0 + x, 2.0 + x
    for _ in range(4):
        a, b = 0.5 * (a + b), (a * b) / (a + b)
    return acc + (a - b) * 1e-3
