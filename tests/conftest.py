"""Shared test settings and oracles.

Property tests run under one registered hypothesis profile: examples are
derived from the test source instead of a random seed, with no example
database and no per-example deadline, so every run draws the same examples
and a slow host cannot fail a test on timing.
"""

import numpy as np
from hypothesis import settings

from capgraph import angle_threshold
from capgraph.estimates import _EPS0_SCAN, _splitting_lhs

settings.register_profile("capgraph", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("capgraph")


class NoAdmissibleEps0(Exception):
    """No eps0 in (0, 1) meets the splitting condition of one (n, theta)."""


def scalar_angle_range(n, theta):
    """(in_range, threshold, margin) of one (n, theta): the oracle of the
    sweep's array range.  Dimensions up to 3 are unrestricted; from 4 on the
    margin threshold - cos^2(theta) must be positive."""
    threshold = angle_threshold(n)
    margin = threshold - theta.cos_t ** 2
    return n <= 3 or margin > 0.0, threshold, margin


def scalar_choose_eps0(n, theta, tol=1e-12):
    """The admissible eps0 of one (n, theta), one scalar bisection per end:
    the oracle of choose_eps0_array's masked bisection.  A numpy float64
    where an end was bisected, the float 0.5 where the whole scan is
    admissible; raises NoAdmissibleEps0 where no eps0 is admissible."""
    cos2 = theta.cos_t ** 2

    def f(eps):
        return _splitting_lhs(n, eps) - cos2

    grid = _EPS0_SCAN
    pos = f(grid) > 0.0
    if not np.any(pos):
        raise NoAdmissibleEps0(f"n={n}")

    def bisect(a, b):
        fa = f(a)
        for _ in range(200):
            if b - a <= tol:
                break
            mid = 0.5 * (a + b)
            fmid = f(mid)
            if (fmid > 0.0) == (fa > 0.0):
                a, fa = mid, fmid
            else:
                b = mid
        return 0.5 * (a + b)

    run = np.flatnonzero(pos)
    i, j = run[0], run[-1]
    left = 0.0 if i == 0 else bisect(grid[i - 1], grid[i])
    right = 1.0 if j == grid.size - 1 else bisect(grid[j], grid[j + 1])
    return 0.5 * (left + right)
