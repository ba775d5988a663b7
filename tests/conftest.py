"""Shared test settings and oracles.

Property tests run under one registered hypothesis profile: examples are
derived from the test source instead of a random seed, with no example
database and no per-example deadline, so every run draws the same examples
and a slow host cannot fail a test on timing.
"""

import numpy as np
from hypothesis import settings

from capgraph import angle_threshold
from capgraph.capillary import _nodal_gradient
from capgraph.estimates import _EPS0_SCAN, _splitting_lhs
from capgraph.solver import _check_field

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


def nondivergence_residual(u, spec):
    """(W^2 d_ij - u_i u_j) u_ij - H W^3 at interior nodes, via centered
    differences: the second-order oracle of the divergence-form residual
    (assemble_residual)."""
    _check_field(u, spec)
    grid = u.grid
    lat = u.lattice()
    h = grid.h
    source = spec.source_at_nodes()
    g = _nodal_gradient(grid, u.values)
    w2 = 1.0
    for a in range(grid.dim):
        w2 = w2 + g[:, a] ** 2
    # np.roll wraps around at the box faces, where no interior node lies
    op = 0.0
    for a, b in zip(*np.triu_indices(grid.dim)):
        if a == b:
            second = (np.roll(lat, -1, a) - 2.0 * lat + np.roll(lat, 1, a)) / h ** 2
            coef = w2 - g[:, a] ** 2
        else:
            second = (np.roll(lat, (-1, -1), (a, b)) - np.roll(lat, (-1, 1), (a, b))
                      - np.roll(lat, (1, -1), (a, b))
                      + np.roll(lat, (1, 1), (a, b))) / (4.0 * h ** 2)
            coef = -2.0 * g[:, a] * g[:, b]
        op = op + coef * second.ravel()
    res = op - source * w2 ** 1.5
    return res[grid.interior_indices]
