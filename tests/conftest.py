"""Shared test settings and oracles.

Property tests run under one registered hypothesis profile: examples are
derived from the test source instead of a random seed, with no example
database and no per-example deadline, so every run draws the same examples
and a slow host cannot fail a test on timing.
"""

import math

import numpy as np
from hypothesis import settings

from capgraph import angle_threshold
from capgraph.capillary import (_nodal_gradient, _quadrant_gradients,
                                edge_differences)
from capgraph.estimates import _EPS0_SCAN, _splitting_lhs
from capgraph.geometry import _DECIDE_EVERY
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


def loose_bracket_distance(y, axes, reach=None):
    """The distance of geometry._distance_to_ellipsoid, bisected from the
    loose bracket [0, sqrt(dim) max_i(axes_i |y_i|) + max axes^2] grown until
    phi confirms its upper end: the oracle of the tight bracket's decisions,
    which inner_node_set must reproduce node for node."""
    y = np.atleast_2d(y)
    a2 = axes ** 2
    inside = np.sum((y / axes) ** 2, axis=1) <= 1.0
    d = np.zeros(y.shape[0])
    live = np.flatnonzero(~inside)      # the points still bisected
    if live.size == 0:
        return d
    ye = y[live]

    def phi(ye, t):
        return np.sum((axes * ye / (t[:, None] + a2)) ** 2, axis=1)

    def dist(ye, t):
        return np.linalg.norm(ye - a2 * ye / (t[:, None] + a2), axis=1)

    lo = np.zeros(live.size)
    hi = np.sqrt(y.shape[1]) * np.max(np.abs(ye) * axes, axis=1) + np.max(a2)
    for _ in range(64):
        grow = phi(ye, hi) > 1.0
        if not np.any(grow):
            break
        hi[grow] *= 2.0
    for k in range(100):
        if reach is not None and k % _DECIDE_EVERY == 0:
            d_lo, d_hi = dist(ye, lo), dist(ye, hi)
            within, beyond = d_hi <= reach, d_lo > reach
            d[live[within]] = d_hi[within]
            d[live[beyond]] = d_lo[beyond]
            open_ = ~(within | beyond)
            live, ye, lo, hi = live[open_], ye[open_], lo[open_], hi[open_]
            if live.size == 0:
                return d
        mid = 0.5 * (lo + hi)
        high = phi(ye, mid) > 1.0
        new_lo = np.where(high, mid, lo)
        new_hi = np.where(high, hi, mid)
        # a step that moves no bracket end repeats forever: a fixed point
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    d[live] = dist(ye, 0.5 * (lo + hi))
    return d


def per_row_energies(grid, values, theta):
    """capillary_energies with each state's cell means summed by np.sum on
    its own 1-D row, one Python call per state: the oracle of its one
    reduction over the last axis."""
    dim = grid.dim
    d = edge_differences(grid, values)
    g = _quadrant_gradients(d, dim)
    v = np.sqrt(1.0 + sum(_quadrant_gradients(d * d, dim))) + theta.cos_t * g[0]
    k = math.prod(v.shape[-dim - 1:-1])
    v = v.reshape(v.shape[:-dim - 1] + (k, v.shape[-1]))
    means = sum(v[..., q, :] for q in range(k)) / k
    rows = means.reshape(math.prod(means.shape[:-1]), means.shape[-1])
    sums = [np.sum(row) for row in rows]
    return grid.h ** dim * np.reshape(sums, means.shape[:-1])
