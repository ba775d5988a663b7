"""Analytic apparatus behind the gradient estimates, evaluated numerically.

Covers the ellipsoidal cut-off profile and its derivative identities, the
height scale M = sup |u| + r of a solved field, the admissible-angle range
with its explicit dimensional threshold, the slope limit for one-sided
linear bounds, the generic exponential gradient bound, and the splitting
condition on eps0 behind the angle range, with its dimensional lower bound
and the admissible eps0 of each (n, theta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .capillary import (CapillaryAngle, ScalarField, _cos_theta, _nodal_gradient,
                        capillary_area_element)
from .errors import (DegenerateState, HypothesisViolation, InvalidParameter,
                     ShapeMismatch, require_count)
from .geometry import EllipsoidRegion, RegionKind, _row_squares, in_region
from .solver import discrete_gradient


def _positive_finite(x) -> bool:
    return bool(np.isfinite(x) and x > 0.0)


@dataclass(frozen=True)
class LinearBound:
    """Linear comparison function L(x) = <slope, x> + offset."""

    slope: tuple[float, ...]
    offset: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite(self.slope)):
            # no slope limit admits it: the one-sided hypothesis fails
            raise HypothesisViolation(f"slope entries must be finite, got {self.slope}")
        if not np.isfinite(self.offset):
            raise ValueError(f"offset must be finite, got {self.offset}")

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ np.asarray(self.slope) + self.offset

    @property
    def slope_norm(self) -> float:
        return math.hypot(*self.slope)

    def check_slope(self, theta: CapillaryAngle) -> None:
        """Raise HypothesisViolation when |DL| exceeds the one-sided slope
        limit of the angle: the hypothesis of the one-sided estimate."""
        limit = one_sided_slope_limit(theta)
        if not self.slope_norm <= limit + 1e-15:    # an overflowed norm fails too
            raise HypothesisViolation(
                f"|DL|={self.slope_norm:.3e} exceeds the slope "
                f"limit {limit:.3e} for theta={theta.theta:.4f}")


@dataclass(frozen=True)
class CutoffParams:
    """Parameters of the ellipsoidal cut-off: radius, angle and dimension."""

    r: float
    theta: CapillaryAngle
    dim: int = 2

    def __post_init__(self):
        if not _positive_finite(self.r):
            raise ValueError(f"r must be positive, got {self.r}")
        require_count("dim", self.dim)

    def outer_region(self) -> EllipsoidRegion:
        return EllipsoidRegion(self.r, self.theta, RegionKind.OUTER)


def cutoff_profile(points, params: CutoffParams) -> np.ndarray | float:
    """Quadratic profile 1 - ((x1 - |cos| r)^2 + sin^2 |x'|^2) / r^2.

    The cut-off weight is its square; the profile vanishes on the relative
    boundary of the outer ellipsoid.
    """
    single = np.asarray(points, dtype=float).ndim == 1
    q = 1.0 - params.outer_region().quadratic_value(points) / params.r ** 2
    return float(q[0]) if single else q


def _positive_square(q):
    pos = np.maximum(q, 0.0)
    return pos * pos


def cutoff_weight(points, params: CutoffParams) -> np.ndarray | float:
    """Squared positive part of the profile: zero outside the outer
    ellipsoid, where the profile is negative."""
    return _positive_square(cutoff_profile(points, params))


def cutoff_weight_gradient(points, params: CutoffParams) -> np.ndarray:
    """Analytic gradient of the cut-off weight: 2 Q DQ where the profile Q
    is positive, zero outside the outer ellipsoid."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    q = np.maximum(np.atleast_1d(cutoff_profile(points, params)), 0.0)
    dq = np.empty_like(pts)
    dq[:, 0] = -2.0 * (pts[:, 0] - abs(params.theta.cos_t) * params.r) / params.r ** 2
    dq[:, 1:] = -2.0 * params.theta.sin_t ** 2 * pts[:, 1:] / params.r ** 2
    return 2.0 * q[:, None] * dq


class CutoffCheckReport(NamedTuple):
    max_gradient_violation: float    # of |D psi| <= 4 sqrt(psi) / r in the region
    max_boundary_residual: float     # of d1 psi = 4 sqrt(psi) |cos| / r on the wall
    min_weight_inner: float          # min psi over the inner ellipsoid samples
    inner_lower_bound: float         # (1 - (1 + |cos|)^2 / 4)^2


def cutoff_derivative_check(params: CutoffParams, samples: int,
                            seed: int = 0) -> CutoffCheckReport:
    """Sample the derivative identities of the cut-off weight.

    Checks |D psi| <= 4 sqrt(psi)/r at interior samples, the exact wall
    identity for the normal derivative and the inner lower bound of psi.
    """
    require_count("samples", samples)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    r, th, dim = params.r, params.theta, params.dim
    c, s = abs(th.cos_t), th.sin_t

    def draw_inside(count, region):
        # batches of 2 count candidates, each adding its first accepted rows
        rho = region.semiaxis
        pts, filled = np.empty((count, dim)), 0
        while filled < count:
            cand = np.empty((2 * count, dim))
            cand[:, 0] = rng.uniform(max(0.0, c * r - rho), c * r + rho, 2 * count)
            cand[:, 1:] = rng.uniform(-rho / s, rho / s, (2 * count, dim - 1))
            kept = np.compress(in_region(cand, region), cand, axis=0)[:count - filled]
            pts[filled:filled + len(kept)] = kept
            filled += len(kept)
        return pts

    pts = draw_inside(samples, params.outer_region())
    psi = np.atleast_1d(cutoff_weight(pts, params))
    gnorm = np.sqrt(_row_squares(cutoff_weight_gradient(pts, params)))
    grad_violation = float(np.max(gnorm - 4.0 * np.sqrt(psi) / r))

    n_bdry = max(1, samples // 10)
    bpts = np.zeros((n_bdry, dim))
    while True:
        cand = rng.uniform(-r, r, (4 * n_bdry, dim - 1))
        keep = np.sum(cand ** 2, axis=1) < (0.999999 * r) ** 2
        if np.count_nonzero(keep) >= n_bdry:
            bpts[:, 1:] = cand[keep][:n_bdry]
            break
    bpsi = np.atleast_1d(cutoff_weight(bpts, params))
    bgrad = cutoff_weight_gradient(bpts, params)
    boundary_residual = float(
        np.max(np.abs(bgrad[:, 0] - 4.0 * np.sqrt(bpsi) * c / r)))

    ipts = draw_inside(samples, EllipsoidRegion(r, th, RegionKind.INNER))
    ipsi = np.atleast_1d(cutoff_weight(ipts, params))
    inner_bound = (1.0 - (1.0 + c) ** 2 / 4.0) ** 2
    return CutoffCheckReport(
        max_gradient_violation=grad_violation,
        max_boundary_residual=boundary_residual,
        min_weight_inner=float(np.min(ipsi)),
        inner_lower_bound=inner_bound,
    )


def height_scale(u: ScalarField, region: EllipsoidRegion) -> float:
    """M = sup |u| + r over the nodes inside the region (over all nodes when
    none is inside): the M of gradient_bound, whose fit `report` makes
    over M/r."""
    mask = in_region(u.grid.nodes, region)
    pool = u.values[mask] if np.any(mask) else u.values
    return float(np.max(np.abs(pool))) + region.r


# ---------------------------------------------------------------------------
# Angle range, constants, bound
# ---------------------------------------------------------------------------

def angle_threshold(n: int) -> float:
    """(3n - 7)(n - 1) / (4 (n - 2)^2) for n >= 3; infinite for n = 2 where
    no restriction applies."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if n == 2:
        return np.inf
    return (3.0 * n - 7.0) * (n - 1.0) / (4.0 * (n - 2.0) ** 2)


def _angle_ranges(dims, cos2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The admissible-angle range of each of a list of dimensions against
    cos^2 of one angle or of a row of angles: the thresholds as a (dims, 1)
    column, the margins threshold - cos^2 and the in-range flags shaped
    (dims, angles).  Dimensions 2 and 3 are unrestricted; from dimension 4
    on the estimate needs cos^2(theta) strictly below the threshold."""
    thr = np.array([[angle_threshold(n)] for n in dims])
    margin = thr - cos2
    return thr, margin, (np.array(dims)[:, None] <= 3) | (margin > 0.0)


def one_sided_slope_limit(theta: CapillaryAngle) -> float:
    """Explicit slope limit (1/36) |cos|(1 - sin) / (1 + |cos|/sin) for the
    linear bound of the one-sided estimate; symmetric about pi/2 and zero
    in the free-boundary case."""
    c, s = abs(theta.cos_t), theta.sin_t
    return (1.0 / 36.0) * c * (1.0 - s) / (1.0 + c / s)


def gradient_bound(m_scale: float | np.ndarray, r: float, theta: CapillaryAngle,
                   c1: float | np.ndarray, c2: float | np.ndarray,
                   c3: float | np.ndarray) -> float | np.ndarray:
    """Bound (1/(1 - |cos|)) exp(c1 + c2 M/r + c3 M^2/r^2), elementwise over
    an array of M (and arrays of constants broadcasting against it); the
    constants are fit/report parameters, not values supplied by the theory.
    Raises ValueError unless every M is at least r (a NaN M included)."""
    if r <= 0.0:
        raise ValueError("r must be positive")
    m_scale = np.asarray(m_scale, dtype=float)
    if not np.all(m_scale >= r):
        raise ValueError("m_scale is sup|u| + r and cannot be below r")
    ratio = m_scale / r
    return np.exp(c1 + c2 * ratio + c3 * ratio ** 2) / (1.0 - abs(theta.cos_t))


# ---------------------------------------------------------------------------
# Splitting condition and eps0
# ---------------------------------------------------------------------------

def _splitting_denominator(n: int, eps0):
    """(eps0, n - 2 + eps0) with eps0 a scalar as given or a float array;
    raises DegenerateState unless every denominator is positive."""
    if np.ndim(eps0) != 0:
        eps0 = np.asarray(eps0, dtype=float)
    denom = n - 2.0 + eps0
    if np.any(denom <= 0.0):
        raise DegenerateState("n - 2 + eps0 must be positive")
    return eps0, denom


def _cos_squared(theta: CapillaryAngle | np.ndarray) -> float | np.ndarray:
    """cos^2(theta) of a CapillaryAngle or of an array of angles, both by the
    C pow of float ** (numpy's power squares as x * x, which rounds
    differently for about one angle in a thousand)."""
    if isinstance(theta, CapillaryAngle):
        return theta.cos_t ** 2
    return np.float_power(_cos_theta(theta), 2.0)


def angle_condition_lower_bound(n: int | np.ndarray,
                                theta: CapillaryAngle | np.ndarray,
                                eps0: float | np.ndarray) -> float | np.ndarray:
    """-(n-1+e)^2 / (4(n-2+e)) + (n-1+e) - (n-2+e) cos^2; positive exactly
    when the splitting condition holds.  Elementwise, broadcasting an array
    of angles (and a column of dimensions n) against an array eps0; one
    CapillaryAngle with a scalar eps0 gives a scalar of eps0's own type."""
    eps0, denom = _splitting_denominator(n, eps0)
    a = n - 1.0 + eps0
    return -a * a / (4.0 * denom) + a - denom * _cos_squared(theta)


def _splitting_lhs(n: int, eps0):
    """((n-1+e)/(n-2+e)) (1 - (n-1+e)/(4(n-2+e))), elementwise in eps0."""
    denom = n - 2.0 + eps0
    a = n - 1.0 + eps0
    return (a / denom) * (1.0 - a / (4.0 * denom))


def angle_condition_holds(n: int, theta: CapillaryAngle | np.ndarray,
                          eps0: float | np.ndarray) -> bool | np.ndarray:
    """Splitting condition: _splitting_lhs(n, eps0) > cos^2(theta).
    Elementwise, broadcasting an array of angles against an array eps0; a
    bool for one CapillaryAngle with a float eps0."""
    eps0, _ = _splitting_denominator(n, eps0)
    return _splitting_lhs(n, eps0) > _cos_squared(theta)


# scan of choose_eps0_array over (0, 1), built once
_EPS0_SCAN = np.linspace(1e-15, 1.0 - 1e-15, 1025)
_EPS0_SCAN.flags.writeable = False


def choose_eps0_array(n: int | np.ndarray, theta: CapillaryAngle | np.ndarray,
                      tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray]:
    """Midpoint of the open subinterval of (0, 1) where the splitting
    condition holds, its ends located by bisection, for each angle of a 1-D
    array (or of one CapillaryAngle) in one integer dimension n, or in each
    of a (k, 1) column of them: the midpoints, NaN where no eps0 is
    admissible, and whether an end of the interval was bisected (False when
    the whole scan is admissible, where the midpoint is 0.5), shaped
    (angles,) for one n and (k, angles) for a column.  A dimension that is
    not an integer (2.5, nan) raises InvalidParameter.

    Each dimension's scan values are monotone in eps0, so a binary search
    per angle brackets the ends of the admissible run; then one masked
    bisection runs over every open end of every (n, theta) pair.  An entry
    stops on the rule b - a <= tol of a bisection of its own, so each
    midpoint is the one that bisection finds.
    """
    cos2 = np.atleast_1d(_cos_squared(theta))
    dims = np.asarray(n)
    if dims.ndim != 0 and dims.shape != (dims.size, 1):
        raise ShapeMismatch("n must be one dimension or a (k, 1) column of them")
    grid, last, flat = _EPS0_SCAN, _EPS0_SCAN.size - 1, dims.reshape(-1)
    dim_list = flat.tolist()
    if not all(float(dim).is_integer() for dim in dim_list):
        raise InvalidParameter(f"dimensions must be integers, got {dim_list}")
    # per dimension and end (left, right), the bracket (grid[col],
    # grid[col + 1]) and its left value f(grid[col]); an end where the
    # admissible run meets the end of the scan stays closed
    cols = np.empty((2, flat.size, cos2.size), dtype=np.intp)
    open_end = np.empty(cols.shape, dtype=bool)
    fa = np.empty(cols.shape)
    found = np.empty(cols.shape[1:], dtype=bool)
    for i, dim in enumerate(dim_list):
        lhs = _splitting_lhs(dim, grid)
        # with t = 1 + 1/(n-2+e) the condition reads t - t^2/4 > cos^2:
        # increasing in e for n = 2 (t > 2), decreasing for every other
        # integer n (t < 2), and so, as rounded, on this scan (the tests
        # check it), so the samples with lhs > cos^2 are the scan's tail for
        # n = 2 and its head otherwise: a search on the ascending values
        # counts them, and a NaN cos^2 counts none
        if dim == 2:
            first = np.searchsorted(lhs, cos2, side="right")
            final = np.full_like(first, last)
        else:
            first = np.zeros(cos2.size, dtype=np.intp)
            final = last - np.searchsorted(lhs[::-1], cos2, side="right")
        found[i] = first <= final
        open_end[:, i] = found[i] & (first > 0), found[i] & (final < last)
        cols[:, i] = np.clip(first - 1, 0, last - 1), np.clip(final, 0, last - 1)
        fa[:, i] = lhs[cols[:, i]] - cos2
    # one masked bisection over the open ends of every dimension and angle
    where = np.nonzero(open_end)
    a, b, fa = grid[cols[where]], grid[cols[where] + 1], fa[where]
    n_at, c2 = flat[where[1]], cos2[where[2]]
    for _ in range(200):
        live = b - a > tol
        if not np.any(live):
            break
        mid = 0.5 * (a + b)
        fmid = _splitting_lhs(n_at, mid) - c2
        up = live & ((fmid > 0.0) == (fa > 0.0))
        a, fa = np.where(up, mid, a), np.where(up, fmid, fa)
        b = np.where(live & ~up, mid, b)
    ends = np.empty(open_end.shape)
    ends[0], ends[1] = 0.0, 1.0
    ends[where] = 0.5 * (a + b)
    eps = np.where(found, 0.5 * (ends[0] + ends[1]), np.nan)
    bisected = open_end[0] | open_end[1]
    return (eps, bisected) if dims.ndim else (eps[0], bisected[0])


# ---------------------------------------------------------------------------
# Solved-field diagnostics
# ---------------------------------------------------------------------------

def conormal_stationarity_residual(u: ScalarField, theta: CapillaryAngle,
                                   corner_margin: float = 0.0) -> float:
    """Max over capillary nodes of |g^{1j} d_j v|, the discrete form of the
    conormal stationarity of the capillary area element.

    Vanishes for exact capillary solutions; for solved fields it decays with
    the mesh.  `corner_margin` excludes wall nodes within that distance of
    any side face (the wall's rim), where the Dirichlet-wins corner rule
    commits a local error that does not decay in the recovered derivative.
    """
    grid = u.grid
    grad = discrete_gradient(u, theta)
    v = capillary_area_element(grad, theta)
    cap = grid.capillary_indices
    if corner_margin > 0.0:
        keep = np.all(np.abs(grid.nodes[cap, 1:]) <= grid.box[1][1:] - corner_margin,
                      axis=1)
        if np.any(keep):
            cap = cap[keep]
    dv = _nodal_gradient(grid, v)[cap]
    g = grad[cap]
    w2 = 1.0 + np.sum(g * g, axis=1)
    # (1 - g1^2/W^2) dv_1 - sum_{j>1} (g1 g_j / W^2) dv_j
    cross = np.sum((g[:, :1] * g[:, 1:] / w2[:, None]) * dv[:, 1:], axis=1)
    res = (1.0 - g[:, 0] ** 2 / w2) * dv[:, 0] - cross
    return float(np.max(np.abs(res)))
