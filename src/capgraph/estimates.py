"""Analytic apparatus behind the gradient estimates, evaluated numerically.

Covers the ellipsoidal cut-off profile and its derivative identities, the
height weight and the auxiliary function whose maximum is analyzed, the
admissible-angle range with its explicit dimensional threshold, the slope
limit for one-sided linear bounds, the generic exponential gradient bound,
and the coefficient expressions of the squared second derivatives in the
maximum-principle inequality together with their dimensional lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import numpy as np

from .capillary import (CapillaryAngle, ScalarField, _one_sided_normal_slope,
                        capillary_area_element)
from .errors import (AngleOutOfRange, DegenerateState, HypothesisViolation,
                     ShapeMismatch)
from .geometry import EllipsoidRegion, RegionKind, in_region
from .solver import ProblemSpec, _check_field, discrete_gradient

DEFAULT_NSTAR = 1.0 / 36.0


@dataclass(frozen=True)
class LinearBound:
    """Linear comparison function L(x) = <slope, x> + offset."""

    slope: tuple[float, ...]
    offset: float = 0.0

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ np.asarray(self.slope) + self.offset

    @property
    def slope_norm(self) -> float:
        return float(np.linalg.norm(self.slope))


@dataclass(frozen=True)
class CutoffParams:
    """Parameters of the ellipsoidal cut-off and its shifted variant.

    `m_scale` is the sup|u| + r constant of the height weight; `bound` is the
    optional linear comparison function of the one-sided estimate (its slope
    must respect the angle-dependent limit) and is implicitly zero otherwise.
    """

    r: float
    theta: CapillaryAngle
    dim: int = 2
    center: tuple[float, ...] = ()
    nstar: float = DEFAULT_NSTAR
    m_scale: float | None = None
    bound: LinearBound | None = None

    def __post_init__(self):
        if not (np.isfinite(self.r) and self.r > 0.0):
            raise ValueError(f"r must be positive, got {self.r}")
        if self.nstar <= 0.0:
            raise ValueError("nstar must be positive")
        if self.m_scale is not None and self.m_scale <= 0.0:
            raise ValueError("m_scale must be positive")
        center = tuple(float(c) for c in self.center)
        if center and len(center) != self.dim - 1:
            raise ShapeMismatch(
                f"center needs {self.dim - 1} tangential components, got {len(center)}"
            )
        object.__setattr__(self, "center", center)
        if self.bound is not None:
            if len(self.bound.slope) != self.dim:
                raise ShapeMismatch("bound slope length must equal dim")
            limit = one_sided_slope_limit(self.theta)
            if self.bound.slope_norm > limit + 1e-15:
                raise HypothesisViolation(
                    f"|DL|={self.bound.slope_norm:.3e} exceeds the slope "
                    f"limit {limit:.3e} for theta={self.theta.theta:.4f}"
                )

    def outer_region(self) -> EllipsoidRegion:
        return EllipsoidRegion(self.r, self.theta, RegionKind.OUTER, self.center)


def cutoff_profile(points, params: CutoffParams) -> np.ndarray | float:
    """Quadratic profile 1 - ((x1 - |cos| r)^2 + sin^2 |x' - p'|^2) / r^2.

    The cut-off weight is its square; the profile vanishes on the relative
    boundary of the outer ellipsoid.
    """
    single = np.asarray(points, dtype=float).ndim == 1
    q = 1.0 - params.outer_region().quadratic_value(points) / params.r ** 2
    return float(q[0]) if single else q


def cutoff_weight(points, params: CutoffParams) -> np.ndarray | float:
    q = cutoff_profile(points, params)
    return q * q


def _profile_gradient(points, params: CutoffParams) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dq = np.empty_like(pts)
    dq[:, 0] = -2.0 * (pts[:, 0] - abs(params.theta.cos_t) * params.r) / params.r ** 2
    if params.dim > 1:
        prime = pts[:, 1:] - np.asarray(params.center) if params.center else pts[:, 1:]
        dq[:, 1:] = -2.0 * params.theta.sin_t ** 2 * prime / params.r ** 2
    return dq


def cutoff_weight_gradient(points, params: CutoffParams) -> np.ndarray:
    """Analytic gradient of the squared profile."""
    q = np.atleast_1d(cutoff_profile(points, params))
    return 2.0 * q[:, None] * _profile_gradient(points, params)


class CutoffCheckReport(NamedTuple):
    max_gradient_violation: float    # of |D psi| <= 4 sqrt(psi) / r in the region
    max_boundary_residual: float     # of d1 psi = 4 sqrt(psi) |cos| / r on the wall
    hessian_constant: float          # measured sup |D^2 psi| r^2
    min_weight_inner: float          # min psi over the inner ellipsoid samples
    inner_lower_bound: float         # (1 - (1 + |cos|)^2 / 4)^2


def cutoff_derivative_check(params: CutoffParams, samples: int,
                            seed: int = 0) -> CutoffCheckReport:
    """Sample the derivative identities of the cut-off weight.

    Checks |D psi| <= 4 sqrt(psi)/r at interior samples, the exact wall
    identity for the normal derivative, the inner lower bound of psi, and
    measures the dimensionless second-derivative constant.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    r, th, dim = params.r, params.theta, params.dim
    c, s = abs(th.cos_t), th.sin_t
    center = np.asarray(params.center) if params.center else np.zeros(dim - 1)

    def draw_inside(count, region):
        rho = region.semiaxis
        pts = np.empty((0, dim))
        while pts.shape[0] < count:
            cand = np.empty((2 * count, dim))
            cand[:, 0] = rng.uniform(max(0.0, c * r - rho), c * r + rho, 2 * count)
            if dim > 1:
                cand[:, 1:] = center + rng.uniform(-rho / s, rho / s,
                                                   (2 * count, dim - 1))
            pts = np.vstack([pts, cand[in_region(cand, region)]])
        return pts[:count]

    pts = draw_inside(samples, params.outer_region())
    psi = np.atleast_1d(cutoff_weight(pts, params))
    grad = cutoff_weight_gradient(pts, params)
    gnorm = np.linalg.norm(grad, axis=1)
    grad_violation = float(np.max(gnorm - 4.0 * np.sqrt(psi) / r))

    n_bdry = max(1, samples // 10)
    bpts = np.zeros((n_bdry, dim))
    if dim > 1:
        while True:
            cand = center + rng.uniform(-r, r, (4 * n_bdry, dim - 1))
            keep = np.sum((cand - center) ** 2, axis=1) < (0.999999 * r) ** 2
            if np.count_nonzero(keep) >= n_bdry:
                bpts[:, 1:] = cand[keep][:n_bdry]
                break
    bpsi = np.atleast_1d(cutoff_weight(bpts, params))
    bgrad = cutoff_weight_gradient(bpts, params)
    boundary_residual = float(
        np.max(np.abs(bgrad[:, 0] - 4.0 * np.sqrt(bpsi) * c / r)))

    # second derivatives: D^2 psi = 2 (DQ DQ^T + Q D^2 Q), D^2 Q diagonal
    q = np.atleast_1d(cutoff_profile(pts, params))
    dq = _profile_gradient(pts, params)
    d2q_diag = np.full(dim, -2.0 / r ** 2)
    if dim > 1:
        d2q_diag[1:] = -2.0 * s ** 2 / r ** 2
    if dim == 1:
        spec_norm = np.abs(2.0 * (dq[:, 0] ** 2 + q * d2q_diag[0]))
    else:
        a = 2.0 * (dq[:, 0] ** 2 + q * d2q_diag[0])
        cc = 2.0 * (dq[:, 1] ** 2 + q * d2q_diag[1])
        b = 2.0 * dq[:, 0] * dq[:, 1]
        half_tr = 0.5 * (a + cc)
        rad = np.sqrt((0.5 * (a - cc)) ** 2 + b ** 2)
        spec_norm = np.maximum(np.abs(half_tr + rad), np.abs(half_tr - rad))
    hessian_constant = float(np.max(spec_norm) * r ** 2)

    ipts = draw_inside(samples, EllipsoidRegion(r, th, RegionKind.INNER, params.center))
    ipsi = np.atleast_1d(cutoff_weight(ipts, params))
    inner_bound = (1.0 - (1.0 + c) ** 2 / 4.0) ** 2
    return CutoffCheckReport(
        max_gradient_violation=grad_violation,
        max_boundary_residual=boundary_residual,
        hessian_constant=hessian_constant,
        min_weight_inner=float(np.min(ipsi)),
        inner_lower_bound=inner_bound,
    )


def shifted_cutoff_profile(points, u_vals, params: CutoffParams) -> np.ndarray | float:
    """Profile plus the height shift (u - L)/(2 nstar r); the shifted weight
    is the squared positive part, and its positivity set is the working
    region of the one-sided estimate."""
    single = np.asarray(points, dtype=float).ndim == 1
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    u = np.atleast_1d(np.asarray(u_vals, dtype=float))
    q = np.atleast_1d(cutoff_profile(pts, params))
    shift = u - (params.bound(pts) if params.bound is not None else 0.0)
    out = q + shift / (2.0 * params.nstar * params.r)
    return float(out[0]) if single else out


def shifted_cutoff_weight(points, u_vals, params: CutoffParams) -> np.ndarray | float:
    qs = shifted_cutoff_profile(points, u_vals, params)
    pos = np.maximum(qs, 0.0)
    return pos * pos


def height_weight(u_val, m_scale: float) -> np.ndarray | float:
    """Affine weight u/(2M) + 1; lies in (1/2, 3/2) while |u| < M."""
    if m_scale <= 0.0:
        raise ValueError("m_scale must be positive")
    out = np.asarray(u_val, dtype=float) / (2.0 * m_scale) + 1.0
    return float(out) if out.ndim == 0 else out


def height_scale(u: ScalarField, region: EllipsoidRegion) -> float:
    """M = sup |u| + r over the nodes inside the region (over all nodes when
    none is inside): the constant of the height weight."""
    mask = in_region(u.grid.nodes, region)
    pool = u.values[mask] if np.any(mask) else u.values
    return float(np.max(np.abs(pool))) + region.r


class AuxiliaryField(NamedTuple):
    values: np.ndarray
    argmax: int
    max_value: float


def auxiliary_function(u: ScalarField, theta: CapillaryAngle,
                       params: CutoffParams,
                       variant: Literal["standard", "shifted"] = "standard",
                       ) -> AuxiliaryField:
    """Nodal height-weight * cutoff-weight * log(capillary area element).

    The standard variant uses the plain ellipsoidal weight, the shifted one
    the height-shifted weight of the one-sided estimate.  Gradients come
    from the solver's nodal stencil.
    """
    grid = u.grid
    if grid.dim != params.dim:
        raise ShapeMismatch("cutoff dim does not match grid dim")
    grad = discrete_gradient(u, theta)
    v = capillary_area_element(grad.vectors, theta)
    m_scale = (height_scale(u, params.outer_region()) if params.m_scale is None
               else params.m_scale)
    phi = height_weight(u.values, m_scale)
    if variant == "standard":
        psi = np.atleast_1d(cutoff_weight(grid.nodes, params))
    elif variant == "shifted":
        psi = np.atleast_1d(shifted_cutoff_weight(grid.nodes, u.values, params))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    vals = phi * psi * np.log(v)
    arg = int(np.argmax(vals))
    return AuxiliaryField(values=vals, argmax=arg, max_value=float(vals[arg]))


# ---------------------------------------------------------------------------
# Angle range, constants, bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngleRangeResult:
    n: int
    theta: CapillaryAngle
    in_range: bool
    threshold: float
    margin: float


def angle_threshold(n: int) -> float:
    """(3n - 7)(n - 1) / (4 (n - 2)^2) for n >= 3; infinite for n = 2 where
    no restriction applies."""
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    if n == 2:
        return np.inf
    return (3.0 * n - 7.0) * (n - 1.0) / (4.0 * (n - 2.0) ** 2)


def admissible_angle_range(n: int, theta: CapillaryAngle) -> AngleRangeResult:
    """Check cos^2(theta) against the dimensional threshold.

    Dimensions 2 and 3 are unrestricted; from dimension 4 on the estimate
    needs cos^2(theta) strictly below the threshold.
    """
    thr = angle_threshold(n)
    margin = thr - theta.cos_t ** 2
    in_range = True if n <= 3 else margin > 0.0
    return AngleRangeResult(n=n, theta=theta, in_range=in_range,
                            threshold=thr, margin=margin)


def one_sided_slope_limit(theta: CapillaryAngle) -> float:
    """Explicit slope limit (1/36) |cos|(1 - sin) / (1 + |cos|/sin) for the
    linear bound of the one-sided estimate; symmetric about pi/2 and zero
    in the free-boundary case."""
    c, s = abs(theta.cos_t), theta.sin_t
    return (1.0 / 36.0) * c * (1.0 - s) / (1.0 + c / s)


def gradient_bound(m_scale: float, r: float, theta: CapillaryAngle,
                   c1: float, c2: float, c3: float) -> float:
    """Bound (1/(1 - |cos|)) exp(c1 + c2 M/r + c3 M^2/r^2); the constants are
    fit/report parameters, not values supplied by the theory."""
    if r <= 0.0:
        raise ValueError("r must be positive")
    if m_scale < r:
        raise ValueError("m_scale is sup|u| + r and cannot be below r")
    ratio = m_scale / r
    return np.exp(c1 + c2 * ratio + c3 * ratio ** 2) / (1.0 - abs(theta.cos_t))


# ---------------------------------------------------------------------------
# Maximum-principle coefficients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoefficientState:
    """State at a candidate interior maximum after rotating coordinates.

    u_n is the (positive) gradient magnitude, b the unit vector of wall-normal
    components in the rotated frame (b[-1] along the gradient direction), and
    eps0 the splitting parameter in (0, 1).  W and v are derived.
    """

    n: int
    theta: CapillaryAngle
    u_n: float
    b: tuple[float, ...]
    eps0: float
    W: float = field(init=False)
    v: float = field(init=False)

    def __post_init__(self):
        if self.n < 2:
            raise DegenerateState(f"dimension must be >= 2, got {self.n}")
        if not (self.u_n > 0.0 and np.isfinite(self.u_n)):
            raise DegenerateState("u_n must be positive and finite")
        if not (0.0 < self.eps0 < 1.0):
            raise DegenerateState("eps0 must lie in (0, 1)")
        b = np.asarray(self.b, dtype=float)
        if b.shape != (self.n,):
            raise ShapeMismatch(f"b must have {self.n} components")
        if abs(b @ b - 1.0) > 1e-12:
            raise DegenerateState("b must be a unit vector to 1e-12")
        object.__setattr__(self, "b", tuple(b))
        w = float(np.sqrt(1.0 + self.u_n ** 2))
        object.__setattr__(self, "W", w)
        object.__setattr__(
            self, "v", w + abs(self.theta.cos_t) * self.u_n * b[-1])


@dataclass(frozen=True)
class MaxPrincipleCoefficients:
    """Coefficients of the squared second derivatives and their lower bound.

    `tangent_tangent[i]` multiplies the i-th pure tangential term,
    `paired_lower_bounds` are the combined bounds after pairing with the
    worst index (sorted by decreasing b_i^2), and `range_lower_bound` is the
    dimensional constant whose positivity is the admissibility condition.
    """

    normal_normal: float
    normal_tangent: float
    tangent_tangent: np.ndarray
    paired_lower_bounds: np.ndarray
    range_lower_bound: float


def angle_condition_lower_bound(n: int, theta: CapillaryAngle, eps0: float) -> float:
    """-(n-1+e)^2 / (4(n-2+e)) + (n-1+e) - (n-2+e) cos^2; positive exactly
    when the splitting condition holds."""
    denom = n - 2.0 + eps0
    if denom <= 0.0:
        raise DegenerateState("n - 2 + eps0 must be positive")
    a = n - 1.0 + eps0
    return -a * a / (4.0 * denom) + a - denom * theta.cos_t ** 2


def _splitting_lhs(n: int, eps0):
    """((n-1+e)/(n-2+e)) (1 - (n-1+e)/(4(n-2+e))), elementwise in eps0."""
    denom = n - 2.0 + eps0
    a = n - 1.0 + eps0
    return (a / denom) * (1.0 - a / (4.0 * denom))


def angle_condition_holds(n: int, theta: CapillaryAngle, eps0: float) -> bool:
    """Splitting condition: _splitting_lhs(n, eps0) > cos^2(theta)."""
    if n - 2.0 + eps0 <= 0.0:
        raise DegenerateState("n - 2 + eps0 must be positive")
    return _splitting_lhs(n, eps0) > theta.cos_t ** 2


def choose_eps0(n: int, theta: CapillaryAngle, tol: float = 1e-12) -> float:
    """Midpoint of the open subinterval of (0, 1) where the splitting
    condition holds, endpoints located by bisection.

    Raises AngleOutOfRange when no admissible eps0 exists.
    """
    cos2 = theta.cos_t ** 2

    def f(eps):
        # elementwise, so the array scan and the scalar bisection agree bitwise
        return _splitting_lhs(n, eps) - cos2

    lo_edge, hi_edge = 1e-15, 1.0 - 1e-15
    grid = np.linspace(lo_edge, hi_edge, 1025)
    pos = f(grid) > 0.0
    if not np.any(pos):
        raise AngleOutOfRange(
            f"no admissible eps0 in (0,1) for n={n}, theta={theta.theta:.4f}")

    def bisect(a, b):
        # sign change between a and b; return the root to tolerance tol
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

    # collect maximal positive runs; the condition is quadratic so there is
    # at most one, but scan generically
    best = None
    i = 0
    while i < grid.size:
        if pos[i]:
            j = i
            while j + 1 < grid.size and pos[j + 1]:
                j += 1
            left = 0.0 if i == 0 else bisect(grid[i - 1], grid[i])
            right = 1.0 if j == grid.size - 1 else bisect(grid[j], grid[j + 1])
            if best is None or right - left > best[1] - best[0]:
                best = (left, right)
            i = j + 1
        else:
            i += 1
    return 0.5 * (best[0] + best[1])


def max_principle_coefficients(state: CoefficientState,
                               correction: float = 0.0) -> MaxPrincipleCoefficients:
    """Evaluate the leading coefficient expressions at the given state.

    With correction = 0 the log-correction terms are dropped (leading order);
    a positive correction constant C reinstates them, which requires
    v log v > 0.
    """
    n, th = state.n, state.theta
    ac = abs(th.cos_t)
    u_n, w, v = state.u_n, state.W, state.v
    b = np.asarray(state.b)
    b_n = b[-1]
    b_tang = b[:-1]

    if correction != 0.0:
        logv = np.log(v)
        if v * logv <= 0.0:
            raise DegenerateState(
                "log-correction terms require v log v > 0 (v > 1)")
        corr_nn = correction / (v * logv)
        corr_w = correction * w / logv
    else:
        corr_nn = corr_w = 0.0

    normal_normal = (u_n + ac * w * b_n) * u_n / w ** 3 - corr_nn
    normal_tangent = (u_n + ac * w * b_n) * u_n / w - corr_w
    tangent_tangent = (w * (w + ac * u_n * b_n)
                       - ac ** 2 * w ** 2 * b_tang ** 2) / v - corr_w

    order = np.argsort(-(b_tang ** 2), kind="stable")
    b_sorted = b_tang[order]
    eps = state.eps0
    if n >= 3:
        lead = 1.0 + ac * b_n - ac ** 2 * b_sorted[0] ** 2
        paired = (1.0 + ac * b_n - ac ** 2 * b_sorted[1:] ** 2
                  + (n - 2.0 + eps) * lead)
    else:
        paired = np.empty(0)
    return MaxPrincipleCoefficients(
        normal_normal=float(normal_normal),
        normal_tangent=float(normal_tangent),
        tangent_tangent=np.atleast_1d(tangent_tangent),
        paired_lower_bounds=paired,
        range_lower_bound=angle_condition_lower_bound(n, th, eps),
    )


# ---------------------------------------------------------------------------
# Solved-field diagnostics
# ---------------------------------------------------------------------------

def conormal_stationarity_residual(u: ScalarField, theta: CapillaryAngle,
                                   corner_margin: float = 0.0) -> float:
    """Max over capillary nodes of |g^{1j} d_j v|, the discrete form of the
    conormal stationarity of the capillary area element.

    Vanishes for exact capillary solutions; for solved fields it decays with
    the mesh.  `corner_margin` excludes wall nodes within that distance of
    the wall corners, where the Dirichlet-wins corner rule commits a local
    error that does not decay in the recovered derivative.
    """
    grid = u.grid
    grad = discrete_gradient(u, theta)
    v = capillary_area_element(grad.vectors, theta)
    vlat = grid.reshape(v)
    h = grid.h
    dv1 = _one_sided_normal_slope(vlat, h)
    cap = grid.capillary_indices
    if grid.dim == 1:
        g = grad.vectors[cap[0]]
        w2 = 1.0 + g[0] ** 2
        return float(abs((1.0 - g[0] ** 2 / w2) * dv1))
    cols = cap % grid.shape[1]
    if corner_margin > 0.0:
        x2 = grid.axis_coords(1)[cols]
        keep = np.abs(x2) <= grid.Lp - corner_margin
        if np.any(keep):
            cap, cols = cap[keep], cols[keep]
    dv2 = np.gradient(vlat[0], h, edge_order=2 if vlat.shape[1] >= 3 else 1)
    g = grad.vectors[cap]
    w2 = 1.0 + np.sum(g * g, axis=1)
    res = (1.0 - g[:, 0] ** 2 / w2) * dv1[cols] - (g[:, 0] * g[:, 1] / w2) * dv2[cols]
    return float(np.max(np.abs(res)))


def nondivergence_residual(u: ScalarField, spec: ProblemSpec) -> np.ndarray:
    """(W^2 d_ij - u_i u_j) u_ij - H W^3 at interior nodes, via centered
    differences; diagnostic cross-check of the divergence-form residual."""
    _check_field(u, spec)
    grid = u.grid
    lat = u.lattice()
    h = grid.h
    source = grid.reshape(spec.source_at_nodes())
    if grid.dim == 1:
        u1 = np.gradient(lat, h, edge_order=2 if lat.size >= 3 else 1)
        u11 = np.zeros_like(lat)
        u11[1:-1] = (lat[2:] - 2.0 * lat[1:-1] + lat[:-2]) / h ** 2
        w2 = 1.0 + u1 ** 2
        res = (w2 - u1 ** 2) * u11 - source * w2 ** 1.5
        return res[grid.interior_indices]
    e0 = 2 if grid.shape[0] >= 3 else 1
    e1 = 2 if grid.shape[1] >= 3 else 1
    u1 = np.gradient(lat, h, axis=0, edge_order=e0)
    u2 = np.gradient(lat, h, axis=1, edge_order=e1)
    u11 = np.zeros_like(lat)
    u22 = np.zeros_like(lat)
    u12 = np.zeros_like(lat)
    u11[1:-1, :] = (lat[2:, :] - 2.0 * lat[1:-1, :] + lat[:-2, :]) / h ** 2
    u22[:, 1:-1] = (lat[:, 2:] - 2.0 * lat[:, 1:-1] + lat[:, :-2]) / h ** 2
    u12[1:-1, 1:-1] = (lat[2:, 2:] - lat[2:, :-2] - lat[:-2, 2:]
                       + lat[:-2, :-2]) / (4.0 * h ** 2)
    w2 = 1.0 + u1 ** 2 + u2 ** 2
    res = ((w2 - u1 ** 2) * u11 - 2.0 * u1 * u2 * u12 + (w2 - u2 ** 2) * u22
           - source * w2 ** 1.5)
    return res.ravel()[grid.interior_indices]
