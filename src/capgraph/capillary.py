"""Pointwise capillary algebra on graphs over the half-space.

For a height function u with gradient g = Du, the package works throughout
with the area element W = sqrt(1 + |g|^2), the capillary area element
v = W + cos(theta) g_1 (bounded below by sin(theta)), the upward unit normal
nu = (-g, 1)/W, and the outward unit conormal mu along the wall {x1 = 0}.
The sign convention for mu is outward: <mu, e1> = -sin(theta) on capillary
graphs.  The exact affine solution family doubles as the test oracle for the
solver modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateAngle, ShapeMismatch, ZeroVector
from .geometry import HalfSpaceGrid

DEFAULT_SIN_MIN = 0.05


@dataclass(frozen=True)
class CapillaryAngle:
    """Validated contact angle in (0, pi) with cached trigonometry.

    Angles with sin(theta) below the floor are rejected; every estimate
    constant in the package degenerates as theta approaches 0 or pi.
    """

    theta: float
    sin_min: float = DEFAULT_SIN_MIN

    def __post_init__(self):
        t = float(self.theta)
        if not np.isfinite(t) or not (0.0 < t < np.pi):
            raise DegenerateAngle(f"theta must lie in (0, pi), got {t}")
        if np.sin(t) < self.sin_min - 1e-12:
            raise DegenerateAngle(
                f"sin(theta)={np.sin(t):.3g} below floor {self.sin_min}"
            )
        if abs(np.cos(t)) == 1.0:
            # theta within about 1e-8 of 0 or pi: cos^2 = 1 empties every range
            raise DegenerateAngle(f"cos(theta) rounds to +-1 at theta={t}")

    @cached_property
    def cos_t(self) -> float:
        # snap roundoff at theta = pi/2 so the free-boundary case is exact
        c = float(np.cos(self.theta))
        return 0.0 if abs(c) < 1e-15 else c

    @cached_property
    def sin_t(self) -> float:
        return float(np.sin(self.theta))

    @cached_property
    def cot_t(self) -> float:
        return self.cos_t / self.sin_t

    @property
    def is_free_boundary(self) -> bool:
        return abs(self.cos_t) < 1e-15


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Nodal values of the height function on a grid."""

    grid: HalfSpaceGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n_nodes,):
            raise ShapeMismatch(
                f"expected {self.grid.n_nodes} nodal values, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite at every node")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def lattice(self) -> np.ndarray:
        return self.grid.reshape(self.values)


@dataclass(frozen=True, eq=False)
class GradientField:
    """Per-node gradient vectors plus a tag recording the stencil used."""

    grid: HalfSpaceGrid
    vectors: np.ndarray        # (n_nodes, dim)
    scheme: str

    def __post_init__(self):
        vec = np.asarray(self.vectors, dtype=float)
        if vec.shape != (self.grid.n_nodes, self.grid.dim):
            raise ShapeMismatch(
                f"expected gradient shape {(self.grid.n_nodes, self.grid.dim)}, "
                f"got {vec.shape}"
            )
        if not np.all(np.isfinite(vec)):
            raise ValueError("gradient entries must be finite")
        vec = vec.copy()
        vec.flags.writeable = False
        object.__setattr__(self, "vectors", vec)


def field_from_callable(grid: HalfSpaceGrid, fn) -> ScalarField:
    """Evaluate fn on the grid nodes; fn takes an (N, dim) array."""
    return ScalarField(grid, np.asarray(fn(grid.nodes), dtype=float))


# ---------------------------------------------------------------------------
# Pointwise quantities
# ---------------------------------------------------------------------------

def area_element(g) -> np.ndarray | float:
    """W = sqrt(1 + |g|^2) for one gradient or a (..., dim) batch."""
    arr = np.atleast_1d(np.asarray(g, dtype=float))
    out = np.sqrt(1.0 + np.sum(arr * arr, axis=-1))
    return float(out) if out.ndim == 0 else out


def capillary_area_element(g, theta: CapillaryAngle) -> np.ndarray | float:
    """v = W + cos(theta) g_1; always >= sin(theta)."""
    arr = np.atleast_1d(np.asarray(g, dtype=float))
    out = area_element(arr) + theta.cos_t * arr[..., 0]
    return float(out) if out.ndim == 0 else out


def capillary_gauge(xi, theta: CapillaryAngle) -> np.ndarray | float:
    """Anisotropic gauge |xi| - cos(theta) <xi, e1>; positive off the origin."""
    arr = np.asarray(xi, dtype=float)
    norm = np.sqrt(np.sum(arr * arr, axis=-1))
    if np.any(norm == 0.0):
        raise ZeroVector("gauge is not defined at the zero vector")
    out = norm - theta.cos_t * arr[..., 0]
    return float(out) if out.ndim == 0 else out


def unit_normal(g) -> np.ndarray:
    """Upward unit normal (-g, 1)/W of the graph, in R^(dim+1)."""
    arr = np.atleast_1d(np.asarray(g, dtype=float))
    w = np.sqrt(1.0 + np.sum(arr * arr, axis=-1))
    out = np.concatenate([-arr, np.ones(arr.shape[:-1] + (1,))], axis=-1)
    return out / w[..., None]


def conormal(g) -> np.ndarray:
    """Outward unit conormal of the graph boundary over the wall {x1 = 0}.

    Orthogonal to unit_normal(g) and of unit length for every finite g; the
    sign is pinned so that <mu, e1> = -sin(theta) when g satisfies the
    contact-angle condition (mu points out of the wetted region).
    """
    arr = np.atleast_1d(np.asarray(g, dtype=float))
    w = np.sqrt(1.0 + np.sum(arr * arr, axis=-1))
    g1 = arr[..., 0]
    bar = arr[..., 1:]
    b = np.sqrt(1.0 + np.sum(bar * bar, axis=-1))
    out = np.empty(arr.shape[:-1] + (arr.shape[-1] + 1,))
    out[..., 0] = -b * b
    out[..., 1:-1] = bar * g1[..., None]
    out[..., -1] = -g1
    return out / (w * b)[..., None]


def ghost_closure(tangential_grad, theta: CapillaryAngle) -> np.ndarray | float:
    """Wall-normal slope u_1 = -cot(theta) sqrt(1 + |s|^2) closing a boundary
    stencil: the unique root of the contact-angle condition given the
    tangential gradient s (empty in 1D), for one s or a (..., dim-1) batch."""
    s = np.atleast_1d(np.asarray(tangential_grad, dtype=float))
    out = -theta.cot_t * np.sqrt(1.0 + np.sum(s * s, axis=-1))
    return float(out) if out.ndim == 0 else out


def calibration_value(g_sigma, n_plane, theta: CapillaryAngle) -> np.ndarray | float:
    """Pairing of the shifted normal nu(g) - cos(theta) e1 with a unit normal
    n_plane of a competitor hyperplane.

    Bounded above by capillary_gauge(n_plane, theta), with equality exactly
    when n_plane coincides with unit_normal(g_sigma).
    """
    nu = unit_normal(g_sigma)
    npl = np.asarray(n_plane, dtype=float)
    shifted = nu.copy()
    shifted[..., 0] -= theta.cos_t
    out = np.sum(shifted * npl, axis=-1)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Cell quadrature (shared with the solver)
# ---------------------------------------------------------------------------

def edge_differences(grid: HalfSpaceGrid, values: np.ndarray) -> np.ndarray:
    """One-sided edge differences of every cell, one contiguous row each.

    Returns (1, n_cells) in 1D (the cell difference) and (4, n_cells) in 2D
    with rows (d_b, d_t, d_l, d_r): the x1-differences along the low-x2 and
    high-x2 edges, then the x2-differences along the low-x1 and high-x1
    edges.  Quadrant (corner) q = 2 i + j of a 2D cell has the gradient
    (row i, row 2 + j).  These differences are the stencil behind both the
    discrete energy and the solver residual, so energy stationarity and the
    discrete equation agree exactly.
    """
    vals = np.asarray(values, dtype=float)
    c = grid.corner_rows
    h = grid.h
    if grid.dim == 1:
        return ((vals[c[1]] - vals[c[0]]) / h)[None]
    out = np.empty((4, c.shape[1]))
    out[0] = (vals[c[1]] - vals[c[0]]) / h    # x1-difference, low-x2 edge
    out[1] = (vals[c[3]] - vals[c[2]]) / h    # x1-difference, high-x2 edge
    out[2] = (vals[c[2]] - vals[c[0]]) / h    # x2-difference, low-x1 edge
    out[3] = (vals[c[3]] - vals[c[1]]) / h    # x2-difference, high-x1 edge
    return out


def capillary_energy(u: ScalarField, theta: CapillaryAngle, cells=None) -> float:
    """Discrete capillary energy: cell quadrature of v over the domain.

    `cells` optionally restricts the sum to a subset of cell indices, so the
    energy is additive over disjoint cell partitions by construction.
    """
    d = edge_differences(u.grid, u.values)
    if cells is not None:
        d = d[:, np.asarray(cells, dtype=int)]
    cos_t = theta.cos_t
    if u.grid.dim == 1:
        g = d[0]
        v = np.sqrt(1.0 + g * g) + cos_t * g
    else:
        # v = W + cos(theta) g1 per quadrant, averaged in quadrant order
        sq = d * d
        v0, v1, v2, v3 = (np.sqrt(1.0 + (sq[i] + sq[j])) + cos_t * d[i]
                          for i in (0, 1) for j in (2, 3))
        v = (((v0 + v1) + v2) + v3) / 4.0
    cell_vol = u.grid.h ** u.grid.dim
    return float(cell_vol * np.sum(v))


# ---------------------------------------------------------------------------
# Boundary diagnostics and the affine oracle family
# ---------------------------------------------------------------------------

def _one_sided_normal_slope(lattice: np.ndarray, h: float) -> np.ndarray:
    """Second-order one-sided d/dx1 at the wall row (first-order fallback
    when the grid has fewer than three layers)."""
    if lattice.shape[0] >= 3:
        return (-3.0 * lattice[0] + 4.0 * lattice[1] - lattice[2]) / (2.0 * h)
    return (lattice[1] - lattice[0]) / h


def capillary_boundary_residual(u: ScalarField, theta: CapillaryAngle) -> np.ndarray:
    """u_1 + cos(theta) W per capillary node, from one-sided differences.

    Zero exactly when the discrete contact-angle condition holds; returned in
    the order of grid.capillary_indices.
    """
    grid = u.grid
    lat = u.lattice()
    u1 = _one_sided_normal_slope(lat, grid.h)
    if grid.dim == 1:
        u1_at = np.atleast_1d(u1)
        gsq_at = u1_at ** 2
    else:
        wall = lat[0]
        tang = np.gradient(wall, grid.h, edge_order=2 if wall.size >= 3 else 1)
        # capillary nodes exclude the two Dirichlet corners of the wall row
        sel = grid.capillary_indices % grid.shape[1]
        u1_at = u1[sel]
        gsq_at = u1_at ** 2 + tang[sel] ** 2
    return u1_at + theta.cos_t * np.sqrt(1.0 + gsq_at)


@dataclass(frozen=True)
class AffineCapillarySolution:
    """Exact affine solution u = -cot(theta) sqrt(1 + |b'|^2) x1 + <b', x'> + c.

    Solves the minimal surface equation identically and meets the wall at the
    prescribed contact angle; the workhorse oracle for solver tests.
    """

    theta: CapillaryAngle
    bprime: tuple[float, ...]
    offset: float

    @cached_property
    def slope(self) -> np.ndarray:
        bp = np.asarray(self.bprime, dtype=float)
        return np.concatenate([[ghost_closure(bp, self.theta)], bp])

    def __call__(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.slope + self.offset

    def on_grid(self, grid: HalfSpaceGrid) -> ScalarField:
        return ScalarField(grid, self(grid.nodes))


def affine_capillary_solution(theta: CapillaryAngle, bprime=(), c: float = 0.0
                              ) -> AffineCapillarySolution:
    """Build the exact affine capillary solution with tangential slope bprime
    and offset c."""
    return AffineCapillarySolution(theta, tuple(float(b) for b in np.atleast_1d(bprime))
                                   if np.size(bprime) else (), float(c))


@dataclass(frozen=True, eq=False)
class BoundaryFrame:
    """Per-capillary-node frame: area elements and the (normal, conormal) pair."""

    node_indices: np.ndarray
    W: np.ndarray
    v: np.ndarray
    nu: np.ndarray             # (n_cap, dim + 1)
    mu: np.ndarray             # (n_cap, dim + 1)


def boundary_frame(grad: GradientField, theta: CapillaryAngle) -> BoundaryFrame:
    """Assemble the boundary frame from an already computed gradient field."""
    idx = grad.grid.capillary_indices
    g = grad.vectors[idx]
    return BoundaryFrame(
        node_indices=idx,
        W=area_element(g),
        v=capillary_area_element(g, theta),
        nu=unit_normal(g),
        mu=conormal(g),
    )
