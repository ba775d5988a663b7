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

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import DegenerateAngle, ShapeMismatch, ZeroVector
from .geometry import HalfSpaceGrid, _row_squares

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


def _cos_theta(theta: CapillaryAngle | np.ndarray) -> float | np.ndarray:
    """cos(theta) of one CapillaryAngle, or elementwise of an array of angles
    in (0, pi), one per point: the same snapped cosine either way."""
    if isinstance(theta, CapillaryAngle):
        return theta.cos_t
    t = np.asarray(theta, dtype=float)
    # a NaN fails both comparisons; the sin(theta) floor of CapillaryAngle
    # is not checked, it would cost a second trig pass over the points
    if t.size and not (np.min(t) > 0.0 and np.max(t) < np.pi):
        raise DegenerateAngle("every angle must lie in (0, pi)")
    # snapped in place on the function's own array, a 0-d one for a 0-d t
    c = np.cos(t, out=np.empty(t.shape))
    c[np.abs(c) < 1e-15] = 0.0
    return c


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


def field_from_callable(grid: HalfSpaceGrid, fn) -> ScalarField:
    """Evaluate fn on the grid nodes; fn takes an (N, dim) array."""
    return ScalarField(grid, np.asarray(fn(grid.nodes), dtype=float))


# ---------------------------------------------------------------------------
# Pointwise quantities
# ---------------------------------------------------------------------------

def area_element(g) -> np.ndarray | float:
    """W = sqrt(1 + |g|^2) for one gradient or a (..., dim) batch."""
    # in place on the function's own array (0-d for one gradient), never on g
    out = _row_squares(np.atleast_1d(np.asarray(g, dtype=float)))
    out += 1.0
    np.sqrt(out, out=out)
    return float(out) if out.ndim == 0 else out


def capillary_area_element(g, theta: CapillaryAngle | np.ndarray
                           ) -> np.ndarray | float:
    """v = W + cos(theta) g_1; always >= sin(theta).  theta is one
    CapillaryAngle or an array of angles broadcasting against g's points."""
    arr = np.atleast_1d(np.asarray(g, dtype=float))
    c, x = _cos_theta(theta), arr[..., 0]
    if isinstance(c, np.ndarray) and c.shape == np.broadcast_shapes(c.shape, x.shape):
        out = np.multiply(c, x, out=c)      # _cos_theta's own array
    else:
        out = c * x
    out += area_element(arr)
    return float(out) if out.ndim == 0 else out


def capillary_gauge(xi, theta: CapillaryAngle | np.ndarray) -> np.ndarray | float:
    """Anisotropic gauge |xi| - cos(theta) <xi, e1>; positive off the origin.
    theta is one CapillaryAngle or an array of angles broadcasting against
    xi's vectors."""
    arr = np.asarray(xi, dtype=float)
    norm = np.sqrt(np.sum(arr * arr, axis=-1))
    if np.any(norm == 0.0):
        raise ZeroVector("gauge is not defined at the zero vector")
    out = norm - _cos_theta(theta) * arr[..., 0]
    return float(out) if out.ndim == 0 else out


def unit_normal(g) -> np.ndarray:
    """Upward unit normal (-g, 1)/W of the graph, in R^(dim+1)."""
    arr = np.atleast_1d(np.asarray(g, dtype=float))
    out = np.concatenate([-arr, np.ones(arr.shape[:-1] + (1,))], axis=-1)
    return out / np.expand_dims(area_element(arr), -1)


def conormal(g) -> np.ndarray:
    """Outward unit conormal of the graph boundary over the wall {x1 = 0}.

    Orthogonal to unit_normal(g) and of unit length for every finite g; the
    sign is pinned so that <mu, e1> = -sin(theta) when g satisfies the
    contact-angle condition (mu points out of the wetted region).
    """
    arr = np.atleast_1d(np.asarray(g, dtype=float))
    w = area_element(arr)
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
    """One-sided edge differences of every cell, one contiguous row per edge.

    Returns (dim 2^(dim-1), n_cells): the x1 edges, then the x2 edges and so
    on, each axis in low-corner order (in 2D the rows d_b, d_t, d_l, d_r).
    A (..., n_nodes) batch of nodal values gives these rows behind its
    leading axes.  Quadrant (corner) q takes gradient component a from the
    x_a edge through q.  This stencil is behind both the discrete energy and
    the solver residual, so energy stationarity and the discrete equation
    agree exactly.
    """
    vals = np.asarray(values, dtype=float)
    # one field's gather takes numpy's fast path, two to three times the
    # speed of the general one a batch needs
    corners = (vals[grid.corner_rows] if vals.ndim == 1
               else vals[..., grid.corner_rows])
    d = np.empty(corners.shape[:-2] + (grid.dim * 2 ** (grid.dim - 1),
                                       corners.shape[-1]))
    for out, hi, lo in _edge_views(corners, d, grid.dim):
        np.subtract(hi, lo, out=out)
    d /= grid.h
    return d


def _edge_views(corners: np.ndarray, d: np.ndarray, dim: int) -> list[tuple]:
    """Per axis a, the views (out, high, low) of the x_a rows of the edge
    differences d and of the high and low corners of the x_a edges in the
    (..., 2^dim, n_cells) corner values: np.subtract(high, low, out=out),
    then d /= h, fills d as edge_differences does."""
    n_cells = corners.shape[-1]
    cube = corners.reshape(corners.shape[:-2] + (2,) * dim + (n_cells,))
    rows = d.reshape(d.shape[:-2] + (dim,) + (2,) * (dim - 1) + (n_cells,))
    return [(rows[(Ellipsis, a) + (slice(None),) * dim], cube[hi], cube[lo])
            for a, (lo, hi) in enumerate(_edge_ends(dim))]


@cache
def _edge_ends(dim: int) -> list[tuple[tuple, tuple]]:
    """Per axis a, the indices of the low and of the high corners of the x_a
    edges in a (...,) + (2,)*dim + (n_cells,) array of corner values, which
    holds corner j at index (bit dim-1, ..., bit 0) of j."""
    return [tuple((Ellipsis, end) + (slice(None),) * (a + 1) for end in (0, 1))
            for a in range(dim)]


def _quadrant_gradients(d: np.ndarray, dim: int) -> list[np.ndarray]:
    """Component a of every quadrant gradient, for each axis a: a view of
    the x_a rows of the edge differences d that broadcasts to (...,) +
    (2,)*dim + (n_cells,), quadrant q at index (bit dim-1, ..., bit 0) of q.
    Its length along bit a is 1: an x_a edge's two quadrants share it."""
    rows = d.reshape(d.shape[:-2] + (dim,) + (2,) * (dim - 1) + (d.shape[-1],))
    return [rows[index] for index in _quadrant_index(dim)]


@cache
def _quadrant_index(dim: int) -> tuple[tuple, ...]:
    """Per axis a, the index of the x_a rows in edge differences shaped
    (...,) + (dim,) + (2,)*(dim-1) + (n_cells,), with a new axis at bit a."""
    return tuple((Ellipsis, a) + (slice(None),) * (dim - 1 - a) + (None,)
                 + (slice(None),) * (a + 1) for a in range(dim))


def capillary_energies(grid: HalfSpaceGrid, values: np.ndarray,
                       theta: CapillaryAngle) -> np.ndarray:
    """Discrete capillary energy of each state in a (..., n_nodes) batch of
    nodal values, shaped (...); capillary_energy is the one-field case.

    Every state's energy is bitwise the same in any batch: the quadrants of
    a cell are added in order and each state's cells are summed along the
    contiguous last axis, one row at a time as np.sum sums a 1-D row, so no
    reduction depends on the batch's layout.
    """
    dim = grid.dim
    d = edge_differences(grid, values)
    g = _quadrant_gradients(d, dim)
    v = np.sqrt(1.0 + sum(_quadrant_gradients(d * d, dim))) + theta.cos_t * g[0]
    # the mean over each cell's quadrants (one shared entry in 1D)
    k = math.prod(v.shape[-dim - 1:-1])
    v = v.reshape(v.shape[:-dim - 1] + (k, v.shape[-1]))
    means = sum(v[..., q, :] for q in range(k)) / k
    return grid.h ** dim * np.add.reduce(means, axis=-1)


def capillary_energy(u: ScalarField, theta: CapillaryAngle) -> float:
    """Discrete capillary energy: cell quadrature of v over the domain."""
    return float(capillary_energies(u.grid, u.values, theta))


# ---------------------------------------------------------------------------
# Nodal gradient and the affine oracle family
# ---------------------------------------------------------------------------

def _nodal_gradient(grid: HalfSpaceGrid, values: np.ndarray) -> np.ndarray:
    """(n_nodes, dim) nodal gradient without a wall closure: centered
    second-order differences inside, one-sided second-order on every box
    face (first order on an axis with only two nodes)."""
    lat = grid.reshape(values)
    return np.stack([np.gradient(lat, grid.h, axis=a, edge_order=2 if n >= 3 else 1)
                     for a, n in enumerate(grid.shape)], axis=-1).reshape(-1, grid.dim)


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
