"""Finite-volume solver for div(Du/W) = H with contact-angle wall condition.

The residual is the exact gradient of the discrete capillary energy, driven
to zero by damped inexact Newton with a lifted first step and multigrid-
preconditioned CG (README, numerical notes).  Newton systems are solved in
their volume-weighted SPD form, the only one _pcg accepts.  The multigrid
hierarchy is the grid's tuple of Coarsening records (geometry), read level
by level.  The free nodes of every level form a box of its lattice
(geometry.free_shape), so each level's operator is stored by diagonals,
one per stencil delta: the fine level's added up from the cell blocks by
slices, a coarse level's by one bincount through its Coarsening's scatter
plan, which gives the exactly solved last level its dense matrix instead;
the prolongations are the only CSR arrays.  Each solve carves one scratch slab
(_Scratch) into the fine grid's kernel buffers, which the residuals, the
cell blocks, the fine level's diagonals and its first coarsening reuse, so
no call maps fresh memory.  All reductions have fixed order (numpy loops,
not BLAS), so runs are bitwise reproducible at any BLAS thread count; and
the convergence target stays anchored on the residual of the imposed
affine start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, cached_property
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .capillary import (CapillaryAngle, GradientField, ScalarField,
                        _edge_ends, _edge_views, _nodal_gradient,
                        _quadrant_gradients, affine_capillary_solution,
                        capillary_area_element, capillary_energy,
                        ghost_closure)
from .errors import (InvalidParameter, InvariantViolation, LinearSolveFailure,
                     ShapeMismatch)
from .geometry import (Coarsening, HalfSpaceGrid, _coarse_shape, _coarsenings,
                       _diagonal_map, _strides, _upper_entries, free_shape)

if TYPE_CHECKING:
    from collections.abc import Callable


class SolveStatus(Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    STALLED = "stalled"      # the line search found no acceptable step
    DIVERGED = "diverged"
    LINEAR_FAILURE = "linear_failure"   # a Krylov solve broke down or stagnated


@dataclass(frozen=True)
class SolverConfig:
    tol_residual: float = 1e-10      # relative infinity-norm target

    def __post_init__(self):
        if not (math.isfinite(v := self.tol_residual) and v > 0.0):
            raise InvalidParameter(f"tol_residual must be positive and finite, got {v}")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Problem data: grid, contact angle, curvature source, Dirichlet values.

    `H` is a constant or a callable on an (N, dim) array of points; it
    must be pure: newton_solve evaluates source_at_nodes() once per solve
    and hands the array to every residual, which for a pure H is bitwise
    the same as evaluating it per residual (assemble_residual still does).
    `dirichlet` is aligned with grid.dirichlet_indices.
    """

    grid: HalfSpaceGrid
    theta: CapillaryAngle
    dirichlet: np.ndarray
    H: object = 0.0
    initial: ScalarField | None = None

    def __post_init__(self):
        vals = np.asarray(self.dirichlet, dtype=float)
        need = self.grid.dirichlet_indices.size
        if vals.shape != (need,):
            raise ShapeMismatch(
                f"dirichlet must cover exactly the {need} Dirichlet nodes, "
                f"got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise InvalidParameter("dirichlet values must be finite")
        object.__setattr__(self, "dirichlet", vals.copy())
        if not callable(self.H) and not np.isfinite(float(self.H)):
            raise InvalidParameter("H must be finite")
        if self.initial is not None:
            _check_field(self.initial, self)

    @classmethod
    def from_boundary_data(cls, grid, theta, data, H=0.0, initial=None):
        """Build a spec from a callable (or array) of Dirichlet data."""
        if callable(data):
            vals = np.asarray(data(grid.nodes[grid.dirichlet_indices]), dtype=float)
        else:
            vals = np.asarray(data, dtype=float)
        return cls(grid=grid, theta=theta, dirichlet=vals, H=H, initial=initial)

    def source_at_nodes(self) -> np.ndarray:
        if callable(self.H):
            return np.asarray(self.H(self.grid.nodes), dtype=float)
        return np.full(self.grid.n_nodes, float(self.H))

    def impose(self, values: np.ndarray) -> np.ndarray:
        out = np.array(values, dtype=float)
        out[self.grid.dirichlet_indices] = self.dirichlet
        return out


@dataclass(frozen=True)
class SolveReport:
    # the residual of the start, then of each accepted step: [-1] is the final one
    residual_history: tuple[float, ...]
    v_min: float
    energy: float
    status: SolveStatus
    # the read-only (n_nodes, dim) _gradient_vectors of the solution, which
    # v_min is taken from; not compared and not shown
    gradient: np.ndarray = field(compare=False, repr=False)

    @property
    def iterations(self) -> int:
        """Accepted Newton steps."""
        return len(self.residual_history) - 1


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _view(slab: np.ndarray, start: int, shape: tuple) -> np.ndarray:
    return slab[start:start + math.prod(shape)].reshape(shape)


class _Cells(NamedTuple):
    """One cell-kernel pass's stencil buffers, views of a _Scratch slab."""
    load: Callable[[np.ndarray], None]   # fills them from nodal values
    g: list             # quadrant gradients: views of the edge differences
    sq: list            # their squares: views of the squared differences
    w: np.ndarray       # W^2 = 1 + |g|^2, _quadrant_shape
    spare: np.ndarray   # a _quadrant_shape view of the corner gather, dead
                        # once the differences are taken


def _cells(grid: HalfSpaceGrid, slab: np.ndarray, start: int) -> _Cells:
    """The stencil buffers of a pass from `start`: corner gather, edge
    differences, their squares and W^2, in that order."""
    dim, rows, h = grid.dim, grid.corner_rows, grid.h
    k, n = rows.shape
    e = dim * k // 2
    corners = _view(slab, start, (k, n))
    d = _view(slab, start + k * n, (e, n))
    sq = _view(slab, start + (k + e) * n, (e, n))
    wshape = _quadrant_shape(dim, n)
    w = _view(slab, start + (k + 2 * e) * n, wshape)
    edges = _edge_views(corners, d, dim)
    sqq = _quadrant_gradients(sq, dim)

    def load(vals):
        # the indices are in range: the mode only spares take a buffered
        # copy of `out`
        np.asarray(vals, dtype=float).take(rows, out=corners, mode="wrap")
        for out, hi, lo in edges:
            np.subtract(hi, lo, out=out)
        np.divide(d, h, out=d)
        np.multiply(d, d, out=sq)
        _one_plus_sum(sqq, w)

    return _Cells(load, _quadrant_gradients(d, dim), sqq, w,
                  _view(slab, start, wshape))


def _quadrant_shape(dim: int, n_cells: int) -> tuple[int, ...]:
    """The shape of a value per quadrant of every cell: the quadrant
    gradients broadcast to it (in 1D the two quadrants share their one
    x1 edge, so it is (1, n_cells))."""
    return ((2,) * dim if dim > 1 else (1,)) + (n_cells,)


def _cells_size(dim: int, n_cells: int) -> int:
    """The slab length of _cells: corner gather, two (dim 2^(dim-1),
    n_cells) difference buffers and W^2."""
    k = 2 ** dim
    return (k + dim * k) * n_cells + math.prod(_quadrant_shape(dim, n_cells))


def _one_plus_sum(terms: list, out: np.ndarray) -> None:
    """out = 1.0 + sum(terms) rounded as written (0 + t is t for the
    squares here), into `out`, to which the terms broadcast."""
    if len(terms) < 2:
        np.add(1.0, terms[0] if terms else 0.0, out=out)
        return
    np.add(terms[0], terms[1], out=out)
    for t in terms[2:]:
        out += t
    out += 1.0


class _Scratch:
    """One Newton solve's scratch: a float64 slab carved into the buffers
    of the fine grid's cell kernels, with every view built here, once, so
    that a kernel call looks nothing up and allocates only its result.

    The slab has two lanes, each holding one set of buffers at a time.
    Lane 0 holds the (k*k, n_cells) cell blocks of _hessian_blocks; before
    the blocks are written, its stencil buffers (_cells; the square root
    of W^2 reuses the corner gather); and once their upper-triangle rows
    are copied, the gathers of the first coarsening (_coarse_blocks).
    Lane 1 holds what is used while the blocks live, or after them: the
    blocks' stacked upper triangles; the residual's stencil buffers
    (_energy_gradient: the quotient reuses the squares, the corner cube
    the corner gather, and a half buffer takes the per-axis flux sums);
    the corner gather and products of _block_action; or the fine level's
    DIA data (_free_level), which live through _pcg, with the blocks'
    upper-triangle rows behind them.  A kernel called without a scratch
    builds its own.
    """

    def __init__(self, grid: HalfSpaceGrid):
        dim, rows = grid.dim, grid.corner_rows
        k, n = rows.shape
        pairs = [(a, b) for a in range(dim) for b in range(a, dim)]  # triu order
        upper_index = _upper_entries(dim)[0]
        free = free_shape(grid.shape)
        dia = 3 ** dim * math.prod(free)
        start, lane1 = _slab_lanes(grid.shape)
        slab = np.empty(start + lane1)
        self._slab, self._grid = slab, grid
        self.rows_flat = rows.ravel()

        # _hessian_blocks
        self.hessian = _cells(grid, slab, 0)
        self.triangles = _view(slab, start, (len(pairs) * k, n))
        entries = _view(slab, start, (len(pairs),) + (2,) * dim + (n,))
        self.numerators = [(entries[t], a, b) for t, (a, b) in enumerate(pairs)]
        self.blocks = _view(slab, 0, (k * k, n))

        # _energy_gradient
        self.residual = c = _cells(grid, slab, start)
        wshape = c.w.shape
        self.quot = _view(slab, start + (k + dim * k // 2) * n, wshape)
        half = _view(slab, start + _cells_size(dim, n), (2,) * (dim - 1) + (n,))
        self.half, self.half0 = half, half.reshape(c.g[0].shape)
        cube = _view(slab, start, (2,) * dim + (n,))
        self.cube, self.cube_flat = cube, cube.reshape(-1)
        scale = grid.h ** (dim - 1) / 2 ** (dim - 1)
        # per axis: scale times the mean over the edge's quadrants (one
        # shared entry in 1D), and the edges' low and high corners
        self.fluxes = [(scale / wshape[dim - 1 - a], dim - 1 - a, cube[lo], cube[hi])
                       for a, (lo, hi) in enumerate(_edge_ends(dim))]

        # _block_action
        self.xc = _view(slab, start, (k, n))
        self.local = _view(slab, start + k * n, (k, n))
        self.local_flat = self.local.reshape(-1)

        # _free_level and _coarse_blocks of the fine level
        self.dia = _view(slab, start, (3 ** dim,) + free)
        self.upper_rows = _view(slab, start + dia, (upper_index.size, n))

    @cached_property
    def gathers(self) -> list[np.ndarray]:
        """Per cell group of the fine grid's first coarsening, its gather's
        view (built at that coarsening, after the hierarchy)."""
        u = self.upper_rows.shape[0]
        return [_view(self._slab, 0, (u, child.size))
                for _, _, child in self._grid.coarse[0].cells]


def _slab_lanes(shape) -> tuple[int, int]:
    """The float64 lengths of the two lanes of the scratch slab (_Scratch)
    of a lattice of this shape: each is the largest set of buffers it
    holds at a time.  geometry.build_grid sizes a lattice's solve by them
    before it builds any array."""
    dim = len(shape)
    k, n = 2 ** dim, math.prod(s - 1 for s in shape)
    pairs = dim * (dim + 1) // 2
    upper = _upper_entries(dim)[0].size
    dia = 3 ** dim * math.prod(free_shape(shape))
    # the first coarsening's first gather, of every child of every coarse
    # cell (clipped ones included), is its largest; a lattice without a
    # coarsening makes none
    gather = (upper * k * math.prod(c - 1 for c in _coarse_shape(shape))
              if _coarsenings(shape) else 0)
    start = max(k * k * n, _cells_size(dim, n), gather)
    lane1 = max(pairs * k * n, _cells_size(dim, n) + k // 2 * n, 2 * k * n,
                dia + upper * n)
    return start, lane1


def _energy_gradient(grid: HalfSpaceGrid, values: np.ndarray,
                     theta: CapillaryAngle, scratch: _Scratch | None = None
                     ) -> tuple[np.ndarray, float]:
    """Exact gradient of the discrete capillary energy, plus min quadrant v.

    The flux of an x_a edge, from dv/dg_a of its two quadrants, goes to its
    high corner and, negated, to its low corner; the (k, n_cells) corner
    sums are scattered by one bincount over grid.corner_rows.
    """
    s = _Scratch(grid) if scratch is None else scratch
    load, g, _, w, _ = s.residual
    quot, half = s.quot, s.half
    load(values)
    np.sqrt(w, out=w)
    np.multiply(g[0], theta.cos_t, out=s.half0)
    np.add(w, s.half0, out=quot)
    v_min = float(np.minimum.reduce(quot, axis=None))
    s.cube.fill(0.0)
    for a, (coef, axis, lo, hi) in enumerate(s.fluxes):
        np.divide(g[a], w, out=quot)
        if a == 0:
            quot += theta.cos_t
        np.add.reduce(quot, axis=axis, out=half)
        half *= coef
        lo -= half
        hi += half
    grad = np.bincount(s.rows_flat, s.cube_flat, minlength=grid.n_nodes)
    return grad, v_min


@cache
def _hessian_map(dim: int) -> np.ndarray:
    """The constant (k*k, k dim(dim+1)/2) map of _hessian_blocks: column
    t*k + q holds T_q^T E_t T_q, with T_q the (dim, k) map from a cell's
    corner values to h times quadrant q's gradient and E_t the symmetric
    unit matrix of upper-triangle entry t."""
    k = 2 ** dim
    q, axis = np.arange(k)[:, None], np.arange(dim)
    t = np.zeros((k, dim, k))
    t[q, axis, q & ~(1 << axis)] = -1.0
    t[q, axis, q | (1 << axis)] = 1.0
    # pair[i, j, a, b, q] = T_q[a, i] T_q[b, j]; an off-diagonal entry (a, b)
    # of the upper triangle stands for its mirror (b, a) too
    pair = np.einsum("qai,qbj->ijabq", t, t)
    a, b = np.triu_indices(dim)
    out = pair[:, :, a, b] + pair[:, :, b, a] * (a != b)[:, None]
    out = np.ascontiguousarray(out.reshape(k * k, -1))
    out.flags.writeable = False
    return out


def _hessian_blocks(grid: HalfSpaceGrid, values: np.ndarray,
                    scratch: _Scratch | None = None) -> np.ndarray:
    """Per-cell local blocks of the exact (positive semidefinite) energy
    Hessian, shaped (k*k, n_cells): row i*k + j is entry (i, j) of each
    cell's k x k block over its corners (corner_rows order); a view of
    the scratch's slab.

    The block is h^(dim-2)/k sum_q T_q^T K_q T_q (see _hessian_map), with
    K_q = ((1 + |g|^2) I - g g^T) / W^3 the Hessian of W at quadrant q's
    gradient g: one matmul of the map with the stacked upper triangles of
    the K_q, whose diagonal 1 + sum_{c != a} g_c^2 does not cancel on steep
    gradients as W^2 - g_a^2 would.  The linear contact-angle term adds
    nothing.
    """
    s = _Scratch(grid) if scratch is None else scratch
    load, g, sq, w3, root = s.hessian
    load(values)
    np.sqrt(w3, out=root)
    w3 *= 2 ** grid.dim * grid.h ** (2 - grid.dim)
    w3 *= root          # 2^dim h^(2-dim) W^3, from W^2
    # in 1D the one entry broadcasts to both quadrants
    for up, a, b in s.numerators:
        if a == b:
            _one_plus_sum(sq[:a] + sq[a + 1:], up)
        else:
            np.multiply(g[a], g[b], out=up)
            np.negative(up, out=up)
        up /= w3
    return np.matmul(_hessian_map(grid.dim), s.triangles, out=s.blocks)


def _free_level(shape: tuple[int, ...], blocks: np.ndarray,
                data: np.ndarray | None = None) -> tuple[tuple, np.ndarray]:
    """Free-free matrix of the per-cell blocks of a lattice of the given
    shape as DIA arrays (offsets, data, n) in scipy's layout, data[d, j] =
    A[j - offsets[d], j], and its diagonal, the row of the zero delta
    (offset 0).  `data`, shaped (3^dim,) + the free box, is filled in place
    (the fine level's scratch view), else a new array.

    The free nodes form a box, so each stencil delta is one diagonal at the
    offset deltas @ free strides.  Two deltas share an offset where a side
    axis has one or two free nodes, never in one row: the other holds +0.0
    there, as does every position of no stencil pair.  The block entries
    are added over their cells by slice-adds (_diagonal_map) in ascending
    order from +0.0, the order of a one-bincount scatter, and lexicographic
    deltas keep each row's entries in ascending columns, as CSR does.  This
    serves the fine level, whose slab view no bincount can fill, and
    assemble_jacobian; a Coarsening's level takes the bincount of its plan.
    """
    deltas, plan = _diagonal_map(len(shape))
    free = free_shape(shape)
    cells = blocks.reshape((-1,) + tuple(n - 1 for n in shape))
    if data is None:
        data = np.zeros((deltas.shape[0],) + free)
    else:
        data.fill(0.0)
    for cell, node in plan:
        target = data[node]
        target += cells[cell]
    n = math.prod(free)
    data = data.reshape(deltas.shape[0], n)
    return (deltas @ _strides(free), data, n), data[deltas.shape[0] // 2]


def _block_action(grid: HalfSpaceGrid, blocks: np.ndarray, x: np.ndarray,
                  scratch: _Scratch | None = None) -> np.ndarray:
    """Full-lattice product sum_c E_c^T B_c E_c x of per-cell blocks with
    nodal values x, Dirichlet rows and columns included."""
    s = _Scratch(grid) if scratch is None else scratch
    k = s.xc.shape[0]
    x.take(grid.corner_rows, out=s.xc, mode="wrap")   # in range; see _cells
    np.einsum("ijn,jn->in", blocks.reshape(k, k, -1), s.xc, out=s.local)
    return np.bincount(s.rows_flat, s.local_flat, minlength=grid.n_nodes)


def _check_field(u: ScalarField, spec: ProblemSpec) -> None:
    if u.grid is not spec.grid and u.grid.shape != spec.grid.shape:
        raise ShapeMismatch("field grid does not match problem grid")


def _residual_full(values: np.ndarray, spec: ProblemSpec,
                   scratch: _Scratch | None = None,
                   source: np.ndarray | None = None) -> tuple[np.ndarray, float]:
    """-grad / node_weights - H at every node, in place on the gradient,
    and the min quadrant v; `source` is spec.source_at_nodes()."""
    res, v_min = _energy_gradient(spec.grid, values, spec.theta, scratch)
    np.negative(res, out=res)
    res /= spec.grid.node_weights
    res -= spec.source_at_nodes() if source is None else source
    return res, v_min


def assemble_residual(u: ScalarField, spec: ProblemSpec) -> np.ndarray:
    """Discrete div(Du/W) - H over the non-Dirichlet nodes.

    Interior rows are sums of face fluxes over the control volume divided by
    its measure; capillary rows carry the exact wall flux -cos(theta).
    Dirichlet values are assumed already imposed on u.
    """
    _check_field(u, spec)
    res, _ = _residual_full(u.values, spec)
    return res[spec.grid.free_indices]


class JacobianSystem(NamedTuple):
    matrix: tuple       # DIA arrays (offsets, data, n), as _free_level
    rhs: np.ndarray


def assemble_jacobian(u: ScalarField, spec: ProblemSpec) -> JacobianSystem:
    """Exact derivative of the discrete residual, with rhs = -residual.

    The matrix is the energy Hessian restricted to free nodes, row-scaled by
    the control volumes (hence not SPD as stored: _pcg rejects it with a CG
    breakdown; newton_solve undoes the scaling to solve an SPD system
    instead), as the DIA arrays of _free_level.
    """
    _check_field(u, spec)
    grid = spec.grid
    free = grid.free_indices
    scratch = _Scratch(grid)
    res, _ = _residual_full(u.values, spec, scratch)
    # the diagonals get an array of their own, not a view of the scratch
    (offsets, data, n), _ = _free_level(grid.shape,
                                        _hessian_blocks(grid, u.values, scratch))
    # entry (d, j) lies in row j - offsets[d]; one outside the matrix is zero
    data *= np.take(-1.0 / grid.node_weights[free], np.arange(n) - offsets[:, None],
                    mode="clip")
    return JacobianSystem(matrix=(offsets, data, n), rhs=-res[free])


# ---------------------------------------------------------------------------
# Linear solves
# ---------------------------------------------------------------------------

_OMEGA = 0.8     # damped-Jacobi weight of the multigrid smoother
_SWEEPS = 2      # smoothing sweeps before and after each coarse correction


@cache
def _sparsetools():
    """scipy's compiled sparse kernels, imported at the first product."""
    from scipy.sparse import _sparsetools
    return _sparsetools


def _dia_product(a: tuple, x: np.ndarray) -> np.ndarray:
    """a x for DIA arrays a by scipy's compiled kernel, one diagonal after
    the other: bitwise the CSR product when a's offsets put each row's
    entries in ascending column order (x finite; zeros add nothing)."""
    offsets, data, n = a
    y = np.zeros(n)
    _sparsetools().dia_matvec(n, n, offsets.size, n, offsets, data, x, y)
    return y


def _product(m: tuple, x: np.ndarray) -> np.ndarray:
    """m x for CSR arrays m by the compiled kernel behind scipy's `@`."""
    indptr, indices, data, n_cols = m
    y = np.zeros(indptr.size - 1)
    _sparsetools().csr_matvec(indptr.size - 1, n_cols, indptr, indices, data, x, y)
    return y


def _restrict(m: tuple, x: np.ndarray) -> np.ndarray:
    """m^T x by the CSC kernel on m's CSR arrays (m^T's CSC arrays): y[i]
    gains m[j, i] x[j] in ascending j, bitwise the CSR product of m^T."""
    indptr, indices, data, n_cols = m
    y = np.zeros(n_cols)
    _sparsetools().csc_matvec(n_cols, indptr.size - 1, indptr, indices, data, x, y)
    return y


def _smooth(a: tuple, wdinv: np.ndarray, b: np.ndarray,
            x: np.ndarray | None) -> np.ndarray:
    """_SWEEPS damped-Jacobi sweeps x += wdinv (b - a x) on a x = b, in
    place on x; x = None starts from zero."""
    for _ in range(_SWEEPS):
        if x is None:
            x = wdinv * b
        else:
            r = _dia_product(a, x)
            np.subtract(b, r, out=r)
            r *= wdinv
            x += r
    return x


def _vcycle(levels: list, coarsest: Callable[[np.ndarray], np.ndarray],
            b: np.ndarray, k: int = 0) -> np.ndarray:
    """One symmetric V-cycle from a zero guess on level k: smoothing, the
    coarse correction through P_k and P_k^T, smoothing again; `coarsest`
    solves the last level (see _galerkin_levels)."""
    if k == len(levels):
        return coarsest(b)
    a, wdinv, p = levels[k]
    x = _smooth(a, wdinv, b, None)
    x += _product(p, _vcycle(levels, coarsest,
                             _restrict(p, b - _dia_product(a, x)), k + 1))
    return _smooth(a, wdinv, b, x)


def _jacobi_weights(diagonal: np.ndarray) -> np.ndarray:
    d = np.abs(diagonal)
    return _OMEGA / np.where(d == 0.0, 1.0, d)


def _coarse_blocks(level: Coarsening, blocks: np.ndarray,
                   scratch: _Scratch | None = None) -> np.ndarray:
    """Galerkin cell blocks of the coarsening `level` from the cell blocks
    of the lattice it coarsens: per group of level.cells, one matmul of the
    constant child maps with a gather of the children's upper-triangle
    block entries (sum_s kron(R_s, R_s)^T B_s for every coarse cell at
    once).

    With the fine grid's scratch, the upper-triangle rows and the gathers
    are its views, and the gathers overwrite the blocks, which are dead
    once their rows are copied."""
    rows = _upper_entries(len(level.shape))[0]
    if scratch is None:
        upper, gathers = blocks[rows], None
    else:
        # in range; see _cells
        upper = blocks.take(rows, axis=0, out=scratch.upper_rows, mode="wrap")
        gathers = scratch.gathers
    out = None
    for group, (cells, maps, child) in enumerate(level.cells):
        gathered = upper.take(child, axis=1, mode="wrap",
                              out=None if gathers is None else gathers[group])
        gathered = gathered.reshape(maps.shape[1], -1)
        if out is None:
            out = maps @ gathered
        else:
            out[:, cells] = maps @ gathered
    return out


def _galerkin_levels(a: tuple, diagonal: np.ndarray,
                     coarse: tuple[Coarsening, ...] = (),
                     blocks: np.ndarray | None = None,
                     scratch: _Scratch | None = None
                     ) -> tuple[list, Callable[[np.ndarray], np.ndarray]]:
    """The multigrid levels (A_k, _OMEGA / |diag A_k|, P_k) above the last
    one, A_k as DIA arrays and P_k as CSR arrays, and the solver of the last
    level.

    a (DIA arrays, with diagonal `diagonal`) is the free-free matrix of the
    cell blocks `blocks` over a grid, `coarse` its hierarchy (grid.coarse),
    and the grid's scratch, if given, serves the first coarsening (which
    overwrites the blocks; see _coarse_blocks).  A coarse level's operator
    A_{k+1} = P_k^T A_k P_k is formed cell by cell (_coarse_blocks; exact,
    as P interpolates a fine cell's corners from its coarse cell's corners
    only and a Dirichlet fine node has only Dirichlet coarse parents) and
    added up by one bincount through its Coarsening's plan, bitwise the
    _free_level of its blocks.  The plan of a last level of at most
    _COARSEST_SIZE unknowns gives its dense matrix, which is solved exactly
    by its Cholesky factor, applied as L^-T L^-1 (a symmetric
    preconditioner); a failed factorization raises LinearSolveFailure.  Any
    other last level is smoothed like the others, so a hierarchy of one
    level (no coarsening) is plain damped Jacobi.
    """
    levels = []
    for level in coarse:
        levels.append((a, _jacobi_weights(diagonal), level.prolongation))
        blocks = _coarse_blocks(level, blocks, scratch)
        scratch = None
        n, offsets = level.size, level.offsets
        size = n * (n if offsets is None else offsets.size)
        data = np.bincount(level.plan, blocks.ravel(), minlength=size + 1)[:size]
        if offsets is None:
            try:
                linv = np.linalg.inv(np.linalg.cholesky(data.reshape(n, n)))
            except np.linalg.LinAlgError:
                raise LinearSolveFailure(
                    "coarsest-level Cholesky breakdown (matrix not SPD?)") from None
            return levels, lambda b: linv.T @ (linv @ b)
        data = data.reshape(offsets.size, n)
        a, diagonal = (offsets, data, n), data[offsets.size // 2]
    wdinv = _jacobi_weights(diagonal)
    return levels, lambda b: _smooth(a, wdinv, b, _smooth(a, wdinv, b, None))


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y summed in a fixed order: numpy's own einsum loop, not BLAS,
    whose dot product splits long vectors across threads, so its last bits
    depend on the thread count."""
    return float(np.einsum("i,i", x, y))


def _pcg(a: tuple, diagonal: np.ndarray, b: np.ndarray, rtol: float,
         max_iter: int, coarse: tuple[Coarsening, ...] = (),
         blocks: np.ndarray | None = None,
         scratch: _Scratch | None = None) -> tuple[np.ndarray, int]:
    """The one Krylov core of the package: CG on the DIA arrays a
    (offsets, data, n) of _free_level, with diagonal `diagonal`,
    preconditioned by one V-cycle of
    _galerkin_levels(a, diagonal, coarse, blocks, scratch) (one level of
    damped Jacobi without a coarsening), from zero until |b - a x| <= rtol |b|;
    returns (x, iterations), (0, 0) for b = 0.

    The inner products have a fixed order, so x is bitwise the same for
    identical inputs at any BLAS thread count.  a must be SPD: a
    nonpositive or nonfinite curvature p^T a p, or a failed coarsest
    factorization, raises LinearSolveFailure (breakdown), as does reaching
    max_iter iterations (stagnation).
    """
    bnorm = math.sqrt(_dot(b, b))
    if bnorm == 0.0:
        return np.zeros_like(b), 0
    levels, coarsest = _galerkin_levels(a, diagonal, coarse, blocks, scratch)
    x = np.zeros_like(b)
    r = b.copy()
    z = _vcycle(levels, coarsest, r)
    p = z.copy()
    rz = _dot(r, z)
    for it in range(1, max_iter + 1):
        ap = _dia_product(a, p)
        pap = _dot(p, ap)
        if not math.isfinite(pap) or pap <= 0.0:
            raise LinearSolveFailure("conjugate gradient breakdown (matrix not SPD?)")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if math.sqrt(_dot(r, r)) <= rtol * bnorm:
            return x, it
        z = _vcycle(levels, coarsest, r)
        rz_new = _dot(r, z)
        p *= rz_new / rz
        p += z
        rz = rz_new
    raise LinearSolveFailure(f"conjugate gradient stagnated after {max_iter} iterations")


# ---------------------------------------------------------------------------
# Nodal gradients and the Newton driver
# ---------------------------------------------------------------------------

# Eisenstat-Walker forcing, choice 2: eta_k = _EW_GAMMA (r_k / r_{k-1})^2
_EW_ETA0 = 0.3          # forcing term of the first Newton step
_EW_GAMMA = 0.9
_EW_SAFEGUARD = 0.1     # keep _EW_GAMMA eta_{k-1}^2 once it exceeds this
_EW_ETA_MAX = 0.5
_FORCING_FLOOR = 1e-12  # least relative 2-norm target of a Newton system
_CG_MAX_ITER = 20000    # _pcg iterations of one system before stagnation


def _forcing_term(history: list, eta_prev: float | None, target: float,
                  floor: float) -> float:
    """Relative tolerance of the next Newton system from the residual
    infinity norms so far; never below half the distance to the target
    (no oversolving of the last step) nor below floor."""
    res = history[-1]
    if eta_prev is None:
        eta = _EW_ETA0
    else:
        eta = _EW_GAMMA * (res / history[-2]) ** 2
        safeguard = _EW_GAMMA * eta_prev ** 2
        if safeguard > _EW_SAFEGUARD:
            eta = max(eta, safeguard)
    return max(min(eta, _EW_ETA_MAX), 0.5 * target / res, floor)


def discrete_gradient(u: ScalarField, theta: CapillaryAngle) -> GradientField:
    """Nodal gradient: centered second-order differences inside, one-sided
    second-order on the box faces, and the ghost closure for the wall-normal
    component at capillary nodes."""
    return GradientField(u.grid, _gradient_vectors(u, theta))


def _gradient_vectors(u: ScalarField, theta: CapillaryAngle) -> np.ndarray:
    """The (n_nodes, dim) vectors of discrete_gradient, not checked for
    finiteness: the diagnostics of an unconverged state whose differences
    overflow report inf or nan instead of raising."""
    grid = u.grid
    vec = _nodal_gradient(grid, u.values)
    cap = grid.capillary_indices
    vec[cap, 0] = ghost_closure(vec[cap, 1:], theta)
    return vec


def _affine_initial(spec: ProblemSpec) -> np.ndarray:
    """Slope-matched affine capillary start from the Dirichlet data; zero
    field when the fit is degenerate.

    The tangential slope comes from an unrestricted affine fit, the wall
    slope from the contact angle, and the offset is refit afterwards so the
    start matches the data in the mean (a raw offset fit can leave an O(1)
    jump at Dirichlet nodes that stalls Newton)."""
    grid = spec.grid
    pts = grid.nodes[grid.dirichlet_indices]
    vals = spec.dirichlet
    if vals.size == 0:
        return np.zeros(grid.n_nodes)
    bprime = np.zeros(grid.dim - 1)
    if vals.size > grid.dim:
        design = np.hstack([pts, np.ones((pts.shape[0], 1))])
        coef, *_ = np.linalg.lstsq(design, vals, rcond=None)
        if np.all(np.isfinite(coef)):
            bprime = coef[1:grid.dim]
    fit = affine_capillary_solution(spec.theta, bprime, 0.0)
    offset = float(np.mean(vals - pts @ fit.slope))
    if not np.isfinite(offset):
        return np.zeros(grid.n_nodes)
    return fit.on_grid(grid).values + offset


def _check_area_element(v_min: float, theta: CapillaryAngle) -> None:
    if v_min < theta.sin_t - 1e-12:
        raise InvariantViolation("capillary area element fell below sin(theta)")


_LIFT_TOL = 1e-3     # relative CG tolerance of the lifted first step
_MAX_NEWTON = 50     # Newton steps of one solve, a kept lift included
_DAMPING = 0.5       # backtracking factor of the line search
_MIN_STEP = 1e-6     # shortest trial length of a Newton step


def newton_solve(spec: ProblemSpec, cfg: SolverConfig | None = None
                 ) -> tuple[ScalarField, SolveReport]:
    """Damped inexact Newton iteration on the discrete problem.

    Converged means the residual infinity norm fell below
    tol_residual * max(1, R0), R0 being the residual of the slope-matched
    affine start of _affine_initial with the Dirichlet data imposed.  R0
    anchors the target and the divergence guard also for a warm start
    (spec.initial; one more residual evaluation), whose own small residual
    would put the target at the roundoff floor, where the line search
    stalls.

    Each step solves H_ff s = w_f r_f - (H delta)_f for the free nodes, in
    its SPD (volume-weighted) form by multigrid-preconditioned CG, with the
    Hessian H and the residual r taken at a linearization point and H delta
    the full-lattice action.  A cold solve's first step is the lift, a
    tangent-predictor step (Deuflhard, Newton Methods for Nonlinear
    Problems, 2004, ch. 5): linearized at the affine start for the Dirichlet
    increment delta, solved to _LIFT_TOL, one trial at full length, kept
    when it lowers the residual at all.  A rejected lift is not an
    iteration; a warm start takes no lift.  A Newton step is linearized at
    the current state (delta = 0), solved to the Eisenstat-Walker tolerance
    of _forcing_term (continuing from _LIFT_TOL after a kept lift), capped,
    and backtracked by _DAMPING to an Armijo decrease (1 - 1e-4 alpha) of
    the residual norm at a length alpha >= _MIN_STEP, else the solve stops
    as STALLED; after _MAX_NEWTON steps it stops as MAX_ITER.  A linear
    solve that breaks down or stagnates ends the solve as LINEAR_FAILURE at
    the last accepted state.
    """
    cfg = cfg or SolverConfig()
    grid = spec.grid
    # the free nodes are a box of the lattice: along an axis of n nodes, m
    # of them free, from n - 1 - m to n - 2; free(x) is its strided view
    box = tuple(slice(n - 1 - m, n - 1)
                for n, m in zip(grid.shape, free_shape(grid.shape)))

    def free(vals):
        return vals.reshape(grid.shape)[box]

    weights_f = free(grid.node_weights)
    scratch = _Scratch(grid)
    source = spec.source_at_nodes()

    def residual(vals):
        res, v_min = _residual_full(vals, spec, scratch, source)
        res_f = free(res)
        return res_f, float(np.max(np.abs(res_f))), v_min

    affine = _affine_initial(spec)
    values = spec.impose(affine)
    res_f, res_norm, v_min = residual(values)
    _check_area_element(v_min, spec.theta)
    res0 = res_norm
    # no lift when the imposed start is the affine start itself
    lift = spec.initial is None and bool(np.any(values != affine))
    if spec.initial is not None:
        # a warm start keeps the cold start's anchor res0 and takes no lift
        values = spec.impose(spec.initial.values)
        res_f, res_norm, v_min = residual(values)
        _check_area_element(v_min, spec.theta)
    target = cfg.tol_residual * max(1.0, res0)
    history = [res_norm]      # the start, then one entry per accepted step
    status = SolveStatus.MAX_ITER
    eta = None

    # only a linear solve raises LinearSolveFailure, and the state above is
    # replaced only after one returns: a failure keeps the last accepted state
    try:
        while len(history) <= _MAX_NEWTON:
            if res_norm <= target:
                break
            if res_norm > 1e6 * max(1.0, res0):
                status = SolveStatus.DIVERGED
                break
            blocks = _hessian_blocks(grid, affine if lift else values, scratch)
            if lift:
                # one trial at full length, kept on any decrease
                rhs = (weights_f * residual(affine)[0]
                       - free(_block_action(grid, blocks, values - affine, scratch)))
                rtol, step_cap, min_alpha, armijo = _LIFT_TOL, math.inf, 1.0, 0.0
            else:
                rhs = weights_f * res_f
                rtol = _forcing_term(history, eta, target, _FORCING_FLOOR)
                # cap runaway directions from near-degenerate (steep-gradient) states
                step_cap = 1e3 * max(1.0, float(np.max(np.abs(values))))
                min_alpha, armijo = _MIN_STEP, 1e-4
            step = _pcg(*_free_level(grid.shape, blocks, scratch.dia), rhs.ravel(),
                        rtol, _CG_MAX_ITER, grid.coarse, blocks, scratch)[0]
            del blocks      # no reference to the blocks outlives the linear solve
            step_norm = float(np.max(np.abs(step)))
            if step_norm > step_cap:
                step *= step_cap / step_norm
            step = step.reshape(weights_f.shape)

            alpha = 1.0
            accepted = False
            while alpha >= min_alpha:
                trial = values.copy()
                trial_f = free(trial)
                trial_f += alpha * step
                trial_res_f, trial_norm, trial_v_min = residual(trial)
                if trial_norm < (1.0 - armijo * alpha) * res_norm:
                    accepted = True
                    break
                alpha *= _DAMPING
            if accepted:
                values = trial
                res_f, res_norm, v_min = trial_res_f, trial_norm, trial_v_min
                _check_area_element(v_min, spec.theta)
                history.append(res_norm)
                eta = rtol
            elif not lift:
                status = SolveStatus.STALLED
                break
            lift = False
    except LinearSolveFailure:
        status = SolveStatus.LINEAR_FAILURE

    del scratch         # the slab dies before the diagnostics allocate theirs
    if res_norm <= target and status is SolveStatus.MAX_ITER:
        status = SolveStatus.CONVERGED

    solution = ScalarField(grid, values)
    gradient = _gradient_vectors(solution, spec.theta)
    gradient.flags.writeable = False
    report = SolveReport(
        residual_history=tuple(history),
        v_min=float(np.min(capillary_area_element(gradient, spec.theta))),
        energy=capillary_energy(solution, spec.theta),
        status=status,
        gradient=gradient,
    )
    return solution, report
