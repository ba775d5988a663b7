"""Finite-volume solver for div(Du/W) = H with contact-angle wall condition.

The residual is the exact gradient of the discrete capillary energy (cell
quadrature over capillary.edge_differences), driven to zero by damped
inexact Newton with a lifted first step and multigrid-preconditioned CG;
the README's numerical notes describe the scheme.  The code relies on three
conditions: the linear solver accepts SPD systems only, so Newton systems
are solved in their volume-weighted SPD form; reductions have fixed order,
so repeated runs are bitwise reproducible; and the convergence target stays
anchored on the residual of the imposed start (the start with the Dirichlet
data imposed), whether or not the lifted step is kept.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
import scipy.sparse as sp

from .capillary import (CapillaryAngle, GradientField, ScalarField,
                        affine_capillary_solution, capillary_area_element,
                        capillary_energy, edge_differences, ghost_closure)
from .errors import (InvalidParameter, InvariantViolation, LinearSolveFailure,
                     ShapeMismatch)
from .geometry import HalfSpaceGrid


class SolveStatus(Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    STALLED = "stalled"      # the line search found no acceptable step
    DIVERGED = "diverged"


@dataclass(frozen=True)
class SolverConfig:
    tol_residual: float = 1e-10      # relative infinity-norm target
    max_newton: int = 50
    damping: float = 0.5             # backtracking factor
    min_step: float = 1e-6
    linear_tol: float = 1e-12        # relative 2-norm target of a standalone
                                     # linear_solve; floor of the Newton forcing
    linear_max_iter: int = 20000

    def __post_init__(self):
        if not (0.0 < self.damping < 1.0):
            raise InvalidParameter(f"damping must lie in (0, 1), got {self.damping}")
        for name in ("tol_residual", "min_step", "linear_tol"):
            if getattr(self, name) <= 0.0:
                raise InvalidParameter(f"{name} must be positive")


@dataclass(frozen=True, eq=False)
class ProblemSpec:
    """Problem data: grid, contact angle, curvature source, Dirichlet values.

    `H` is a constant or a callable on an (N, dim) array of points; `C_H`
    optionally records the bound |H| + |DH| <= C_H of the data family (it is
    reported, not enforced).  `dirichlet` is aligned with
    grid.dirichlet_indices.
    """

    grid: HalfSpaceGrid
    theta: CapillaryAngle
    dirichlet: np.ndarray
    H: object = 0.0
    C_H: float | None = None
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

    @classmethod
    def from_boundary_data(cls, grid, theta, data, H=0.0, C_H=None, initial=None):
        """Build a spec from a callable (or array) of Dirichlet data."""
        if callable(data):
            vals = np.asarray(data(grid.nodes[grid.dirichlet_indices]), dtype=float)
        else:
            vals = np.asarray(data, dtype=float)
        return cls(grid=grid, theta=theta, dirichlet=vals, H=H, C_H=C_H,
                   initial=initial)

    def source_at_nodes(self) -> np.ndarray:
        if callable(self.H):
            return np.asarray(self.H(self.grid.nodes), dtype=float)
        return np.full(self.grid.n_nodes, float(self.H))

    def impose(self, values: np.ndarray) -> np.ndarray:
        out = np.array(values, dtype=float)
        out[self.grid.dirichlet_indices] = self.dirichlet
        return out


@dataclass(frozen=True, eq=False)
class SparseSystem:
    """Row-compressed linear system; linear_solve needs it SPD.

    `prolongations` holds the (P, P^T) pairs of a multigrid hierarchy whose
    finest level is the matrix's unknowns (HalfSpaceGrid.prolongations for
    a free-node system); empty means a one-level hierarchy.
    """

    matrix: sp.csr_matrix
    rhs: np.ndarray
    prolongations: tuple = ()

    def __post_init__(self):
        # an owned copy: tocsr() alone returns a CSR input itself, and
        # eliminate_zeros works in place
        m = self.matrix.tocsr(copy=True)
        m.eliminate_zeros()
        if m.shape[0] != m.shape[1] or m.shape[0] != self.rhs.shape[0]:
            raise ShapeMismatch(
                f"system shape {m.shape} does not match rhs {self.rhs.shape}"
            )
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual_history: tuple[float, ...]
    final_residual: float
    v_min: float
    energy: float
    status: SolveStatus


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def _energy_gradient(grid: HalfSpaceGrid, values: np.ndarray,
                     theta: CapillaryAngle) -> tuple[np.ndarray, float]:
    """Exact gradient of the discrete capillary energy, plus min quadrant v.

    Per-cell corner contributions are stacked (k, n_cells) and scattered by
    one bincount over grid.corner_rows.
    """
    d = edge_differences(grid, values)
    cos_t = theta.cos_t
    if grid.dim == 1:
        g = d[0]
        w = np.sqrt(1.0 + g * g)
        v_min = float(np.min(w + cos_t * g))
        f = g / w + cos_t
        corner = np.stack([-f, f])
    else:
        # quadrant (i, j) has the gradient (d1[i], d2[j])
        d1, d2 = d[:2, None], d[None, 2:]
        w = np.sqrt(1.0 + (d1 * d1 + d2 * d2))
        v_min = float(np.min(w + cos_t * d1))
        f1 = d1 / w + cos_t
        f2 = d2 / w
        q = grid.h / 4.0
        coef_bt = q * (f1[:, 0] + f1[:, 1])   # x1-flux, low/high-x2 edge
        coef_lr = q * (f2[0] + f2[1])         # x2-flux, low/high-x1 edge
        corner = np.stack([-(coef_bt[0] + coef_lr[0]),
                           coef_bt[0] - coef_lr[1],
                           coef_lr[0] - coef_bt[1],
                           coef_bt[1] + coef_lr[1]])
    grad = np.bincount(grid.corner_rows.ravel(), corner.ravel(),
                       minlength=grid.n_nodes)
    return grad, v_min


def _hessian_blocks(grid: HalfSpaceGrid, values: np.ndarray) -> np.ndarray:
    """Per-cell local blocks of the exact (positive semidefinite) energy
    Hessian, shaped (k*k, n_cells): row i*k + j is entry (i, j) of each
    cell's k x k block over its corners (cell_corners order).

    In 2D the block is the sum over quadrants q of D_q^T K_q D_q / 4, with
    D_q the two edge differences behind the quadrant gradient g and
    K_q = ((1 + |g|^2) I - g g^T) / W^3 the Hessian of W at g.  The
    contact-angle term is linear and adds nothing.
    """
    d = edge_differences(grid, values)
    if grid.dim == 1:
        k = 1.0 / (grid.h * (1.0 + d[0] ** 2) ** 1.5)
        return np.stack([k, -k, -k, k])
    d1, d2 = d[:2, None], d[None, 2:]
    s1, s2 = d1 * d1, d2 * d2
    w2 = 1.0 + s1 + s2
    w3 = 4.0 * w2 * np.sqrt(w2)
    a = ((1.0 + s2) / w3).reshape(4, -1)     # per quadrant q = 2 i + j
    b = ((1.0 + s1) / w3).reshape(4, -1)
    c = (-(d1 * d2) / w3).reshape(4, -1)
    out = np.empty((16, d.shape[1]))
    out[0] = a[0] + a[1] + b[0] + b[2] + 2.0 * c[0]
    out[5] = a[0] + a[1] + b[1] + b[3] - 2.0 * c[1]
    out[10] = a[2] + a[3] + b[0] + b[2] - 2.0 * c[2]
    out[15] = a[2] + a[3] + b[1] + b[3] + 2.0 * c[3]
    out[1] = out[4] = c[1] - c[0] - a[0] - a[1]
    out[2] = out[8] = c[2] - c[0] - b[0] - b[2]
    out[3] = out[12] = -(c[1] + c[2])
    out[6] = out[9] = c[0] + c[3]
    out[7] = out[13] = c[1] - c[3] - b[1] - b[3]
    out[11] = out[14] = c[2] - c[3] - a[2] - a[3]
    return out


def _free_matrix(grid: HalfSpaceGrid, blocks: np.ndarray) -> sp.csr_matrix:
    """Free-free matrix of per-cell blocks, summed into the grid's fixed CSR
    pattern by one bincount (a fixed summation order)."""
    indptr, indices, slot = grid.hessian_pattern
    nnz = indices.size
    data = np.bincount(slot.ravel(), blocks.ravel(), minlength=nnz + 1)[:nnz]
    nf = indptr.size - 1
    return sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(nf, nf))


def _block_action(grid: HalfSpaceGrid, blocks: np.ndarray,
                  x: np.ndarray) -> np.ndarray:
    """Full-lattice product sum_c E_c^T B_c E_c x of per-cell blocks with
    nodal values x, Dirichlet rows and columns included."""
    c = grid.corner_rows
    k = c.shape[0]
    local = np.einsum("ijn,jn->in", blocks.reshape(k, k, -1), x[c])
    return np.bincount(c.ravel(), local.ravel(), minlength=grid.n_nodes)


def _check_field(u: ScalarField, spec: ProblemSpec) -> None:
    if u.grid is not spec.grid and u.grid.shape != spec.grid.shape:
        raise ShapeMismatch("field grid does not match problem grid")


def _residual_full(values: np.ndarray, spec: ProblemSpec) -> tuple[np.ndarray, float]:
    grad, v_min = _energy_gradient(spec.grid, values, spec.theta)
    res = -grad / spec.grid.node_weights - spec.source_at_nodes()
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


def assemble_jacobian(u: ScalarField, spec: ProblemSpec) -> SparseSystem:
    """Exact derivative of the discrete residual, with rhs = -residual.

    The matrix is the energy Hessian restricted to free nodes, row-scaled by
    the control volumes (hence not SPD as stored: linear_solve rejects it
    with a CG breakdown; newton_solve undoes the scaling to solve an SPD
    system instead).
    """
    _check_field(u, spec)
    grid = spec.grid
    free = grid.free_indices
    res, _ = _residual_full(u.values, spec)
    scale = sp.diags(-1.0 / grid.node_weights[free])
    jac = (scale @ _free_matrix(grid, _hessian_blocks(grid, u.values))).tocsr()
    return SparseSystem(matrix=jac, rhs=-res[free])


# ---------------------------------------------------------------------------
# Linear solves
# ---------------------------------------------------------------------------

_OMEGA = 0.8     # damped-Jacobi weight of the multigrid smoother
_SWEEPS = 2      # smoothing sweeps before and after each coarse correction


def _smooth(a: sp.csr_matrix, wdinv: np.ndarray, b: np.ndarray,
            x: np.ndarray | None) -> np.ndarray:
    """_SWEEPS damped-Jacobi sweeps on a x = b; x = None starts from zero."""
    for _ in range(_SWEEPS):
        x = wdinv * b if x is None else x + wdinv * (b - a @ x)
    return x


def _vcycle(levels, prolongations, b: np.ndarray, k: int = 0) -> np.ndarray:
    """One symmetric V-cycle from a zero guess on level k.  The coarsest
    level is smoothed like the others (no exact solve), so a hierarchy of
    one level is plain damped Jacobi."""
    a, wdinv = levels[k]
    x = _smooth(a, wdinv, b, None)
    if k < len(prolongations):
        p, r = prolongations[k]
        x = x + p @ _vcycle(levels, prolongations, r @ (b - a @ x), k + 1)
    return _smooth(a, wdinv, b, x)


def _galerkin_levels(a: sp.csr_matrix, prolongations) -> list:
    """(A_k, _OMEGA / |diag A_k|) per level, A_{k+1} = P_k^T A_k P_k."""
    levels = []
    for k in range(len(prolongations) + 1):
        if k:
            p, r = prolongations[k - 1]
            a = (r @ a @ p).tocsr()
        d = np.abs(a.diagonal())
        d[d == 0.0] = 1.0
        levels.append((a, _OMEGA / d))
    return levels


def _pcg(system: SparseSystem, tol_abs: float, max_iter: int) -> tuple[np.ndarray, int]:
    """Multigrid-preconditioned CG from zero; returns (x, iterations)."""
    a, b = system.matrix, system.rhs
    levels = _galerkin_levels(a, system.prolongations)
    x = np.zeros_like(b)
    r = b.copy()
    z = _vcycle(levels, system.prolongations, r)
    p = z.copy()
    rz = r @ z
    for it in range(1, max_iter + 1):
        ap = a @ p
        pap = p @ ap
        if not np.isfinite(pap) or pap <= 0.0:
            raise LinearSolveFailure("conjugate gradient breakdown (matrix not SPD?)")
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if np.linalg.norm(r) <= tol_abs:
            return x, it
        z = _vcycle(levels, system.prolongations, r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise LinearSolveFailure(f"conjugate gradient stagnated after {max_iter} iterations")


def linear_solve(system: SparseSystem, cfg: SolverConfig | None = None) -> np.ndarray:
    """Solve the assembled system to relative tolerance cfg.linear_tol.

    CG preconditioned by one geometric-multigrid V-cycle (damped-Jacobi
    smoothing, Galerkin coarse operators over system.prolongations; plain
    damped Jacobi when there are none), deterministic for identical
    inputs.  The matrix must be SPD: a nonpositive or nonfinite curvature
    p^T A p raises LinearSolveFailure (CG breakdown).
    """
    cfg = cfg or SolverConfig()
    bnorm = float(np.linalg.norm(system.rhs))
    if bnorm == 0.0:
        return np.zeros_like(system.rhs)
    x, _ = _pcg(system, cfg.linear_tol * bnorm, cfg.linear_max_iter)
    return x


# ---------------------------------------------------------------------------
# Nodal gradients and the Newton driver
# ---------------------------------------------------------------------------

# Eisenstat-Walker forcing, choice 2: eta_k = _EW_GAMMA (r_k / r_{k-1})^2
_EW_ETA0 = 0.3          # forcing term of the first Newton step
_EW_GAMMA = 0.9
_EW_SAFEGUARD = 0.1     # keep _EW_GAMMA eta_{k-1}^2 once it exceeds this
_EW_ETA_MAX = 0.5


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
    grid = u.grid
    lat = u.lattice()
    order0 = 2 if grid.shape[0] >= 3 else 1
    if grid.dim == 1:
        vec = np.gradient(lat, grid.h, edge_order=order0)[:, None]
    else:
        order1 = 2 if grid.shape[1] >= 3 else 1
        d1 = np.gradient(lat, grid.h, axis=0, edge_order=order0)
        d2 = np.gradient(lat, grid.h, axis=1, edge_order=order1)
        vec = np.stack([d1.ravel(), d2.ravel()], axis=1)
    cap = grid.capillary_indices
    vec[cap, 0] = ghost_closure(vec[cap, 1:], theta)
    return GradientField(grid, vec,
                         scheme="centered-2 / one-sided-2 faces / ghost-closure wall")


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


def _lifted_step(spec: ProblemSpec, affine: np.ndarray, delta: np.ndarray,
                 cfg: SolverConfig) -> np.ndarray:
    """Free-node response s to the Dirichlet increment delta of the
    linearized problem at the affine start: H_ff s = w_f r_f - (H delta)_f,
    with the Hessian H and the residual r taken at `affine` and H delta the
    full-lattice action (a tangent-predictor step, Deuflhard, Newton Methods
    for Nonlinear Problems, 2004, ch. 5)."""
    grid = spec.grid
    free = grid.free_indices
    blocks = _hessian_blocks(grid, affine)
    res, _ = _residual_full(affine, spec)
    rhs = (grid.node_weights[free] * res[free]
           - _block_action(grid, blocks, delta)[free])
    system = SparseSystem(matrix=_free_matrix(grid, blocks), rhs=rhs,
                          prolongations=grid.prolongations)
    return linear_solve(system, replace(cfg, linear_tol=_LIFT_TOL))


def newton_solve(spec: ProblemSpec, cfg: SolverConfig | None = None
                 ) -> tuple[ScalarField, SolveReport]:
    """Damped Newton iteration on the discrete problem.

    Converged means the residual infinity norm fell below
    tol_residual * max(1, initial residual), the initial residual being that
    of the start with the Dirichlet data imposed.  Without spec.initial the
    first step is the lifted step of _lifted_step, kept only when it lowers
    the residual (a rejected lift is not an iteration).  Later steps are
    accepted only when they decrease the residual norm; when no step length
    down to min_step does, the solve stops as STALLED.  Each Newton system
    is solved in its SPD (volume-weighted) form by multigrid-preconditioned
    CG, to the Eisenstat-Walker forcing tolerance of _forcing_term.
    """
    cfg = cfg or SolverConfig()
    grid = spec.grid
    free = grid.free_indices
    weights_f = grid.node_weights[free]

    if spec.initial is not None:
        affine = None
        values = spec.impose(spec.initial.values)
    else:
        affine = _affine_initial(spec)
        values = spec.impose(affine)

    def residual(vals):
        res, v_min = _residual_full(vals, spec)
        res_f = res[free]
        return res_f, float(np.max(np.abs(res_f))), v_min

    res_f, res_norm, v_min = residual(values)
    _check_area_element(v_min, spec.theta)
    res0 = res_norm
    target = cfg.tol_residual * max(1.0, res0)
    history = [res_norm]
    iterations = 0
    status = SolveStatus.MAX_ITER
    eta = None

    if (affine is not None and cfg.max_newton > 0 and res_norm > target
            and np.any(values != affine)):
        lifted = values.copy()
        lifted[free] += _lifted_step(spec, affine, values - affine, cfg)
        lift_res_f, lift_norm, lift_v_min = residual(lifted)
        if lift_norm < res_norm:
            values, res_f, res_norm, v_min = lifted, lift_res_f, lift_norm, lift_v_min
            _check_area_element(v_min, spec.theta)
            history.append(res_norm)
            iterations = 1
            eta = _LIFT_TOL     # the forcing sequence continues from the lift

    for _ in range(cfg.max_newton - iterations):
        if res_norm <= target:
            break
        if res_norm > 1e6 * max(1.0, res0):
            status = SolveStatus.DIVERGED
            break
        hess = _free_matrix(grid, _hessian_blocks(grid, values))
        system = SparseSystem(matrix=hess, rhs=weights_f * res_f,
                              prolongations=grid.prolongations)
        eta = _forcing_term(history, eta, target, cfg.linear_tol)
        step = linear_solve(system, replace(cfg, linear_tol=eta))
        # cap runaway directions from near-degenerate (steep-gradient) states
        step_cap = 1e3 * max(1.0, float(np.max(np.abs(values))))
        step_norm = float(np.max(np.abs(step)))
        if step_norm > step_cap:
            step *= step_cap / step_norm

        alpha = 1.0
        accepted = False
        while alpha >= cfg.min_step:
            trial = values.copy()
            trial[free] += alpha * step
            trial_res_f, trial_norm, trial_v_min = residual(trial)
            if trial_norm < (1.0 - 1e-4 * alpha) * res_norm:
                accepted = True
                break
            alpha *= cfg.damping
        if not accepted:
            status = SolveStatus.STALLED
            break
        values = trial
        res_f, res_norm, v_min = trial_res_f, trial_norm, trial_v_min
        _check_area_element(v_min, spec.theta)
        history.append(res_norm)
        iterations += 1

    if res_norm <= target and status is SolveStatus.MAX_ITER:
        status = SolveStatus.CONVERGED

    solution = ScalarField(grid, values)
    grad = discrete_gradient(solution, spec.theta)
    v_nodal = capillary_area_element(grad.vectors, spec.theta)
    report = SolveReport(
        iterations=iterations,
        residual_history=tuple(history),
        final_residual=res_norm,
        v_min=float(np.min(v_nodal)),
        energy=capillary_energy(solution, spec.theta),
        status=status,
    )
    return solution, report
