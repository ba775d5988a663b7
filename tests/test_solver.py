"""Discretization, Jacobian consistency, Newton, and linear solves."""

import gc
import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capgraph import (CapillaryAngle, CapillaryLabError, InvalidParameter,
                      LinearSolveFailure, ProblemSpec,
                      ScalarField, ShapeMismatch, SolveStatus, SolverConfig,
                      affine_capillary_solution, assemble_jacobian,
                      assemble_residual, build_grid, capillary_area_element,
                      capillary_energy, conormal_stationarity_residual,
                      discrete_gradient, ghost_closure, newton_solve)
from capgraph import estimates, harness, solver
from capgraph.capillary import _quadrant_gradients, edge_differences
from capgraph.geometry import HalfSpaceGrid, NodeClass
from capgraph.solver import _energy_gradient

THETA = CapillaryAngle(np.pi / 3)


def test_ghost_closure_values_and_back_substitution():
    assert ghost_closure((), CapillaryAngle(np.pi / 2)) == 0.0
    assert np.isclose(ghost_closure((0.7,), CapillaryAngle(np.pi / 2)), 0.0)
    assert np.isclose(ghost_closure((), CapillaryAngle(np.pi / 4)), -1.0,
                      atol=1e-15)
    val = ghost_closure((1.0,), CapillaryAngle(np.pi / 3))
    assert np.isclose(val, -np.sqrt(2.0) / np.sqrt(3.0), atol=1e-15)
    # back-substitution into the contact-angle condition
    rng = np.random.default_rng(0)
    for _ in range(50):
        theta = CapillaryAngle(rng.uniform(0.3, np.pi - 0.3))
        s = rng.uniform(-3.0, 3.0, rng.integers(0, 3))
        u1 = ghost_closure(s, theta)
        w = np.sqrt(1.0 + u1 ** 2 + np.sum(s ** 2))
        assert abs(u1 + theta.cos_t * w) <= 1e-12 * w


def _affine_problem(grid, theta, bprime, c=0.0, H=0.0):
    aff = affine_capillary_solution(theta, bprime, c)
    spec = ProblemSpec.from_boundary_data(grid, theta, lambda p: aff(p), H=H)
    return aff, spec


def test_residual_annihilates_affine_family():
    grid = build_grid(2, 0.1, 1.0, 1.0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        theta = CapillaryAngle(rng.uniform(0.25, np.pi - 0.25))
        aff, spec = _affine_problem(grid, theta, (rng.uniform(-1, 1),),
                                    rng.uniform(-1, 1))
        res = assemble_residual(aff.on_grid(grid), spec)
        assert np.max(np.abs(res)) <= 1e-12


def test_residual_zero_field_free_boundary():
    grid = build_grid(2, 0.2, 1.0, 1.0)
    theta = CapillaryAngle(np.pi / 2)
    spec = ProblemSpec.from_boundary_data(grid, theta, lambda p: np.zeros(len(p)))
    res = assemble_residual(ScalarField(grid, np.zeros(grid.n_nodes)), spec)
    assert np.max(np.abs(res)) == 0.0


def _exact_1d(theta, h0):
    def u(x):
        f = h0 * x - theta.cos_t
        return (theta.sin_t - np.sqrt(1.0 - f ** 2)) / h0
    return u


def test_1d_constant_curvature_mesh_convergence():
    h0 = 0.3
    exact = _exact_1d(THETA, h0)
    errors = []
    for h in (0.1, 0.05, 0.025):
        grid = build_grid(1, h, 2.0)
        spec = ProblemSpec.from_boundary_data(grid, THETA,
                                              lambda p: exact(p[:, 0]), H=h0)
        sol, rep = newton_solve(spec, SolverConfig(tol_residual=1e-12))
        assert rep.status is SolveStatus.CONVERGED
        err = np.abs(sol.values - exact(grid.nodes[:, 0]))
        errors.append(np.max(err[grid.interior_indices]))
    r1, r2 = errors[0] / errors[1], errors[1] / errors[2]
    assert 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5


def test_variable_curvature_residual_consistency():
    # H given as a coordinate function: residual at the exact flux solution
    # u'(x) with u'/W = integral of H shrinks at second order
    theta = CapillaryAngle(np.pi / 3)

    def H(points):
        return 0.2 + 0.1 * points[:, 0]

    def flux(x):   # integral of H from 0 plus wall value -cos(theta)
        return 0.2 * x + 0.05 * x ** 2 - theta.cos_t

    from scipy.integrate import quad

    def exact(x):
        f = flux(x)
        grals = [quad(lambda t: flux(t) / np.sqrt(1.0 - flux(t) ** 2), 0.0, xi,
                      epsabs=1e-13, epsrel=1e-13)[0] for xi in np.atleast_1d(x)]
        return np.asarray(grals)

    interior_norms, wall_norms = [], []
    for h in (0.1, 0.05):
        grid = build_grid(1, h, 1.0)
        u = ScalarField(grid, exact(grid.nodes[:, 0]))
        spec = ProblemSpec.from_boundary_data(
            grid, theta, lambda p: exact(p[:, 0]), H=H)
        res = assemble_residual(u, spec)
        wall_norms.append(abs(res[0]))           # half-cell row: first order
        interior_norms.append(np.max(np.abs(res[1:])))
    assert interior_norms[0] / interior_norms[1] >= 3.0
    assert wall_norms[0] / wall_norms[1] >= 1.8


def test_jacobian_is_laplacian_at_flat_free_boundary():
    grid = build_grid(2, 0.25, 1.0, 1.0)
    theta = CapillaryAngle(np.pi / 2)
    spec = ProblemSpec.from_boundary_data(grid, theta, lambda p: np.zeros(len(p)))
    system = assemble_jacobian(ScalarField(grid, np.zeros(grid.n_nodes)), spec)
    jac = _csr(system.matrix).toarray()
    free = grid.free_indices
    n2 = grid.shape[1]
    h2 = grid.h ** 2
    for k in grid.interior_indices[:5]:
        pos = np.searchsorted(free, k)
        row = jac[pos] * h2
        assert np.isclose(row[pos], -4.0, atol=1e-12)
        for nb in (k - 1, k + 1, k - n2, k + n2):
            q = np.searchsorted(free, nb)
            if q < free.size and free[q] == nb:
                assert np.isclose(row[q], 1.0, atol=1e-12)
        assert np.isclose(np.sum(np.abs(row)), np.abs(row[pos]) +
                          np.sum(np.abs(np.delete(row, pos))), atol=1e-12)


def test_jacobian_interior_block_symmetric_at_free_boundary():
    grid = build_grid(2, 0.2, 1.0, 1.0)
    theta = CapillaryAngle(np.pi / 2)
    rng = np.random.default_rng(2)
    u = ScalarField(grid, 0.3 * rng.standard_normal(grid.n_nodes))
    spec = ProblemSpec.from_boundary_data(grid, theta, lambda p: np.zeros(len(p)))
    jac = _csr(assemble_jacobian(u, spec).matrix).toarray()
    free = grid.free_indices
    interior_pos = np.searchsorted(free, grid.interior_indices)
    block = jac[np.ix_(interior_pos, interior_pos)]
    assert np.max(np.abs(block - block.T)) <= 1e-12


def test_jacobian_directional_derivative_slopes():
    rng = np.random.default_rng(3)
    grid = build_grid(2, 0.25, 1.0, 0.5)
    slopes = []
    for _ in range(20):
        theta = CapillaryAngle(rng.uniform(0.3, np.pi - 0.3))
        vals = rng.uniform(-1.0, 1.0, grid.n_nodes)
        u = ScalarField(grid, vals)
        spec = ProblemSpec(grid=grid, theta=theta,
                           dirichlet=vals[grid.dirichlet_indices],
                           H=rng.uniform(-0.2, 0.2))
        system = assemble_jacobian(u, spec)
        base = assemble_residual(u, spec)
        w = rng.standard_normal(grid.free_indices.size)
        w /= np.max(np.abs(w))
        jw = _csr(system.matrix) @ w
        errs = []
        eps_list = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
        for eps in eps_list:
            vals2 = vals.copy()
            vals2[grid.free_indices] += eps * w
            res2 = assemble_residual(ScalarField(grid, vals2), spec)
            errs.append(np.max(np.abs((res2 - base) / eps - jw)))
        slope = np.polyfit(np.log(eps_list), np.log(errs), 1)[0]
        slopes.append(slope)
    assert min(slopes) >= 0.9


def _solve(m, b, rtol=1e-12, max_iter=solver._CG_MAX_ITER, grid=None, blocks=None):
    """_pcg on the DIA arrays and diagonal of the scipy matrix m, with the
    hierarchy of grid; without a grid its preconditioner is one level of
    damped Jacobi."""
    return solver._pcg(_arrays(m), m.diagonal(), b, rtol, max_iter,
                       () if grid is None else grid.coarse, blocks)


def test_linear_solve_identity_and_1d_laplacian():
    eye = sp.identity(4, format="csr")
    b = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.allclose(_solve(eye, b)[0], b)

    lap = sp.csr_matrix(np.array([[2.0, -1.0, 0.0],
                                  [-1.0, 2.0, -1.0],
                                  [0.0, -1.0, 2.0]]))
    rhs = np.full(3, 0.25 ** 2)
    x, _ = _solve(lap, rhs)
    assert np.allclose(x, [0.09375, 0.125, 0.09375], atol=1e-12)


@given(n=st.integers(1, 40), seed=st.integers(0, 2 ** 32 - 1))
@example(n=20, seed=4)
def test_linear_solve_random_spd_against_dense(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    spd = a @ a.T + n * np.eye(n)
    b = rng.standard_normal(n)
    x, _ = _solve(sp.csr_matrix(spd), b)
    want = np.linalg.solve(spd, b)
    assert np.max(np.abs(x - want)) <= 1e-10
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)
    x, iterations = _solve(sp.csr_matrix(spd), np.zeros(n))
    assert iterations == 0
    _assert_same_bytes(x, np.zeros(n))


def test_linear_solve_failure_on_iteration_cap():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((30, 30))
    spd = a @ a.T + 30.0 * np.eye(30)
    b = rng.standard_normal(30)
    with pytest.raises(LinearSolveFailure):
        _solve(sp.csr_matrix(spd), b, max_iter=2)


def test_linear_solve_breakdown_on_non_spd_systems():
    b = np.array([1.0, -2.0, 0.5, 3.0])
    with pytest.raises(LinearSolveFailure, match="breakdown"):
        _solve(-sp.identity(4, format="csr"), b)
    # the row-scaled Jacobian is not SPD as stored; only newton_solve's
    # volume-weighted form is
    grid = build_grid(2, 0.25, 1.0, 1.0)
    _, spec = _affine_problem(grid, THETA, (0.0,))
    u = ScalarField(grid, np.random.default_rng(0).uniform(size=grid.n_nodes))
    system = assemble_jacobian(u, spec)
    with pytest.raises(LinearSolveFailure, match="breakdown"):
        _solve(_csr(system.matrix), system.rhs)


def test_newton_recovers_affine_from_perturbed_start():
    grid = build_grid(2, 0.1, 1.0, 1.0)
    aff, spec = _affine_problem(grid, THETA, (0.4,), 0.2)
    target = aff.on_grid(grid)
    bump = 0.1 * np.sin(np.pi * grid.nodes[:, 0]) * np.cos(grid.nodes[:, 1])
    spec2 = ProblemSpec(grid=grid, theta=THETA, dirichlet=spec.dirichlet,
                        initial=ScalarField(grid, target.values + bump))
    sol, rep = newton_solve(spec2, SolverConfig(tol_residual=1e-12))
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations <= 15
    assert np.max(np.abs(sol.values - target.values)) <= 1e-9
    # residual history strictly decreasing after the first accepted step
    hist = rep.residual_history
    assert all(b < a for a, b in zip(hist[1:], hist[2:]))
    assert rep.v_min >= THETA.sin_t - 1e-12


def test_newton_free_boundary_linear_data_reproduced():
    grid = build_grid(2, 0.125, 1.0, 1.0)
    theta = CapillaryAngle(np.pi / 2)

    def linear(pts):
        return 0.4 * pts[:, 1] + 0.1

    spec = ProblemSpec.from_boundary_data(grid, theta, linear)
    sol, rep = newton_solve(spec, SolverConfig(tol_residual=1e-12))
    assert rep.status is SolveStatus.CONVERGED
    assert np.max(np.abs(sol.values - linear(grid.nodes))) <= 1e-10


def test_converged_solution_beats_random_competitors():
    grid = build_grid(2, 0.2, 1.0, 1.0)
    aff, _ = _affine_problem(grid, THETA, (0.2,))

    def data(pts):
        return aff(pts) + 0.1 * np.cos(np.pi * pts[:, 1]) * np.exp(-pts[:, 0])

    spec = ProblemSpec.from_boundary_data(grid, THETA, data)
    sol, rep = newton_solve(spec, SolverConfig(tol_residual=1e-12))
    assert rep.status is SolveStatus.CONVERGED
    base_energy = capillary_energy(sol, THETA)
    rng = np.random.default_rng(8)
    for _ in range(20):
        w = np.zeros(grid.n_nodes)
        w[grid.free_indices] = rng.standard_normal(grid.free_indices.size)
        w *= 0.05 / np.max(np.abs(w))
        competitor = ScalarField(grid, sol.values + w)
        assert capillary_energy(competitor, THETA) >= base_energy - 1e-10


def test_discrete_energy_stationarity_at_solution():
    grid = build_grid(2, 0.125, 1.0, 1.0)
    aff, _ = _affine_problem(grid, THETA, (0.3,))

    def data(pts):
        return aff(pts) + 0.1 * np.sin(np.pi * pts[:, 1] * 0.5)

    spec = ProblemSpec.from_boundary_data(grid, THETA, data)
    sol, rep = newton_solve(spec, SolverConfig(tol_residual=1e-12))
    assert rep.status is SolveStatus.CONVERGED
    grad_e, _ = _energy_gradient(grid, sol.values, THETA)
    rng = np.random.default_rng(9)
    for _ in range(10):
        w = np.zeros(grid.n_nodes)
        w[grid.free_indices] = rng.standard_normal(grid.free_indices.size)
        w /= np.max(np.abs(w))
        assert abs(grad_e @ w) <= 1e-8


def test_discrete_gradient_exactness_and_order():
    # affine fields are differentiated exactly everywhere
    grid = build_grid(2, 0.25, 1.0, 1.0)
    aff = affine_capillary_solution(THETA, (0.6,), -0.4)
    grad = discrete_gradient(aff.on_grid(grid), THETA)
    assert np.max(np.abs(grad.vectors - aff.slope)) <= 1e-13

    # quadratic in 1D: centered value exact at an interior node
    grid1 = build_grid(1, 0.5, 2.0)
    u = ScalarField(grid1, grid1.nodes[:, 0] ** 2)
    g = discrete_gradient(u, THETA)
    node = np.flatnonzero(grid1.nodes[:, 0] == 1.0)[0]
    assert np.isclose(g.vectors[node, 0], 2.0, atol=1e-13)

    # smooth field: interior error O(h^2)
    errs = []
    for h in (0.1, 0.05, 0.025):
        grid = build_grid(2, h, 1.0, 1.0)
        f = np.sin(grid.nodes[:, 0]) * np.cos(grid.nodes[:, 1])
        gx = np.cos(grid.nodes[:, 0]) * np.cos(grid.nodes[:, 1])
        gy = -np.sin(grid.nodes[:, 0]) * np.sin(grid.nodes[:, 1])
        grad = discrete_gradient(ScalarField(grid, f), THETA)
        idx = grid.interior_indices
        err = np.max(np.abs(grad.vectors[idx] - np.stack([gx, gy], axis=1)[idx]))
        errs.append(err)
    for a, b in zip(errs, errs[1:]):
        assert 3.5 <= a / b <= 4.5


def test_2d_self_reference_mesh_convergence():
    theta = CapillaryAngle(np.pi / 3)
    aff = affine_capillary_solution(theta, (0.2,), 0.0)

    def data(pts):
        taper = np.cos(0.5 * np.pi * pts[:, 1]) ** 2
        return aff(pts) + 0.25 * np.exp(-((pts[:, 0] - 0.4) ** 2 +
                                          pts[:, 1] ** 2)) * taper

    levels = (0.2, 0.1, 0.05)
    ref_h = 0.0125
    solutions = {}
    for h in levels + (ref_h,):
        grid = build_grid(2, h, 1.0, 1.0)
        spec = ProblemSpec.from_boundary_data(grid, theta, data)
        sol, rep = newton_solve(spec, SolverConfig(tol_residual=1e-12))
        assert rep.status is SolveStatus.CONVERGED
        solutions[h] = (grid, sol)

    ref_grid, ref_sol = solutions[ref_h]
    ref_lat = ref_sol.lattice()
    int_errs, all_errs = [], []
    for h in levels:
        grid, sol = solutions[h]
        stride = int(round(h / ref_h))
        ref_vals = ref_lat[::stride, ::stride].ravel()
        diff = np.abs(sol.values - ref_vals)
        int_errs.append(np.max(diff[grid.interior_indices]))
        all_errs.append(np.max(diff))
    for a, b in zip(int_errs, int_errs[1:]):
        assert 3.5 <= a / b <= 4.5
    for a, b in zip(all_errs, all_errs[1:]):
        assert a / b >= 1.8


def _scherk(pts):
    """Scherk's surface u = log(cos x2 / cos x1): a minimal graph (H = 0)
    for |x1|, |x2| < pi/2 whose wall derivative u_1 = tan x1 is 0 at
    x1 = 0, the capillary condition at theta = pi/2; returns (u, Du)."""
    x1, x2 = pts[:, 0], pts[:, 1]
    return (np.log(np.cos(x2) / np.cos(x1)),
            np.stack([np.tan(x1), -np.tan(x2)], axis=1))


def test_scherk_surface_is_recovered_at_second_order():
    # an exact nonlinear solution, steep near the far faces (sup|Du| =
    # tan 1.2 = 2.6), from its own trace as the Dirichlet data; the max
    # errors of u went 5.84e-4, 1.49e-4, 3.74e-5 and of the gradient
    # (one-sided at the faces) 8.5e-2, 2.7e-2, 7.7e-3, in 6 Newton steps each
    theta = CapillaryAngle(np.pi / 2)
    u_err, g_err = [], []
    for h in (0.1, 0.05, 0.025):
        grid = build_grid(2, h, 1.2, 1.2)
        spec = ProblemSpec.from_boundary_data(grid, theta, lambda p: _scherk(p)[0])
        sol, rep = newton_solve(spec, SolverConfig(tol_residual=1e-12))
        assert rep.status is SolveStatus.CONVERGED and rep.iterations <= 8
        u, du = _scherk(grid.nodes)
        u_err.append(np.max(np.abs(sol.values - u)))
        g_err.append(np.max(np.abs(rep.gradient - du)))
    u_orders = np.log2(np.divide(u_err[:-1], u_err[1:]))
    g_orders = np.log2(np.divide(g_err[:-1], g_err[1:]))
    assert u_err[0] < 1e-3
    assert np.all((1.9 < u_orders) & (u_orders < 2.1))
    assert 1.5 < g_orders[0] < g_orders[1] < 2.1


def _manufactured_solution(theta, amp=0.4):
    """u = f(x2) - cot(theta) sqrt(1 + f'(x2)^2) x1 with f = amp sin, which
    meets the wall condition u_1/W = -cos(theta) at x1 = 0 for any f, and
    H = div(Du/W) in closed form; returns (u, Du, H), callables on points."""
    cot = theta.cos_t / theta.sin_t

    def parts(pts):
        x, y = pts[:, 0], pts[:, 1]
        f1, f2, f3 = amp * np.cos(y), -amp * np.sin(y), -amp * np.cos(y)
        s = np.sqrt(1.0 + f1 ** 2)
        s1 = f1 * f2 / s
        s2 = (f2 ** 2 + f1 * f3) / s - (f1 * f2) ** 2 / s ** 3
        return (amp * np.sin(y) - cot * s * x, -cot * s, f1 - cot * x * s1,
                -cot * s1, f2 - cot * x * s2)

    def source(pts):
        _, ux, uy, uxy, uyy = parts(pts)     # u_11 = 0
        w2 = 1.0 + ux ** 2 + uy ** 2
        return ((1.0 + ux ** 2) * uyy - 2.0 * ux * uy * uxy) / (w2 * np.sqrt(w2))

    return (lambda pts: parts(pts)[0],
            lambda pts: np.stack(parts(pts)[1:3], axis=1), source)


def test_manufactured_solution_converges_at_second_order():
    # the errors read 9.26e-5, 2.33e-5, 5.82e-6 (u) and 1.39e-3, 3.36e-4,
    # 8.24e-5 (gradient): ratios 3.98-4.14
    theta = CapillaryAngle(np.pi / 3)
    exact, grad, source = _manufactured_solution(theta)
    errs = []
    for h in (0.1, 0.05, 0.025):
        grid = build_grid(2, h, 1.0, 1.0)
        spec = ProblemSpec.from_boundary_data(grid, theta, exact, H=source)
        sol, rep = newton_solve(spec)
        assert rep.status is SolveStatus.CONVERGED
        vectors = discrete_gradient(sol, theta).vectors
        errs.append((np.max(np.abs(sol.values - exact(grid.nodes))),
                     np.max(np.abs(vectors - grad(grid.nodes)))))
    for coarse, fine in zip(errs, errs[1:]):
        assert min(np.divide(coarse, fine)) >= 3.6


def test_1d_manufactured_solution_converges_at_second_order():
    # u = -cot(theta) x + a (1 - cos x) has u'(0) = -cot(theta), the wall
    # condition u'/W = -cos(theta), and H = (u'/W)' = u''/W^3; the errors
    # read 3.37e-4 ... 5.25e-6 (u) and 2.26e-3 ... 3.68e-5 (gradient):
    # ratios 3.90-4.00
    theta = CapillaryAngle(np.pi / 3)
    cot, a = theta.cos_t / theta.sin_t, 0.8

    def slope(pts):
        return -cot + a * np.sin(pts[:, 0])

    def exact(pts):
        return -cot * pts[:, 0] + a * (1.0 - np.cos(pts[:, 0]))

    def source(pts):
        return a * np.cos(pts[:, 0]) / (1.0 + slope(pts) ** 2) ** 1.5

    errs = []
    for h in (0.1, 0.05, 0.025, 0.0125):
        grid = build_grid(1, h, 1.0)
        spec = ProblemSpec.from_boundary_data(grid, theta, exact, H=source)
        sol, rep = newton_solve(spec)
        assert rep.status is SolveStatus.CONVERGED
        vectors = discrete_gradient(sol, theta).vectors
        errs.append((np.max(np.abs(sol.values - exact(grid.nodes))),
                     np.max(np.abs(vectors[:, 0] - slope(grid.nodes)))))
    for coarse, fine in zip(errs, errs[1:]):
        assert min(np.divide(coarse, fine)) >= 3.6


def test_diverged_status_is_reported_not_raised(monkeypatch):
    # force an immediate stop via a zero-iteration budget
    monkeypatch.setattr(solver, "_MAX_NEWTON", 0)
    grid = build_grid(1, 0.25, 1.0)
    aff, spec = _affine_problem(grid, THETA, ())
    bad = ProblemSpec(grid=grid, theta=THETA, dirichlet=spec.dirichlet,
                      initial=ScalarField(grid, 5.0 * np.ones(grid.n_nodes)))
    sol, rep = newton_solve(bad)
    assert rep.status in (SolveStatus.MAX_ITER, SolveStatus.CONVERGED)
    assert rep.iterations == 0


def _central_difference_jacobian(u, spec, eps=1e-6):
    free = spec.grid.free_indices
    cols = []
    for j in free:
        plus, minus = u.values.copy(), u.values.copy()
        plus[j] += eps
        minus[j] -= eps
        cols.append((assemble_residual(ScalarField(spec.grid, plus), spec)
                     - assemble_residual(ScalarField(spec.grid, minus), spec))
                    / (2.0 * eps))
    return np.stack(cols, axis=1)


@pytest.mark.parametrize("dim, extent", [
    (2, (0.2, 1.4, 0.6)),      # 7 x 6 cells: an odd count along x1
    (1, (0.1, 1.3)),           # 13 cells
])
def test_fixed_pattern_jacobian_matches_central_differences(dim, extent):
    grid = build_grid(dim, *extent)
    rng = np.random.default_rng(12)
    theta = CapillaryAngle(rng.uniform(0.3, np.pi - 0.3))
    vals = rng.uniform(-1.0, 1.0, grid.n_nodes)
    spec = ProblemSpec(grid=grid, theta=theta,
                       dirichlet=vals[grid.dirichlet_indices], H=0.1)
    u = ScalarField(grid, vals)
    jac = _csr(assemble_jacobian(u, spec).matrix).toarray()
    fd = _central_difference_jacobian(u, spec)
    assert np.max(np.abs(jac - fd)) <= 1e-6 * np.max(np.abs(jac))


@pytest.mark.parametrize("args", [(1, 0.1, 1.3), (2, 0.2, 1.4, 0.6)])
def test_jacobian_row_scaling_is_bitwise_the_diagonal_product(args):
    # oracle: the free Hessian left-multiplied by the sparse diagonal of
    # -1/w.  The sparse product stores each row's columns in descending
    # order, so its column indices are sorted before the comparison.  It
    # also drops the exact zeros of the flat state, which the Jacobian keeps
    # on its diagonals, so a compacted copy of the Jacobian is compared.
    grid = build_grid(*args)
    free = grid.free_indices
    scale = sp.diags(-1.0 / grid.node_weights[free])
    rng = np.random.default_rng(15)
    for vals in (np.zeros(grid.n_nodes), rng.uniform(-1.0, 1.0, grid.n_nodes)):
        spec = ProblemSpec(grid=grid, theta=THETA,
                           dirichlet=vals[grid.dirichlet_indices], H=0.1)
        hess = _free_matrix(grid, solver._hessian_blocks(grid, vals))
        old = (scale @ hess).tocsr().sorted_indices()
        new = _csr(assemble_jacobian(ScalarField(grid, vals), spec).matrix)
        new.eliminate_zeros()
        assert new.shape == old.shape
        for a, b in ((new.data, old.data), (new.indices, old.indices),
                     (new.indptr, old.indptr)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_consecutive_hessians_leave_the_cached_pattern_intact():
    # the first state is flat, so the Hessian has exact zeros (the diagonal
    # neighbours at theta = pi/2), which stay stored on its diagonals; the
    # layout every system reads is the dim-keyed constant of _diagonal_map
    args = (2, 0.2, 1.4, 0.6)
    grid = build_grid(*args)
    theta = CapillaryAngle(np.pi / 2)
    spec = ProblemSpec.from_boundary_data(grid, theta, lambda p: np.zeros(len(p)))
    rng = np.random.default_rng(13)
    states = [np.zeros(grid.n_nodes), rng.uniform(-1.0, 1.0, grid.n_nodes),
              rng.uniform(-1.0, 1.0, grid.n_nodes)]
    reused = [assemble_jacobian(ScalarField(grid, v), spec) for v in states]
    for v, system in zip(states, reused):
        fresh_grid = build_grid(*args)
        fresh_spec = ProblemSpec.from_boundary_data(fresh_grid, theta,
                                                    lambda p: np.zeros(len(p)))
        fresh = assemble_jacobian(ScalarField(fresh_grid, v), fresh_spec)
        assert np.array_equal(_csr(system.matrix).toarray(),
                              _csr(fresh.matrix).toarray())
        _assert_same_bytes(system.matrix[0], fresh.matrix[0])
    flat, moved = (np.count_nonzero(_csr(system.matrix).toarray())
                   for system in reused[:2])
    assert flat < moved
    deltas, plan = solver._diagonal_map(grid.dim)
    assert not deltas.flags.writeable
    want = solver._diagonal_map.__wrapped__(grid.dim)
    _assert_same_bytes(deltas, want[0])
    assert plan == want[1]


def test_flat_state_zeros_leave_the_linear_solve_bitwise_unchanged():
    # the flat Newton system stores exact zeros on its diagonals; they add
    # exact zeros to every product, so compacting them changes no bit
    grid = build_grid(2, 0.05, 1.0, 1.0)
    spec = ProblemSpec.from_boundary_data(grid, CapillaryAngle(np.pi / 2),
                                          lambda p: np.zeros(len(p)), H=0.1)
    free = grid.free_indices
    flat = np.zeros(grid.n_nodes)
    res, _ = solver._residual_full(flat, spec)
    blocks = solver._hessian_blocks(grid, flat)
    hess = _free_matrix(grid, blocks)
    b = grid.node_weights[free] * res[free]
    compact = hess.copy()
    compact.eliminate_zeros()
    assert compact.nnz < hess.nnz
    # the zeros lie at stencil pairs, which a moved state fills
    moved = _free_matrix(grid, solver._hessian_blocks(
        grid, np.random.default_rng(0).uniform(size=grid.n_nodes)))
    moved.eliminate_zeros()
    assert compact.nnz < moved.nnz
    as_built, _ = solver._pcg(*solver._free_level(grid.shape, blocks), b, 1e-12,
                              solver._CG_MAX_ITER, grid.coarse, blocks)
    compacted, _ = _solve(compact, b, grid=grid, blocks=blocks)
    assert np.any(as_built != 0.0)
    assert as_built.tobytes() == compacted.tobytes()


def test_grid_is_freed_after_newton_solve():
    # data that take Newton steps, so the solve itself builds the hierarchy
    # and its scatter plans before the grid must be freed
    grid = build_grid(2, 0.1, 1.0, 1.0)
    spec = ProblemSpec.from_boundary_data(grid, THETA, _ladder_data())
    sol, rep = newton_solve(spec)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations >= 1
    assert "coarse" in vars(grid)
    assert grid.coarse and grid.coarse[0].prolongation
    assert all(level.plan.size for level in grid.coarse)
    ref = weakref.ref(grid)
    del grid, spec, sol
    gc.collect()
    assert ref() is None


def test_solve_report_holds_the_solution_gradient_out_of_eq_and_repr():
    grid = build_grid(2, 0.1, 1.0, 1.0)
    spec = ProblemSpec.from_boundary_data(grid, THETA, _ladder_data())
    sol, rep = newton_solve(spec)
    assert np.array_equal(rep.gradient, solver._gradient_vectors(sol, THETA))
    assert not rep.gradient.flags.writeable
    assert rep.v_min == float(np.min(capillary_area_element(rep.gradient, THETA)))
    assert "gradient" not in repr(rep)
    assert replace(rep, gradient=None) == rep


def test_multigrid_cg_iterations_do_not_grow_with_1_over_h(monkeypatch):
    # the mesh-ladder problem of test_2d_self_reference_mesh_convergence
    aff = affine_capillary_solution(THETA, (0.2,), 0.0)

    def data(pts):
        taper = np.cos(0.5 * np.pi * pts[:, 1]) ** 2
        return aff(pts) + 0.25 * np.exp(-((pts[:, 0] - 0.4) ** 2 +
                                          pts[:, 1] ** 2)) * taper

    counts = []
    pcg = solver._pcg

    def counting_pcg(*args):
        x, iterations = pcg(*args)
        counts.append(iterations)
        return x, iterations

    monkeypatch.setattr(solver, "_pcg", counting_pcg)
    worst = []
    for h in (0.05, 0.025, 0.0125):
        counts.clear()
        grid = build_grid(2, h, 1.0, 1.0)
        spec = ProblemSpec.from_boundary_data(grid, THETA, data)
        _, rep = newton_solve(spec, SolverConfig(tol_residual=1e-12))
        assert rep.status is SolveStatus.CONVERGED
        assert len(counts) == rep.iterations
        worst.append(max(counts))
    assert max(worst) <= 60
    for coarse, fine in zip(worst, worst[1:]):
        assert fine < 2 * coarse


def test_forcing_term_choice_2_with_safeguard_cap_and_floors():
    forcing = solver._forcing_term
    assert forcing([1.0], None, 1e-12, 1e-12) == 0.3
    # eta_k = 0.9 (r_k / r_{k-1})^2 once the safeguard 0.9 eta^2 <= 0.1
    assert forcing([1.0, 0.1], 0.3, 1e-12, 1e-12) == pytest.approx(0.009)
    # safeguard: 0.9 * 0.4^2 = 0.144 > 0.1 is kept
    assert forcing([1.0, 0.1], 0.4, 1e-12, 1e-12) == pytest.approx(0.144)
    # cap
    assert forcing([1.0, 0.99], 0.3, 1e-12, 1e-12) == 0.5
    # floors: half the distance to the target, and the configured floor
    assert forcing([1.0, 1e-4], 0.3, 1e-5, 1e-12) == pytest.approx(0.05)
    assert forcing([1.0, 1e-4], 0.3, 1e-12, 1e-3) == 1e-3


def test_inexact_newton_on_the_finest_ladder_rung(monkeypatch):
    # the h = 0.0125 problem above: fixed 1e-12 inner solves took 131 CG
    # iterations in total to reach this energy
    aff = affine_capillary_solution(THETA, (0.2,), 0.0)

    def data(pts):
        taper = np.cos(0.5 * np.pi * pts[:, 1]) ** 2
        return aff(pts) + 0.25 * np.exp(-((pts[:, 0] - 0.4) ** 2 +
                                          pts[:, 1] ** 2)) * taper

    counts = []
    pcg = solver._pcg

    def counting_pcg(*args):
        x, iterations = pcg(*args)
        counts.append(iterations)
        return x, iterations

    monkeypatch.setattr(solver, "_pcg", counting_pcg)
    grid = build_grid(2, 0.0125, 1.0, 1.0)
    spec = ProblemSpec.from_boundary_data(grid, THETA, data)
    _, rep = newton_solve(spec, SolverConfig(tol_residual=1e-12))
    assert rep.status is SolveStatus.CONVERGED
    assert sum(counts) <= 40
    assert rep.energy == pytest.approx(1.779392548889038, rel=1e-12, abs=0.0)


@settings(max_examples=40)
@given(theta=st.floats(0.3, np.pi - 0.3), bprime=st.floats(-1.0, 1.0),
       h=st.sampled_from([0.5, 0.25]))
def test_inexact_newton_properties(theta, bprime, h):
    angle = CapillaryAngle(theta)
    grid = build_grid(2, h, 2.0, 1.0)
    aff = affine_capillary_solution(angle, (bprime,), 0.0)

    def data(pts):
        taper = np.cos(0.5 * np.pi * pts[:, 1]) ** 2
        return aff(pts) + 0.3 * np.exp(-(pts[:, 0] - 1.0) ** 2) * taper

    spec = ProblemSpec.from_boundary_data(grid, angle, data)
    cfg = SolverConfig()
    sol, rep = newton_solve(spec, cfg)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations >= 1
    assert rep.v_min >= angle.sin_t - 1e-12
    target = cfg.tol_residual * max(1.0, rep.residual_history[0])
    grad_e, _ = _energy_gradient(grid, sol.values, angle)
    free = grid.free_indices
    assert np.max(np.abs(grad_e[free] / grid.node_weights[free])) <= target


def test_failed_line_search_is_reported_as_stalled(monkeypatch):
    monkeypatch.setattr(solver, "_MIN_STEP", 0.9)
    grid = build_grid(1, 0.25, 1.0)
    _, spec = _affine_problem(grid, THETA, ())
    bad = ProblemSpec(grid=grid, theta=THETA, dirichlet=spec.dirichlet,
                      initial=ScalarField(grid, 5.0 * np.ones(grid.n_nodes)))
    sol, rep = newton_solve(bad)
    assert rep.status is SolveStatus.STALLED
    assert rep.iterations == 0


def test_a_step_short_of_the_armijo_decrease_is_not_kept(monkeypatch):
    # each linear solve returns 1e-6 of its step, which lowers the residual
    # by about 1e-6 of itself at any trial length: less than the Armijo
    # fraction 1e-4 alpha, so every Newton trial fails and the solve stalls
    # (a rule of plain decrease would keep them all, up to _MAX_NEWTON)
    pcg = solver._pcg

    def short(*args):
        step, iterations = pcg(*args)
        return 1e-6 * step, iterations

    monkeypatch.setattr(solver, "_pcg", short)
    grid = build_grid(2, 0.25, 1.0, 1.0)
    spec = ProblemSpec.from_boundary_data(grid, THETA, _ladder_data())
    _, rep = newton_solve(spec)
    assert rep.status is SolveStatus.STALLED
    # the lift, kept on any decrease, is the one step
    assert rep.iterations == 1
    assert rep.residual_history[1] < rep.residual_history[0]


def _ladder_data():
    # the mesh-ladder problem of test_2d_self_reference_mesh_convergence
    aff = affine_capillary_solution(THETA, (0.2,), 0.0)

    def data(pts):
        taper = np.cos(0.5 * np.pi * pts[:, 1]) ** 2
        return aff(pts) + 0.25 * np.exp(-((pts[:, 0] - 0.4) ** 2 +
                                          pts[:, 1] ** 2)) * taper
    return data


def test_lifted_start_makes_newton_steps_mesh_independent():
    # from the imposed affine start these took 6, 7 and 8 steps
    for h in (0.05, 0.025, 0.0125):
        grid = build_grid(2, h, 1.0, 1.0)
        spec = ProblemSpec.from_boundary_data(grid, THETA, _ladder_data())
        _, rep = newton_solve(spec, SolverConfig(tol_residual=1e-12))
        assert rep.status is SolveStatus.CONVERGED
        assert rep.iterations <= 5


def _imposed_start_residual(spec):
    start = spec.impose(solver._affine_initial(spec))
    return float(np.max(np.abs(assemble_residual(ScalarField(spec.grid, start),
                                                 spec))))


def test_accepted_lift_is_the_first_newton_step(monkeypatch):
    grid = build_grid(2, 0.05, 1.0, 1.0)
    spec = ProblemSpec.from_boundary_data(grid, THETA, _ladder_data())
    monkeypatch.setattr(solver, "_MAX_NEWTON", 1)
    _, rep = newton_solve(spec)
    assert rep.status is SolveStatus.MAX_ITER
    assert rep.iterations == 1
    assert rep.residual_history[0] == _imposed_start_residual(spec)
    assert rep.residual_history[1] < 0.1 * rep.residual_history[0]
    # no lift without a Newton budget
    monkeypatch.setattr(solver, "_MAX_NEWTON", 0)
    _, rep = newton_solve(spec)
    assert rep.iterations == 0
    assert rep.residual_history == (_imposed_start_residual(spec),)


def _assert_forcing_sequence(rtols, history, start, target, cfg, eta):
    """rtols[k] is the forcing term after history[:start + k + 1], each
    continuing from the one before it and the first from `eta`."""
    for k, rtol in enumerate(rtols):
        assert rtol == solver._forcing_term(list(history[:start + k + 1]), eta,
                                            target, solver._FORCING_FLOOR)
        eta = rtol


def test_rejected_lift_continues_from_the_imposed_start(monkeypatch):
    calls = []      # the rtol of each _pcg call
    pcg = solver._pcg

    def zero_first_solve(a, diagonal, b, rtol, *args):
        calls.append(rtol)
        if len(calls) == 1:
            return np.zeros_like(b), 0
        return pcg(a, diagonal, b, rtol, *args)

    monkeypatch.setattr(solver, "_pcg", zero_first_solve)
    grid = build_grid(2, 0.05, 1.0, 1.0)
    spec = ProblemSpec.from_boundary_data(grid, THETA, _ladder_data())
    cfg = SolverConfig(tol_residual=1e-12)
    _, rep = newton_solve(spec, cfg)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.residual_history[0] == _imposed_start_residual(spec)
    # the rejected lift is not an iteration
    assert len(calls) == rep.iterations + 1
    assert len(rep.residual_history) == rep.iterations + 1
    # nor does it start the forcing sequence: eta is still None after it
    assert calls[0] == solver._LIFT_TOL and calls[1] == solver._EW_ETA0
    _assert_forcing_sequence(calls[1:], rep.residual_history, 0,
                             cfg.tol_residual * rep.residual_history[0], cfg, None)


def _recorded_targets(monkeypatch):
    """The convergence targets newton_solve hands to its forcing term, one
    per Newton step."""
    targets = []
    forcing = solver._forcing_term

    def recording(history, eta_prev, target, floor):
        targets.append(target)
        return forcing(history, eta_prev, target, floor)

    monkeypatch.setattr(solver, "_forcing_term", recording)
    return targets


def test_warm_start_on_another_grid_is_rejected_when_the_spec_is_built(monkeypatch):
    evaluations = []
    residual = solver._residual_full

    def counting_residual(*args):
        evaluations.append(1)
        return residual(*args)

    monkeypatch.setattr(solver, "_residual_full", counting_residual)
    grid = build_grid(2, 0.1, 1.0, 1.0)
    spec = ProblemSpec.from_boundary_data(grid, THETA, _ladder_data())
    finer = ScalarField(build_grid(2, 0.05, 1.0, 1.0), np.zeros(861))
    with pytest.raises(ShapeMismatch):
        replace(spec, initial=finer)
    with pytest.raises(ShapeMismatch):
        ProblemSpec.from_boundary_data(grid, THETA, _ladder_data(), initial=finer)
    assert evaluations == []
    # a field on another grid of the same shape passes, as in _check_field
    same = ScalarField(build_grid(2, 0.1, 1.0, 1.0), spec.impose(np.zeros(grid.n_nodes)))
    _, rep = newton_solve(replace(spec, initial=same))
    assert rep.status is SolveStatus.CONVERGED and evaluations


def test_warm_start_at_a_cold_solution_converges_at_once_on_the_cold_target():
    grid = build_grid(2, 0.05, 1.0, 1.0)
    spec = ProblemSpec.from_boundary_data(grid, THETA, _ladder_data())
    cfg = SolverConfig(tol_residual=1e-8)
    sol, cold = newton_solve(spec, cfg)
    target = cfg.tol_residual * max(1.0, _imposed_start_residual(spec))
    assert cold.status is SolveStatus.CONVERGED
    assert target > 2.0 * cfg.tol_residual

    again, rep = newton_solve(replace(spec, initial=sol), cfg)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations == 0
    assert rep.residual_history == (cold.residual_history[-1],)
    assert np.array_equal(again.values, sol.values)

    # a start whose residual lies above the target a warm anchor would give
    # (tol_residual, as the residual is below 1) and below the cold target
    free = grid.free_indices
    bump = np.zeros(grid.n_nodes)
    bump[free] = 1e-6 * np.exp(-np.sum((grid.nodes[free] - (0.5, 0.0)) ** 2, axis=1))
    probe = ScalarField(grid, sol.values + bump)
    slope = float(np.max(np.abs(assemble_residual(probe, spec))))
    start = ScalarField(grid, sol.values + (0.5 * target / slope) * bump)
    start_res = float(np.max(np.abs(assemble_residual(start, spec))))
    assert cfg.tol_residual < start_res <= target
    _, rep = newton_solve(replace(spec, initial=start), cfg)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations == 0


def test_a_start_worse_than_the_affine_start_keeps_the_cold_target(monkeypatch):
    targets = _recorded_targets(monkeypatch)
    grid = build_grid(2, 0.05, 1.0, 1.0)
    spec = ProblemSpec.from_boundary_data(grid, THETA, _ladder_data())
    cfg = SolverConfig(tol_residual=1e-10)
    anchor = _imposed_start_residual(spec)
    target = cfg.tol_residual * max(1.0, anchor)
    _, cold = newton_solve(spec, cfg)
    assert cold.status is SolveStatus.CONVERGED
    assert targets and set(targets) == {target}

    pts = grid.nodes
    worse = spec.impose(solver._affine_initial(spec)) + 0.3 * np.sin(
        3.0 * np.pi * pts[:, 0]) * np.cos(0.5 * np.pi * pts[:, 1])
    targets.clear()
    _, rep = newton_solve(replace(spec, initial=ScalarField(grid, worse)), cfg)
    assert rep.residual_history[0] > anchor
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations >= 1
    assert targets and set(targets) == {target}
    assert rep.residual_history[-1] <= target


@pytest.mark.parametrize("fail_at", [1, 2])
def test_linear_failure_is_a_status_with_the_partial_report(monkeypatch, fail_at):
    # call 1 solves the lifted step, call 2 the first Newton step after it
    calls = []
    pcg = solver._pcg

    def breaking_pcg(a, diagonal, b, *args):
        calls.append(b.size)
        if len(calls) == fail_at:
            raise LinearSolveFailure("conjugate gradient breakdown (matrix not SPD?)")
        return pcg(a, diagonal, b, *args)

    monkeypatch.setattr(solver, "_pcg", breaking_pcg)
    grid = build_grid(2, 0.05, 1.0, 1.0)
    spec = ProblemSpec.from_boundary_data(grid, THETA, _ladder_data())
    sol, rep = newton_solve(spec)
    assert rep.status is SolveStatus.LINEAR_FAILURE
    assert len(calls) == fail_at
    # the report ends at the last accepted state: the imposed start, or the lift
    assert rep.iterations == fail_at - 1
    assert len(rep.residual_history) == fail_at
    assert rep.residual_history[0] == _imposed_start_residual(spec)
    assert float(np.max(np.abs(assemble_residual(sol, spec)))) == rep.residual_history[-1]
    assert rep.energy == capillary_energy(sol, THETA)


def _box_grid(h, shape):
    """A lattice of any dimension with the node classes of build_grid (which
    builds dim 1 and 2 only): wall capillary, far and side faces Dirichlet."""
    axes = [np.arange(n) * h for n in shape[:1]]
    axes += [(np.arange(n) - (n - 1) / 2) * h for n in shape[1:]]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(shape))
    cls = np.full(shape, NodeClass.INTERIOR, dtype=np.int8)
    cls[0] = NodeClass.CAPILLARY_BOUNDARY
    cls[-1] = NodeClass.DIRICHLET_BOUNDARY
    for axis in range(1, len(shape)):
        side = np.moveaxis(cls, axis, 0)
        side[0] = side[-1] = NodeClass.DIRICHLET_BOUNDARY
    return HalfSpaceGrid(dim=len(shape), h=h, L1=(shape[0] - 1) * h,
                         Lp=(shape[1] - 1) * h / 2 if len(shape) > 1 else None,
                         shape=tuple(shape),
                         nodes=nodes, classes=cls.ravel())


def test_conormal_corner_margin_trims_every_side_face(monkeypatch):
    # at the flat state with theta = pi/2 the residual of a capillary node
    # is its d_1 v, so a d_1 v that is 1 at one node and 0 elsewhere reads 1
    # exactly when the margin keeps that node
    grid = _box_grid(0.5, (3, 6, 8))      # side faces at 1.25 and 1.75
    u = ScalarField(grid, np.zeros(grid.n_nodes))
    theta = CapillaryAngle(np.pi / 2)
    margin = 0.6
    cap = grid.capillary_indices
    side = np.abs(grid.nodes[cap, 1:])
    expected = cap[np.all(side <= np.array([1.25, 1.75]) - margin, axis=1)]
    assert 0 < expected.size < cap.size
    for node in cap:
        def spike(grid, v, node=node):
            out = np.zeros((grid.n_nodes, grid.dim))
            out[node, 0] = 1.0
            return out

        monkeypatch.setattr(estimates, "_nodal_gradient", spike)
        kept = conormal_stationarity_residual(u, theta, corner_margin=margin)
        assert kept == float(node in expected)


@pytest.mark.parametrize("dim, extent", [
    (2, (0.2, 1.4, 0.6)),      # 7 x 6 cells
    (1, (0.1, 1.3)),           # 13 cells
    (3, (0.5, (3, 4, 4))),     # 2 x 3 x 3 cells, built by _box_grid
])
def test_cell_kernels_match_central_differences(dim, extent):
    grid = build_grid(dim, *extent) if dim < 3 else _box_grid(*extent)
    rng = np.random.default_rng(16)
    theta = CapillaryAngle(rng.uniform(0.3, np.pi - 0.3))
    vals = rng.uniform(-1.0, 1.0, grid.n_nodes)
    eye = np.eye(grid.n_nodes)
    # the one-bincount energy gradient against the energy it differentiates
    grad = _energy_gradient(grid, vals, theta)[0]
    eps = 1e-5
    fd = np.array([(capillary_energy(ScalarField(grid, vals + eps * e), theta)
                    - capillary_energy(ScalarField(grid, vals - eps * e), theta))
                   / (2.0 * eps) for e in eye])
    assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad))
    # the block Hessian action, Dirichlet columns included
    blocks = solver._hessian_blocks(grid, vals)
    action = np.stack([solver._block_action(grid, blocks, e) for e in eye],
                      axis=1)
    eps = 1e-6
    fd = np.stack([(_energy_gradient(grid, vals + eps * e, theta)[0]
                    - _energy_gradient(grid, vals - eps * e, theta)[0])
                   / (2.0 * eps) for e in eye], axis=1)
    assert np.max(np.abs(action - fd)) <= 1e-6 * np.max(np.abs(action))
    # the free-free block is the assembled Hessian
    free = grid.free_indices
    assert np.allclose(_free_matrix(grid, blocks).toarray(),
                       action[np.ix_(free, free)], rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("dim, extent", [
    (2, (0.2, 1.4, 0.6)),
    (1, (0.1, 1.3)),
    (3, (0.5, (3, 4, 4))),
])
def test_energy_gradient_v_min_is_the_least_quadrant_area_element(dim, extent):
    # the v that the Newton loop holds to sin(theta) is W + cos(theta) g_1
    # over every cell quadrant: on a steep wall slope, either sign of cos
    grid = build_grid(dim, *extent) if dim < 3 else _box_grid(*extent)
    rng = np.random.default_rng(17)
    for theta in (CapillaryAngle(np.pi / 4), CapillaryAngle(3 * np.pi / 4)):
        for slope in (-3.0, 3.0):
            vals = rng.uniform(-0.5, 0.5, grid.n_nodes) + slope * grid.nodes[:, 0]
            d = edge_differences(grid, vals)
            g1 = _quadrant_gradients(d, dim)[0]
            v = np.sqrt(1.0 + sum(_quadrant_gradients(d * d, dim))) + theta.cos_t * g1
            v_min = _energy_gradient(grid, vals, theta)[1]
            assert v_min == pytest.approx(float(np.min(v)), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("grid", [build_grid(1, 0.25, 1.0),
                                  build_grid(2, 0.25, 1.0, 0.5),
                                  _box_grid(0.5, (3, 4, 4))])
def test_energy_of_an_affine_field_is_volume_times_v(grid):
    theta = CapillaryAngle(1.1)
    slope = np.array([0.7, -0.4, 1.3])[:grid.dim]
    u = ScalarField(grid, grid.nodes @ slope)
    volume = np.prod(np.array(grid.shape) - 1) * grid.h ** grid.dim
    expect = volume * capillary_area_element(slope, theta)
    assert abs(capillary_energy(u, theta) - expect) <= 1e-13 * expect


@settings(max_examples=40)
@given(theta=st.floats(0.2, np.pi - 0.2), bprime=st.floats(-2.0, 2.0),
       offset=st.floats(-5.0, 5.0), h=st.sampled_from([0.5, 0.25]),
       dim=st.sampled_from([1, 2]))
def test_affine_data_are_recovered_to_roundoff(theta, bprime, offset, h, dim):
    angle = CapillaryAngle(theta)
    grid = build_grid(dim, h, 2.0, 1.0)
    aff = affine_capillary_solution(angle, (bprime,) if dim == 2 else (), offset)
    spec = ProblemSpec.from_boundary_data(grid, angle, aff)
    sol, rep = newton_solve(spec)
    exact = aff(grid.nodes)
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations == 0
    scale = max(1.0, float(np.max(np.abs(exact))))
    assert np.max(np.abs(sol.values - exact)) <= 1e-12 * scale


def test_validation_errors_are_capillary_lab_errors():
    grid = build_grid(1, 0.25, 1.0)
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidParameter):
            SolverConfig(tol_residual=tol)
    with pytest.raises(InvalidParameter):
        ProblemSpec(grid=grid, theta=THETA, dirichlet=np.array([np.nan]))
    with pytest.raises(InvalidParameter):
        ProblemSpec(grid=grid, theta=THETA, dirichlet=np.zeros(1), H=np.inf)
    assert issubclass(InvalidParameter, CapillaryLabError)
    assert issubclass(InvalidParameter, ValueError)


def test_ladder_cg_iterations_with_the_exact_coarsest_solve(monkeypatch):
    # 46 CG iterations in total when the hierarchy ran down to one unknown
    counts = []
    pcg = solver._pcg

    def counting_pcg(*args):
        x, iterations = pcg(*args)
        counts.append(iterations)
        return x, iterations

    monkeypatch.setattr(solver, "_pcg", counting_pcg)
    for h in (0.05, 0.025, 0.0125):
        grid = build_grid(2, h, 1.0, 1.0)
        spec = ProblemSpec.from_boundary_data(grid, THETA, _ladder_data())
        _, rep = newton_solve(spec, SolverConfig(tol_residual=1e-12))
        assert rep.status is SolveStatus.CONVERGED
    # the lift and three Newton steps per rung all reach the counted core
    assert len(counts) == 12
    assert sum(counts) <= 46


# per ladder rung h: sha256 of the solution's values, the Newton steps and
# the repr of the residual history, as computed before the lift became the
# first step of the Newton loop
LADDER_SOLUTIONS = {
    0.05: ("6f6bc51a7a955135f0eca980479014afd0b7034dd080f4832e20133e5200a649", 4,
           "(28.046832149081364, 0.25996958256536623, 0.005955021183411644, "
           "2.3918541276063406e-06, 5.741067343745242e-13)"),
    0.025: ("f77cc0a1b97bf736a5eaf54d6b4ea26d37bb83fa556801e09c714f87c2b68887", 4,
            "(59.14811038537814, 0.31277749402834754, 0.00842467307168252, "
            "5.718119601080817e-06, 2.544579130736579e-12)"),
    0.0125: ("af9fb8c1ab06df9f934183d725841bd45a9697c4584810686cb6716dc141354d", 4,
             "(122.26241200380579, 0.35179861022564257, 0.0102300199268001, "
             "1.055835873002564e-05, 6.939934737992813e-12)"),
}


@pytest.mark.parametrize("h", sorted(LADDER_SOLUTIONS, reverse=True))
def test_ladder_solutions_keep_their_pinned_bytes(h):
    digest, iterations, history = LADDER_SOLUTIONS[h]
    grid = build_grid(2, h, 1.0, 1.0)
    spec = ProblemSpec.from_boundary_data(grid, THETA, _ladder_data())
    sol, rep = newton_solve(spec, SolverConfig(tol_residual=1e-12))
    assert rep.status is SolveStatus.CONVERGED
    assert hashlib.sha256(sol.values.tobytes()).hexdigest() == digest
    assert rep.iterations == iterations
    assert repr(rep.residual_history) == history


# a 1D solve with a source, and 2D solves whose side axis has 3 and 4 nodes
# (free widths 1 and 2, where two stencil deltas share one diagonal offset;
# the 4-node grid coarsens to a 3-node side axis, solved exactly): sha256 of
# the solution's values and the repr of the residual history, as computed
# on the CSR Hessian pattern
THIN_SOLUTIONS = {
    "1d": ("83a33e6b25c3d728b13fb736732a59ac4c5764331456e7379f18e3a1a36724eb",
           "(0.5000000000002913, 0.26999879404042915, 0.05589251519362293, "
           "0.00017846132204724086, 3.346087851241464e-10, 5.115907697472721e-13)"),
    "side3": ("35cbe3eff81c05258226bb8c076204351c687b0e968809046934db11562f0866",
              "(61.084176252697546, 0.11322628189019657, 4.85866409301039e-05, "
              "1.5368151196071267e-11)"),
    "side4": ("c3f1972083e9a84326ec7a2a4ebce008362419a43c57639dc18f72d1430dbccc",
              "(39.07725192616282, 0.1593610801771348, 0.00014112226513596227, "
              "1.2010836769604794e-10, 1.8456347561368602e-12)"),
}


@pytest.mark.parametrize("name", sorted(THIN_SOLUTIONS))
def test_thin_and_1d_solutions_keep_their_pinned_bytes(name):
    digest, history = THIN_SOLUTIONS[name]
    if name == "1d":
        grid = build_grid(1, 1 / 64, 1.0)
        spec = ProblemSpec.from_boundary_data(grid, THETA, np.array([0.3]), H=0.5)
    else:
        grid = (build_grid(2, 1 / 32, 1.0, 1 / 32) if name == "side3"
                else _box_grid(1 / 32, (33, 4)))
        spec = ProblemSpec.from_boundary_data(grid, THETA, _ladder_data())
    assert grid.shape[1:] == {"1d": (), "side3": (3,), "side4": (4,)}[name]
    sol, rep = newton_solve(spec, SolverConfig(tol_residual=1e-12))
    assert rep.status is SolveStatus.CONVERGED
    assert hashlib.sha256(sol.values.tobytes()).hexdigest() == digest
    assert repr(rep.residual_history) == history


def test_pcg_tolerances_follow_the_lift_and_the_forcing_terms(monkeypatch):
    rtols = []
    pcg = solver._pcg

    def recording_pcg(a, diagonal, b, rtol, *args):
        rtols.append(rtol)
        return pcg(a, diagonal, b, rtol, *args)

    monkeypatch.setattr(solver, "_pcg", recording_pcg)
    grid = build_grid(2, 0.05, 1.0, 1.0)
    spec = ProblemSpec.from_boundary_data(grid, THETA, _ladder_data())
    cfg = SolverConfig(tol_residual=1e-12)

    # a cold solve lifts first; the forcing terms continue from eta = _LIFT_TOL
    sol, rep = newton_solve(spec, cfg)
    assert rep.status is SolveStatus.CONVERGED
    assert len(rtols) == rep.iterations
    assert rtols[0] == solver._LIFT_TOL
    target = cfg.tol_residual * rep.residual_history[0]
    _assert_forcing_sequence(rtols[1:], rep.residual_history, 1, target, cfg,
                             solver._LIFT_TOL)

    # a warm start takes no lift: its first solve gets the first-step forcing
    rtols.clear()
    _, rep = newton_solve(replace(spec, initial=ScalarField(
        grid, 0.5 * (sol.values + spec.impose(solver._affine_initial(spec))))), cfg)
    assert rep.status is SolveStatus.CONVERGED
    assert rtols and solver._LIFT_TOL not in rtols
    assert rtols[0] == solver._EW_ETA0
    _assert_forcing_sequence(rtols, rep.residual_history, 0, target, cfg, None)

    # the lift ignores _MIN_STEP; the Newton step after it has no trial length
    rtols.clear()
    monkeypatch.setattr(solver, "_MIN_STEP", 1.5)
    monkeypatch.setattr(solver, "_MAX_NEWTON", 2)
    _, rep = newton_solve(spec)
    assert rep.status is SolveStatus.STALLED
    assert rep.iterations == 1
    assert rtols[0] == solver._LIFT_TOL and len(rtols) == 2


def test_two_level_vcycle_matches_a_dense_oracle():
    # 28 free nodes: one coarsening to 6, which is solved exactly
    grid = build_grid(2, 0.25, 1.0, 1.0)
    assert len(grid.coarse) == 1
    rng = np.random.default_rng(3)
    blocks = solver._hessian_blocks(grid, rng.uniform(-1.0, 1.0, grid.n_nodes))
    hess = _free_matrix(grid, blocks)
    b = rng.standard_normal(hess.shape[0])

    a = hess.toarray()
    p = _matrix(grid.coarse[0].prolongation).toarray()
    wdinv = solver._OMEGA / np.abs(np.diag(a))
    x = np.zeros_like(b)
    for _ in range(solver._SWEEPS):
        x = x + wdinv * (b - a @ x)
    x = x + p @ np.linalg.solve(p.T @ a @ p, p.T @ (b - a @ x))
    for _ in range(solver._SWEEPS):
        x = x + wdinv * (b - a @ x)

    got = solver._vcycle(*solver._galerkin_levels(
        *solver._free_level(grid.shape, blocks), grid.coarse, blocks), b)
    assert np.max(np.abs(got - x)) <= 1e-13 * np.max(np.abs(x))


def _assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _arrays(m):
    """The DIA arrays (offsets, data, n) of a square scipy matrix at every
    offset from 1 - n to n - 1, ascending: data[d, j] = m[j - offsets[d], j],
    +0.0 outside m."""
    dense = m.toarray()
    n = dense.shape[0]
    offsets = np.arange(1 - n, n)
    rows = np.arange(n) - offsets[:, None]
    inside = (rows >= 0) & (rows < n)
    return offsets, np.where(inside, dense[np.where(inside, rows, 0), np.arange(n)], 0.0), n


def _csr(a):
    """The scipy CSR matrix of DIA arrays (offsets, data, n), every entry
    inside the matrix stored (the entries of two diagonals at one offset
    summed)."""
    offsets, data, n = a
    cols = np.broadcast_to(np.arange(n), data.shape)
    rows = cols - offsets[:, None]
    inside = (rows >= 0) & (rows < n)
    return sp.coo_matrix((data[inside], (rows[inside], cols[inside])),
                         shape=(n, n)).tocsr()


def _dense(a):
    """The dense matrix of DIA arrays a by one bincount, so the entries of
    two diagonals at one offset add."""
    offsets, data, n = a
    cols = np.arange(n)
    rows = cols - offsets[:, None]
    inside = (rows >= 0) & (rows < n)
    return np.bincount((rows * n + cols)[inside], data[inside],
                       minlength=n * n).reshape(n, n)


def _matrix(p):
    """The scipy matrix of plain CSR arrays (indptr, indices, data, n_cols)."""
    indptr, indices, data, n_cols = p
    return sp.csr_matrix((data, indices, indptr), shape=(indptr.size - 1, n_cols))


def _free_matrix(level, blocks):
    """The solver's free-free matrix of per-cell blocks on the lattice of a
    grid or a coarsening as a scipy matrix."""
    return _csr(solver._free_level(level.shape, blocks)[0])


def test_kernel_product_is_bitwise_the_scipy_product():
    # a 2D Newton system at a random state, on int64 offsets; its entries
    # outside the stencil are zeros, which the compacted CSR matrix drops
    grid = build_grid(2, 0.1, 1.0, 1.0)
    rng = np.random.default_rng(17)
    vals = rng.uniform(-1.0, 1.0, grid.n_nodes)
    spec = ProblemSpec(grid=grid, theta=THETA,
                       dirichlet=vals[grid.dirichlet_indices], H=0.1)
    arrays = assemble_jacobian(ScalarField(grid, vals), spec).matrix
    assert arrays[0].dtype == np.int64
    hess = _csr(arrays)
    hess.eliminate_zeros()
    x = rng.standard_normal(hess.shape[0])
    _assert_same_bytes(solver._dia_product(arrays, x), hess @ x)
    # a grid-less SPD matrix on int32 offsets, the kernel's other index type
    a = rng.standard_normal((40, 40))
    spd = sp.csr_matrix(a @ a.T + 40.0 * np.eye(40))
    offsets, data, n = _arrays(spd)
    x = rng.standard_normal(40)
    _assert_same_bytes(solver._dia_product((offsets.astype(np.int32), data, n), x),
                       spd @ x)
    b = rng.standard_normal(40)
    got, _ = _solve(spd, b, rtol=1e-14)
    want = np.linalg.solve(spd.toarray(), b)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


def test_newton_solve_builds_no_scipy_matrix(monkeypatch):
    # the Newton loop, a fresh grid's hierarchy and the public
    # assemble_jacobian all run on plain DIA and CSR arrays
    def refuse(*args, **kwargs):
        raise AssertionError("a scipy matrix was built")

    monkeypatch.setattr(sp, "csr_matrix", refuse)
    monkeypatch.setattr(sp, "dia_matrix", refuse)
    grid = build_grid(2, 0.1, 1.0, 1.0)
    _, rep = newton_solve(ProblemSpec.from_boundary_data(grid, THETA, _ladder_data()))
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations >= 2
    system = assemble_jacobian(ScalarField(grid, np.zeros(grid.n_nodes)),
                               ProblemSpec(grid=grid, theta=THETA,
                                           dirichlet=np.zeros(grid.dirichlet_indices.size)))
    assert system.matrix[2] == grid.free_indices.size == system.rhs.size


def test_restriction_through_p_is_bitwise_the_product_of_p_transpose():
    # odd cell counts along x1 and on the coarse levels along x2 (13 x 10
    # cells coarsen to 7 x 5; 25 x 18 to 13 x 9 and 7 x 5), where an
    # axis ends in a one-child coarse cell
    rng = np.random.default_rng(18)
    for extent, n_levels in (((13.0, 5.0), 1), ((25.0, 9.0), 2)):
        grid = build_grid(2, 1.0, *extent)
        assert len(grid.coarse) == n_levels
        for p in (level.prolongation for level in grid.coarse):
            m = _matrix(p)
            x = rng.standard_normal(m.shape[0])
            _assert_same_bytes(solver._restrict(p, x), m.T.tocsr() @ x)
            y = rng.standard_normal(m.shape[1])
            _assert_same_bytes(solver._product(p, y), m @ y)


def _oracle_free_hessian(grid, blocks):
    """The dense free-free sum of E_c^T B_c E_c over the cells of grid,
    block entry by block entry (i*k + j ascending), each over every cell:
    the order of a one-bincount scatter of the blocks, whose rounding the
    diagonals reproduce (within one entry, no two cells share a pair)."""
    c = grid.corner_rows
    k = c.shape[0]
    n = grid.free_indices.size
    pos = np.full(grid.n_nodes, -1)
    pos[grid.free_indices] = np.arange(n)
    out = np.zeros((n, n))
    for i in range(k):
        for j in range(k):
            rows, cols = pos[c[i]], pos[c[j]]
            both = (rows >= 0) & (cols >= 0)
            out[rows[both], cols[both]] += blocks[i * k + j][both]
    return out


# n1 nodes along x1 and n2 along the side axis at h = 1 (odd cell counts;
# 3 and 4 side nodes are free widths 1 and 2, where two stencil deltas
# share a diagonal offset, and 4 or 5 nodes coarsen to 3), at a random or
# the flat state, whose Hessian has exact zeros
@settings(max_examples=40)
@given(dim=st.sampled_from([1, 2]), n1=st.integers(2, 40), n2=st.integers(3, 20),
       flat=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@example(dim=2, n1=33, n2=4, flat=False, seed=0)     # coarsens to 3 side nodes
@example(dim=2, n1=14, n2=7, flat=True, seed=1)      # 13 x 6 cells: 7 x 3, 4 x 2
@example(dim=2, n1=2, n2=3, flat=False, seed=2)      # one free node
@example(dim=1, n1=66, n2=3, flat=False, seed=3)     # 65 cells: odd coarse levels
def test_diagonal_levels_are_bitwise_the_csr_matrix_of_the_cell_blocks(dim, n1, n2,
                                                                       flat, seed):
    grid = build_grid(1, 1.0, n1 - 1.0) if dim == 1 else _box_grid(1.0, (n1, n2))
    rng = np.random.default_rng(seed)
    vals = np.zeros(grid.n_nodes) if flat else rng.uniform(-1.0, 1.0, grid.n_nodes)
    blocks = solver._hessian_blocks(grid, vals)
    for k, shape in enumerate([grid.shape] + [level.shape for level in grid.coarse]):
        if k:
            blocks = solver._coarse_blocks(grid.coarse[k - 1], blocks)
        a, diagonal = solver._free_level(shape, blocks)
        want = _oracle_free_hessian(_box_grid(1.0, shape), blocks)
        assert a[2] == want.shape[0] and a[1].shape == (3 ** dim, a[2])
        x = rng.standard_normal(a[2])
        _assert_same_bytes(solver._dia_product(a, x), sp.csr_matrix(want) @ x)
        _assert_same_bytes(diagonal, np.diagonal(want).copy())
        _assert_same_bytes(_dense(a), want)


def _plan_operator(level, blocks):
    """The operator of a Coarsening's level from its cell blocks by one
    bincount through the level's plan: the (3^dim, n) diagonals, or the
    dense (n, n) matrix of a level without offsets."""
    n, offsets = level.size, level.offsets
    shape = (n, n) if offsets is None else (offsets.size, n)
    size = math.prod(shape)
    return np.bincount(level.plan, blocks.ravel(), minlength=size + 1)[:size].reshape(shape)


# hierarchies that end at a dense level: 12 x 20 cells, 13 x 10 cells
# (odd counts: they coarsen to 7 x 5) and the 65-cell line; 199 x 4 cells
# stop early at (101, 3), a smoothed level of 100 free nodes whose plan
# targets diagonals
@pytest.mark.parametrize("args, dense_last", [
    ((2, 0.5, 6.0, 5.0), True), ((2, 1.0, 13.0, 5.0), True),
    ((1, 1.0, 65.0), True), ((2, 1.0, 199.0, 2.0), False)])
def test_scatter_plans_give_the_slice_added_levels_bit_for_bit(args, dense_last):
    grid = build_grid(*args)
    assert grid.coarse and (grid.coarse[-1].offsets is None) == dense_last
    rng = np.random.default_rng(23)
    for level in grid.coarse:
        # random blocks with signed zeros
        blocks = rng.standard_normal((4 ** grid.dim,
                                      math.prod(n - 1 for n in level.shape)))
        blocks[rng.random(blocks.shape) < 0.1] = -0.0
        blocks[rng.random(blocks.shape) < 0.1] = 0.0
        want, _ = solver._free_level(level.shape, blocks)
        assert level.size == want[2]
        got = _plan_operator(level, blocks)
        if level.offsets is None:
            assert level is grid.coarse[-1]
            _assert_same_bytes(got, _dense(want))
        else:
            _assert_same_bytes(level.offsets, want[0])
            _assert_same_bytes(got, want[1])

    # the solver's levels: each coarse level's diagonals, and the last
    # level's dense matrix or smoother, as the slice-adds give them
    blocks = solver._hessian_blocks(grid, rng.uniform(-1.0, 1.0, grid.n_nodes))
    a, diagonal = solver._free_level(grid.shape, blocks)
    levels, coarsest = solver._galerkin_levels(a, diagonal, grid.coarse, blocks.copy())
    for k, level in enumerate(grid.coarse):
        blocks = solver._coarse_blocks(level, blocks)
        a, diagonal = solver._free_level(level.shape, blocks)
        if k + 1 < len(levels):
            _assert_same_bytes(levels[k + 1][0][1], a[1])
            _assert_same_bytes(levels[k + 1][1], solver._jacobi_weights(diagonal))
    x = np.linspace(-1.0, 1.0, a[2])
    if dense_last:
        linv = np.linalg.inv(np.linalg.cholesky(_dense(a)))
        want = linv.T @ (linv @ x)
    else:
        wdinv = solver._jacobi_weights(diagonal)
        want = solver._smooth(a, wdinv, x, solver._smooth(a, wdinv, x, None))
    _assert_same_bytes(coarsest(x), want)


def test_a_hierarchy_that_stops_early_still_converges():
    # 200 x 5 nodes coarsen once, to a smoothed last level of 100 free nodes
    grid = build_grid(2, 1.0, 199.0, 2.0)
    assert [level.size for level in grid.coarse] == [100]
    _, rep = newton_solve(ProblemSpec.from_boundary_data(grid, THETA, _ladder_data()))
    assert rep.status is SolveStatus.CONVERGED
    assert rep.iterations >= 1


def _assert_same_levels(got, want, b):
    """Two _galerkin_levels results are bitwise the same hierarchy: the
    same DIA arrays, Jacobi weights and prolongations on every level, and
    the same last-level solve and V-cycle of b."""
    (levels, coarsest), (fresh, fresh_coarsest) = got, want
    assert len(levels) == len(fresh)
    for (a, wdinv, p), (fa, fwdinv, fp) in zip(levels, fresh):
        _assert_same_bytes(a[0], fa[0])
        _assert_same_bytes(a[1], fa[1])
        assert a[2] == fa[2] and p is fp
        _assert_same_bytes(wdinv, fwdinv)
    last = fresh[-1][2][3] if fresh else b.size
    x = np.linspace(-1.0, 1.0, last)
    _assert_same_bytes(coarsest(x), fresh_coarsest(x))
    _assert_same_bytes(solver._vcycle(levels, coarsest, b),
                       solver._vcycle(fresh, fresh_coarsest, b))


# L1 = n1 - 1 cells at h = 1, and in 2D n2 side nodes: a side axis of 2
# nodes has no free node, of 3 one free row; odd cell counts give coarse
# cells with one child along an axis
@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]), n1=st.integers(2, 24), n2=st.integers(2, 14),
       seed=st.integers(0, 2 ** 32 - 1))
@example(dim=2, n1=14, n2=7, seed=0)      # 13 x 6 cells
@example(dim=2, n1=9, n2=3, seed=1)       # 8 x 2 cells, one free side row
@example(dim=2, n1=6, n2=2, seed=2)       # no free node
@example(dim=1, n1=66, n2=3, seed=3)      # 65 cells
def test_one_scratch_gives_the_kernels_of_fresh_calls_bit_for_bit(dim, n1, n2, seed):
    grid = build_grid(1, 1.0, n1 - 1.0) if dim == 1 else _box_grid(1.0, (n1, n2))
    rng = np.random.default_rng(seed)
    theta = CapillaryAngle(rng.uniform(0.3, np.pi - 0.3))
    spec = ProblemSpec(grid=grid, theta=theta,
                       dirichlet=np.zeros(grid.dirichlet_indices.size),
                       H=lambda pts: np.sin(pts[:, 0]))
    scratch = solver._Scratch(grid)
    source = spec.source_at_nodes()
    # two states through one scratch: the second must not see the first
    for state in range(2):
        vals = rng.uniform(-2.0, 2.0, grid.n_nodes) * (state + 1)
        blocks = solver._hessian_blocks(grid, vals, scratch)
        fresh_blocks = solver._hessian_blocks(grid, vals)
        _assert_same_bytes(blocks, fresh_blocks)
        # the residual and the block action run while the blocks live
        res, v_min = solver._residual_full(vals, spec, scratch, source)
        fresh_res, fresh_v_min = solver._residual_full(vals, spec)
        _assert_same_bytes(res, fresh_res)
        assert v_min == fresh_v_min
        x = rng.standard_normal(grid.n_nodes)
        _assert_same_bytes(solver._block_action(grid, blocks, x, scratch),
                           solver._block_action(grid, fresh_blocks, x))
        a, diagonal = solver._free_level(grid.shape, blocks, scratch.dia)
        fa, fdiagonal = solver._free_level(grid.shape, fresh_blocks)
        _assert_same_bytes(a[1], fa[1])
        _assert_same_bytes(a[0], fa[0])
        _assert_same_bytes(diagonal, fdiagonal)
        _assert_same_bytes(blocks, fresh_blocks)
        # the first coarsening overwrites the blocks
        b = rng.standard_normal(a[2])
        got = solver._galerkin_levels(a, diagonal, grid.coarse, blocks, scratch)
        _assert_same_levels(got, solver._galerkin_levels(fa, fdiagonal, grid.coarse,
                                                         fresh_blocks), b)


def _slab_extents(obj, slab):
    # the [first, end) offsets in `slab` of every view of it in obj, a
    # scratch attribute: an array, or lists and tuples holding them
    if isinstance(obj, np.ndarray) and np.may_share_memory(obj, slab):
        first = (obj.__array_interface__["data"][0]
                 - slab.__array_interface__["data"][0]) // 8
        yield first, first + 1 + sum((n - 1) * st // 8
                                     for n, st in zip(obj.shape, obj.strides))
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _slab_extents(item, slab)


@pytest.mark.parametrize("dim, n1, n2", [(1, 2, 0), (1, 9, 0), (1, 66, 0),
                                         (2, 3, 3), (2, 6, 2), (2, 9, 3),
                                         (2, 14, 7), (2, 17, 9)])
def test_slab_lanes_are_the_extent_of_the_scratch_views(dim, n1, n2):
    # the lengths that build_grid budgets from the shape alone are those of
    # the slab a solve allocates, and each lane is as long as its longest
    # view reaches: the largest buffer set of each lane fills it
    grid = build_grid(1, 1.0, n1 - 1.0) if dim == 1 else _box_grid(1.0, (n1, n2))
    start, lane1 = solver._slab_lanes(grid.shape)
    scratch = solver._Scratch(grid)
    assert scratch._slab.size == start + lane1
    names = list(vars(scratch)) + (["gathers"] if grid.coarse else [])
    ends = [0, 0]
    for name in names:
        if name.startswith("_"):
            continue
        for first, end in _slab_extents(getattr(scratch, name), scratch._slab):
            assert 0 <= first < end <= start + lane1
            lane = int(first >= start)
            assert lane == 1 or end <= start
            ends[lane] = max(ends[lane], end)
    assert ends[1] == start + lane1
    assert ends[0] == start


def _threaded_problems():
    # two problems on grids of one shape (3,321 nodes)
    ladder = ProblemSpec.from_boundary_data(build_grid(2, 0.025, 1.0, 1.0), THETA,
                                            _ladder_data())
    _, sourced = _affine_problem(build_grid(2, 0.025, 1.0, 1.0), THETA, (0.3,), 0.1,
                                 H=0.2)
    return ladder, sourced


def test_two_solves_on_two_threads_give_the_serial_bytes():
    # each solve carves its own scratch, so two at once share no buffer
    serial = [newton_solve(spec) for spec in _threaded_problems()]
    specs = _threaded_problems()
    barrier = threading.Barrier(2)
    results = [None, None]

    def run(i):
        barrier.wait(timeout=60.0)
        results[i] = newton_solve(specs[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
        assert not t.is_alive()
    assert None not in results
    for (sol, rep), (want_sol, want_rep) in zip(results, serial, strict=True):
        assert rep.status is SolveStatus.CONVERGED
        _assert_same_bytes(sol.values, want_sol.values)
        assert rep == want_rep


def test_ladder_solve_memory_peak_stays_at_the_parent_kernels():
    # the 3,321-node ladder rung on a fresh grid, after a first solve has
    # loaded scipy: the per-call temporaries peaked at 1.79 MB before the
    # scratch slab (1.78-1.79 MB with it; a buffer per name took the
    # 13,041-node rung from 7.12 to 11.02 MB)
    newton_solve(ProblemSpec.from_boundary_data(build_grid(2, 0.25, 1.0, 1.0), THETA,
                                                _ladder_data()))
    spec = ProblemSpec.from_boundary_data(build_grid(2, 0.025, 1.0, 1.0), THETA,
                                          _ladder_data())
    tracemalloc.start()
    try:
        _, rep = newton_solve(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.status is SolveStatus.CONVERGED
    assert peak <= 1.15 * 1.79e6


def test_cg_stagnation_ends_the_solve_at_the_last_accepted_state(monkeypatch):
    # a system that needs more than _CG_MAX_ITER iterations ends the solve
    # as LINEAR_FAILURE with the history of the steps before it
    counts = []
    pcg = solver._pcg

    def counting_pcg(*args):
        x, iterations = pcg(*args)
        counts.append(iterations)
        return x, iterations

    monkeypatch.setattr(solver, "_pcg", counting_pcg)
    grid = build_grid(2, 0.05, 1.0, 1.0)
    spec = ProblemSpec.from_boundary_data(grid, THETA, _ladder_data())
    _, full = newton_solve(spec)
    assert full.status is SolveStatus.CONVERGED
    # every step was kept, so system k produced history entry k + 1
    assert len(counts) == full.iterations
    first = int(np.argmax(counts))      # the first system with the most iterations
    monkeypatch.setattr(solver, "_pcg", pcg)
    monkeypatch.setattr(solver, "_CG_MAX_ITER", max(counts) - 1)
    _, rep = newton_solve(spec)
    assert rep.status is SolveStatus.LINEAR_FAILURE
    assert rep.iterations == first
    assert rep.residual_history == full.residual_history[:first + 1]


def test_non_spd_newton_system_fails_at_the_coarsest_factorization(monkeypatch):
    # a negated Hessian: its Galerkin coarsest level is negative definite
    blocks = solver._hessian_blocks
    monkeypatch.setattr(solver, "_hessian_blocks",
                        lambda grid, values, scratch: -blocks(grid, values, scratch))
    errors = []
    pcg = solver._pcg

    def recording_pcg(*args):
        try:
            return pcg(*args)
        except LinearSolveFailure as exc:
            errors.append(str(exc))
            raise

    monkeypatch.setattr(solver, "_pcg", recording_pcg)
    grid = build_grid(2, 0.05, 1.0, 1.0)
    spec = ProblemSpec.from_boundary_data(grid, THETA, _ladder_data())
    _, rep = newton_solve(spec)
    assert rep.status is SolveStatus.LINEAR_FAILURE
    assert len(errors) == 1 and "Cholesky breakdown" in errors[0]


# L1 = m1 and Lp = mp cells at h = 1; m1 = 2 leaves a three-node x1 axis,
# whose hierarchy stops at a smoothed last level above 32 unknowns (39 at
# mp = 40); the 1D example coarsens 64 free nodes to an exact level of 32
@settings(max_examples=40)
@given(dim=st.sampled_from([1, 2]), m1=st.integers(1, 12),
       mp=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
@example(dim=2, m1=2, mp=40, seed=0)
@example(dim=1, m1=64, mp=1, seed=1)
def test_multigrid_cg_matches_a_dense_solve(dim, m1, mp, seed):
    grid = build_grid(dim, 1.0, float(m1), float(mp))
    rng = np.random.default_rng(seed)
    blocks = solver._hessian_blocks(grid, rng.uniform(-1.0, 1.0, grid.n_nodes))
    hess = _free_matrix(grid, blocks)
    b = rng.standard_normal(hess.shape[0])
    x, _ = _solve(hess, b, rtol=1e-14, grid=grid, blocks=blocks)
    want = np.linalg.solve(hess.toarray(), b)
    assert np.linalg.norm(x - want) <= 1e-10 * np.linalg.norm(want)


# L1 = m1 and Lp = mp cells at h = 1: odd cell counts end an axis in a
# coarse cell with one child; the thin box coarsens a three-node x1 axis
@settings(max_examples=40)
@given(dim=st.sampled_from([1, 2]), m1=st.integers(1, 12),
       mp=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
@example(dim=2, m1=2, mp=20, seed=0)      # 2 x 40 cells
@example(dim=1, m1=64, mp=1, seed=1)      # the 64-cell line
@example(dim=2, m1=13, mp=5, seed=2)      # odd along both axes
def test_cell_block_coarse_operators_equal_the_sparse_triple_product(dim, m1, mp,
                                                                     seed):
    grid = build_grid(dim, 1.0, float(m1), float(mp))
    rng = np.random.default_rng(seed)
    blocks = solver._hessian_blocks(grid, rng.uniform(-1.0, 1.0, grid.n_nodes))
    want = _free_matrix(grid, blocks)
    for level in grid.coarse:
        p = _matrix(level.prolongation)
        want = (p.T.tocsr() @ want @ p).tocsr()
        blocks = solver._coarse_blocks(level, blocks)
        got = _free_matrix(level, blocks).toarray()
        assert got.shape == want.shape
        # the sparse product stores no zero, so its pattern is its nonzeros,
        # which the diagonals' nonzeros must equal
        dense = want.toarray()
        assert np.array_equal(got != 0.0, dense != 0.0)
        assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))


_THREAD_PROBE = """
import hashlib
import numpy as np
from capgraph import (CapillaryAngle, ProblemSpec, SolverConfig,
                      affine_capillary_solution, build_grid, newton_solve)
theta = CapillaryAngle(np.pi / 3)
aff = affine_capillary_solution(theta, (0.2,), 0.0)
def data(pts):
    taper = np.cos(0.5 * np.pi * pts[:, 1]) ** 2
    return aff(pts) + 0.25 * np.exp(-((pts[:, 0] - 0.4) ** 2 + pts[:, 1] ** 2)) * taper
spec = ProblemSpec.from_boundary_data(build_grid(2, 0.0125, 1.0, 1.0), theta, data)
sol, rep = newton_solve(spec, SolverConfig(tol_residual=1e-12))
print(rep.status.value, rep.iterations, repr(rep.energy),
      hashlib.sha256(sol.values.tobytes()).hexdigest())
"""


def test_ladder_solution_bytes_do_not_depend_on_the_blas_thread_count():
    # 13,041 nodes, where a BLAS dot product of the 12,720 free values
    # changes in its last bits between one and two threads
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", _THREAD_PROBE],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0].startswith("converged 4 ")
    assert outputs[0] == outputs[1]



def test_fixed_order_dot_product_does_not_depend_on_buffer_alignment():
    # the same 50,560 values at 8 element offsets (every alignment of a
    # 64-byte line) give one bitwise result
    rng = np.random.default_rng(21)
    x, y = rng.standard_normal((2, 50_560))
    results = set()
    for offset in range(8):
        buf = np.empty((2, x.size + 8))
        xs, ys = buf[0, offset:offset + x.size], buf[1, 7 - offset:7 - offset + x.size]
        xs[:], ys[:] = x, y
        results.add(solver._dot(xs, ys))
    assert len(results) == 1


# the discrete comparison principle on mild data (|Du| of order one, angles
# within pi/6 of pi/2), on one 13 x 25 lattice of [0, 3] x [-3, 3]
_COMPARISON_GRID = build_grid(2, 0.25, 3.0, 3.0)
_MILD_ANGLE = st.floats(np.pi / 3, 2 * np.pi / 3)


def _comparison_solve(theta, data):
    """A cold solve of data on _COMPARISON_GRID: its values, its converged
    target and its largest W = sqrt(1 + |Du|^2)."""
    cfg = SolverConfig()
    sol, rep = newton_solve(ProblemSpec.from_boundary_data(
        _COMPARISON_GRID, CapillaryAngle(theta), data), cfg)
    assert rep.status is SolveStatus.CONVERGED
    target = cfg.tol_residual * max(1.0, rep.residual_history[0])
    w = np.sqrt(1.0 + np.max(np.sum(rep.gradient ** 2, axis=1)))
    return sol.values, target, w


def _comparison_tolerance(first, second):
    # each solve stops at a residual (div(Du/W) - H per unit of node
    # measure) below its target t; the linearized operator is elliptic with
    # constant 1/W^3 and takes no flux through the wall, so the barrier
    # W^3 t (L1^2 - x1^2) / 2 bounds its distance from the exact discrete
    # solution by L1^2 W^3 t / 2.  The two solves' bounds are summed and
    # doubled for the coefficients' variation, which the barrier ignores
    w = max(first[2], second[2])
    return _COMPARISON_GRID.L1 ** 2 * w ** 3 * (first[1] + second[1])


def _mild_data(seed, theta, slope, amp):
    # the affine capillary solution of theta, of slope `slope` along the
    # wall, plus amp b, and the bump b: nonnegative, of unit max over the
    # Dirichlet nodes and tapered to zero at the sides
    rng = np.random.Generator(np.random.Philox(seed))
    bump = harness._smooth_bump(rng, _COMPARISON_GRID)
    base = affine_capillary_solution(CapillaryAngle(theta), (slope,), 0.0)
    return (lambda p: base(p) + amp * bump(p)), bump


@settings(max_examples=40, deadline=None)
@given(theta=_MILD_ANGLE, seed=st.integers(0, 2 ** 32 - 1),
       slope=st.floats(-0.5, 0.5), amp=st.floats(0.0, 1.0),
       lift=st.floats(0.05, 1.0))
def test_solutions_are_ordered_by_their_dirichlet_data(theta, seed, slope, amp, lift):
    # f2 = f1 + lift * b with b >= 0: u2 >= u1 at every node, up to the
    # solves' own tolerance
    data, bump = _mild_data(seed, theta, slope, amp)
    low = _comparison_solve(theta, data)
    high = _comparison_solve(theta, lambda p: data(p) + lift * bump(p))
    assert np.min(high[0] - low[0]) >= -_comparison_tolerance(low, high)


@settings(max_examples=40, deadline=None)
@given(thetas=st.lists(_MILD_ANGLE, min_size=2, max_size=2, unique=True),
       seed=st.integers(0, 2 ** 32 - 1), slope=st.floats(-0.5, 0.5),
       amp=st.floats(0.0, 1.0))
def test_solutions_are_ordered_by_their_contact_angle(thetas, seed, slope, amp):
    # the energy rewards wall height by cos(theta), so with equal Dirichlet
    # data (flat across the wall, as at theta = pi/2) the smaller angle's
    # solution lies above the larger one's, up to the solves' own tolerance
    small, large = sorted(thetas)
    data, _ = _mild_data(seed, np.pi / 2, slope, amp)
    above = _comparison_solve(small, data)
    below = _comparison_solve(large, data)
    assert np.min(above[0] - below[0]) >= -_comparison_tolerance(above, below)
