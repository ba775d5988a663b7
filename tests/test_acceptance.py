"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import scipy.sparse as sp

from capgraph import (CapillaryAngle, CutoffParams, ExperimentConfig,
                      ProblemSpec, ReportRow, ScalarField, SolveStatus,
                      SolverConfig, affine_capillary_solution,
                      angle_condition_holds, angle_condition_lower_bound,
                      angle_threshold, assemble_jacobian, assemble_residual,
                      build_grid, capillary_area_element,
                      cutoff_derivative_check, newton_solve,
                      one_sided_slope_limit, run_conormal_check,
                      run_liouville_experiment, run_minimizer_test, write_csv)

THETA_DEFAULT = CapillaryAngle(np.pi / 3)


def test_acceptance_1_exact_solution_recovery():
    rng = np.random.default_rng(2024)
    grid = build_grid(2, 0.1, 2.0, 2.0)
    pts = grid.nodes
    worst_err, worst_iters, worst_time = 0.0, 0, 0.0
    for _ in range(10):
        lo = np.arcsin(0.05)
        theta = CapillaryAngle(rng.uniform(lo, np.pi - lo))
        aff = affine_capillary_solution(theta, (rng.uniform(-1.0, 1.0),),
                                        rng.uniform(-1.0, 1.0))
        target = aff.on_grid(grid)
        # smooth seeded perturbation of the initial iterate; the Dirichlet
        # trace alone defines the problem
        a1, a2 = rng.uniform(0.5, 1.5, 2)
        bump = 0.1 * np.sin(a1 * np.pi * pts[:, 0] / 2.0) \
                   * np.cos(a2 * np.pi * pts[:, 1] / 4.0)
        spec = ProblemSpec(grid=grid, theta=theta,
                           dirichlet=target.values[grid.dirichlet_indices],
                           initial=ScalarField(grid, target.values + bump))
        start = time.monotonic()
        sol, rep = newton_solve(spec, SolverConfig(tol_residual=1e-12))
        elapsed = time.monotonic() - start
        err = float(np.max(np.abs(sol.values - target.values)))
        assert rep.status is SolveStatus.CONVERGED
        assert err <= 1e-9
        assert rep.iterations <= 15
        assert elapsed <= 5.0
        worst_err = max(worst_err, err)
        worst_iters = max(worst_iters, rep.iterations)
        worst_time = max(worst_time, elapsed)
    print(f"\nACCEPTANCE 1 (exact-solution recovery): PASS "
          f"max_err={worst_err:.2e} max_iters={worst_iters} "
          f"max_time={worst_time:.2f}s")


def test_acceptance_2_v_lower_bound_sweep():
    rng = np.random.default_rng(7)
    n = 1_000_000
    lo = np.arcsin(0.05)
    thetas = rng.uniform(lo, np.pi - lo, n)
    grads = rng.uniform(-25.0, 25.0, (n, 2))
    v = np.sqrt(1.0 + np.sum(grads ** 2, axis=1)) + np.cos(thetas) * grads[:, 0]
    margin = v - np.sin(thetas)
    violations = int(np.count_nonzero(margin < -1e-12))
    assert violations == 0
    near = margin < 1e-9
    if np.any(near):
        mins = np.stack([-np.cos(thetas[near]) / np.sin(thetas[near]),
                         np.zeros(np.count_nonzero(near))], axis=1)
        assert np.all(np.linalg.norm(grads[near] - mins, axis=1) < 1e-4)
    # constructed equality neighborhood (the random sweep has measure zero
    # chance of landing there): tiny offsets stay within the 1e-9 window
    theta = CapillaryAngle(1.1)
    g_star = np.array([-theta.cot_t, 0.0])
    for delta in (0.0, 1e-6, 1e-5):
        g = g_star + delta * np.array([0.8, -0.6])
        assert capillary_area_element(g, theta) - theta.sin_t < 1e-9
    assert capillary_area_element(g_star + 0.3, theta) - theta.sin_t > 1e-9
    print(f"ACCEPTANCE 2 (v lower bound, 1e6 draws): PASS "
          f"min_margin={np.min(margin):.2e} violations={violations}")


def test_acceptance_3_cutoff_lemma():
    rng = np.random.default_rng(11)
    worst_grad, worst_bdry = -np.inf, -np.inf
    lo = np.arcsin(0.05) + 1e-9
    for draw in range(20):
        theta = CapillaryAngle(rng.uniform(lo, np.pi - lo))
        r = float(np.exp(rng.uniform(np.log(0.5), np.log(8.0))))
        rep = cutoff_derivative_check(CutoffParams(r=r, theta=theta, dim=2),
                                      10_000, seed=100 + draw)
        worst_grad = max(worst_grad, rep.max_gradient_violation)
        worst_bdry = max(worst_bdry, rep.max_boundary_residual)
        assert rep.max_gradient_violation <= 1e-12
        assert rep.max_boundary_residual <= 1e-12
        assert rep.min_weight_inner >= rep.inner_lower_bound - 1e-12
    print(f"ACCEPTANCE 3 (cut-off lemma, 20x1e4): PASS "
          f"max|Dpsi| excess={worst_grad:.2e} wall identity={worst_bdry:.2e}")


def test_acceptance_4_conormal_orthogonality():
    start = time.monotonic()
    cfg = ExperimentConfig(scenario="conormal-check",
                           theta_rad=float(THETA_DEFAULT.theta),
                           r_levels=(1.0,), h_levels=(0.2, 0.1, 0.05),
                           perturb_amp=0.3, seed=3)
    report = run_conormal_check(cfg)
    elapsed = time.monotonic() - start
    assert [(c.check, c.passed) for c in report.checks] == [("conormal_decay", True)]
    ratios = report.details["ratios"]
    assert all(ratio >= 1.8 for ratio in ratios)
    assert elapsed <= 60.0
    print(f"ACCEPTANCE 4 (conormal orthogonality): PASS "
          f"residuals={[f'{x:.2e}' for x in report.details['residuals']]} "
          f"ratios={[f'{x:.2f}' for x in ratios]} time={elapsed:.1f}s")


def test_acceptance_5_angle_range_and_constants():
    expected = {4: 15.0 / 16.0, 5: 8.0 / 9.0, 6: 55.0 / 64.0,
                7: 21.0 / 25.0, 8: 119.0 / 144.0}
    for n, value in expected.items():
        assert angle_threshold(n) == value
    assert one_sided_slope_limit(CapillaryAngle(np.pi / 2)) == 0.0
    for t in np.linspace(0.2, np.pi / 2 - 0.05, 40):
        a = one_sided_slope_limit(CapillaryAngle(t))
        b = one_sided_slope_limit(CapillaryAngle(np.pi - t))
        assert abs(a - b) <= 1e-15
    script_b = angle_condition_lower_bound(4, CapillaryAngle(np.pi / 2), 0.0)
    assert abs(script_b - 1.875) <= 1e-15
    print(f"ACCEPTANCE 5 (angle range and constants): PASS "
          f"thresholds exact, C symmetric, script_B(4,pi/2,0)={script_b}")


def test_acceptance_6_coefficient_equivalence_sweep():
    lo = np.arcsin(0.05) + 1e-9
    thetas = np.linspace(lo, np.pi - lo, 50)
    eps_grid = np.linspace(0.05, 0.95, 10)
    disagreements = 0
    checked = 0
    for n in range(2, 9):
        for t in thetas:
            angle = CapillaryAngle(float(t))
            for eps in eps_grid:
                lb = angle_condition_lower_bound(n, angle, float(eps))
                if (lb > 0.0) != angle_condition_holds(n, angle, float(eps)):
                    disagreements += 1
                checked += 1
            if n >= 3:
                # epsilon -> 0 limit reduces to the dimensional threshold
                # (n = 2 has no threshold: membership unconditional)
                member = angle.cos_t ** 2 < angle_threshold(n)
                if (angle_condition_lower_bound(n, angle, 0.0) > 0.0) != member:
                    disagreements += 1
                checked += 1
    assert disagreements == 0
    print(f"ACCEPTANCE 6 (coefficient equivalences): PASS "
          f"{checked} grid points, 0 disagreements")


def test_acceptance_7_discrete_minimizing_property():
    cfg = ExperimentConfig(scenario="minimizer-test",
                           theta_rad=float(THETA_DEFAULT.theta),
                           r_levels=(2.0,), h_levels=(0.25,),
                           perturb_amp=0.1, seed=42)
    report = run_minimizer_test(cfg, trials=100)
    assert [(c.check, c.passed) for c in report.checks] == \
        [("energy_gain", True), ("quadratic_slope", True)]
    energy, quadratic = report.checks
    slope, drop = quadratic.value, -min(0.0, energy.value)
    assert report.details["trials"] == 100
    assert slope >= 1.9
    assert drop <= 1e-10
    print(f"ACCEPTANCE 7 (discrete minimizing property): PASS "
          f"100 trials, min slope={slope:.3f}, max drop={drop:.1e}")


def test_acceptance_8_mesh_convergence_1d():
    h0 = 0.3
    theta = THETA_DEFAULT

    def exact(x):
        f = h0 * x - theta.cos_t
        return (theta.sin_t - np.sqrt(1.0 - f ** 2)) / h0

    errors = []
    for h in (0.1, 0.05, 0.025):
        grid = build_grid(1, h, 2.0)
        spec = ProblemSpec.from_boundary_data(grid, theta,
                                              lambda p: exact(p[:, 0]), H=h0)
        sol, rep = newton_solve(spec, SolverConfig(tol_residual=1e-12))
        assert rep.status is SolveStatus.CONVERGED
        err = np.abs(sol.values - exact(grid.nodes[:, 0]))
        errors.append(float(np.max(err[grid.interior_indices])))
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    assert all(3.5 <= ratio <= 4.5 for ratio in ratios)
    print(f"ACCEPTANCE 8 (1D mesh convergence): PASS "
          f"errors={[f'{e:.2e}' for e in errors]} "
          f"ratios={[f'{x:.2f}' for x in ratios]}")


def test_acceptance_9_liouville_trend():
    start = time.monotonic()
    base = dict(theta_rad=float(THETA_DEFAULT.theta),
                r_levels=(4.0, 8.0, 16.0), h_levels=(0.5,),
                perturb_amp=0.1, perturb_decay=1.0, seed=7)
    linear = run_liouville_experiment(ExperimentConfig(
        scenario="liouville-linear-growth", L_slope=(0.0, 0.2), **base))
    assert [(c.check, c.passed) for c in linear.checks] == [("affine_dev_trend", True)]
    devs = [row.affine_dev for row in linear.rows]
    factors = [a / b for a, b in zip(devs, devs[1:])]
    assert all(f >= 1.5 for f in factors)

    one_sided = run_liouville_experiment(ExperimentConfig(
        scenario="liouville-one-sided", L_slope=(0.0, 0.0), **base))
    assert [(c.check, c.passed) for c in one_sided.checks] == \
        [("affine_dev_trend", True)]
    gap = one_sided.details["one_sided_gap"]
    assert gap <= 0.05
    elapsed = time.monotonic() - start
    assert elapsed <= 300.0
    print(f"ACCEPTANCE 9 (liouville trends): PASS "
          f"decay factors={[f'{x:.2f}' for x in factors]} "
          f"one-sided gap={gap:.2e} time={elapsed:.1f}s")


def test_acceptance_10_jacobian_consistency():
    rng = np.random.default_rng(99)
    grid = build_grid(2, 0.25, 1.0, 0.5)
    slopes = []
    lo = np.arcsin(0.05)
    for _ in range(20):
        theta = CapillaryAngle(rng.uniform(lo, np.pi - lo))
        vals = rng.uniform(-1.0, 1.0, grid.n_nodes)
        spec = ProblemSpec(grid=grid, theta=theta,
                           dirichlet=vals[grid.dirichlet_indices],
                           H=rng.uniform(-0.3, 0.3))
        u = ScalarField(grid, vals)
        # DIA arrays: data[d, j] is entry (j - offsets[d], j)
        offsets, data, n = assemble_jacobian(u, spec).matrix
        cols = np.broadcast_to(np.arange(n), data.shape)
        rows = cols - offsets[:, None]
        inside = (rows >= 0) & (rows < n)
        jac = sp.coo_matrix((data[inside], (rows[inside], cols[inside])),
                            shape=(n, n)).tocsr()
        base = assemble_residual(u, spec)
        w = rng.standard_normal(grid.free_indices.size)
        w /= np.max(np.abs(w))
        jw = jac @ w
        eps_list = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
        errs = []
        for eps in eps_list:
            vals2 = vals.copy()
            vals2[grid.free_indices] += eps * w
            res2 = assemble_residual(ScalarField(grid, vals2), spec)
            errs.append(np.max(np.abs((res2 - base) / eps - jw)))
        slopes.append(float(np.polyfit(np.log(eps_list), np.log(errs), 1)[0]))
    assert min(slopes) >= 0.9
    print(f"ACCEPTANCE 10 (jacobian consistency): PASS "
          f"min slope={min(slopes):.3f} over 20 states")


def test_acceptance_11_determinism(tmp_path):
    cfg = ExperimentConfig(scenario="liouville-linear-growth",
                           theta_rad=float(THETA_DEFAULT.theta),
                           r_levels=(2.0, 4.0), h_levels=(0.5,),
                           L_slope=(0.0, 0.2), seed=123)
    blobs = []
    for tag in ("first", "second"):
        report = run_liouville_experiment(cfg)
        assert [(c.check, c.passed) for c in report.checks] == \
            [("affine_dev_trend", True)]
        path = tmp_path / f"{tag}.csv"
        write_csv(report.rows, path, ReportRow)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    print(f"ACCEPTANCE 11 (determinism): PASS identical CSV bytes "
          f"({len(blobs[0])} bytes)")
