"""Config parsing, blow-down, experiment runners, CSV artifacts."""

import threading
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from capgraph import (ANGLE_SWEEP_COLUMNS, AUDIT_COLUMNS, REPORT_COLUMNS,
                      AngleOutOfRange, AngleSweepRow, BadConfig,
                      CapillaryAngle, CheckResult,
                      CutoffParams, EllipsoidRegion,
                      ExperimentConfig, ExperimentReport,
                      HypothesisViolation, InvalidParameter,
                      InvariantViolation, OutOfExtent, RegionKind, ReportRow,
                      StationarityViolation,
                      ScalarField, admissible_angle_range,
                      affine_capillary_solution, angle_condition_holds,
                      angle_condition_lower_bound,
                      angle_threshold, area_element, blow_down,
                      build_grid, calibration_value, capillary_energy,
                      capillary_gauge, choose_eps0, conormal,
                      cutoff_derivative_check,
                      discrete_gradient, domain_for_radius,
                      field_from_callable, in_region, one_sided_slope_limit,
                      parse_config,
                      run_angle_sweep, run_audit, run_conormal_check,
                      run_gradient_bound_sweep, run_liouville_experiment,
                      run_minimizer_test, run_solve_experiment,
                      unit_normal, write_csv)
from capgraph import harness
from capgraph.cli import cli_main

THETA = CapillaryAngle(np.pi / 3)


def test_parse_config_roundtrip_and_errors():
    text = """
    # comment line
    scenario = liouville-linear-growth
    dim = 2
    theta_rad = 1.0471975511965976
    r_levels = 2.0, 4.0
    h_levels = 0.5
    L_slope = 0.0, 0.25
    seed = 9
    strict_angle_range = false
    """
    cfg = parse_config(text)
    assert cfg.scenario == "liouville-linear-growth"
    assert cfg.r_levels == (2.0, 4.0)
    assert cfg.level_pairs() == ((2.0, 0.5), (4.0, 0.5))
    assert cfg.seed == 9 and cfg.strict_angle_range is False

    with pytest.raises(BadConfig, match="unknown config key 'badkey'"):
        parse_config("scenario = angle-sweep\nbadkey = 1")
    with pytest.raises(BadConfig, match="bad value for config key 'dim'"):
        parse_config("scenario = angle-sweep\ndim = two")
    with pytest.raises(BadConfig, match="duplicate"):
        parse_config("scenario = angle-sweep\nseed = 1\nseed = 2")
    with pytest.raises(BadConfig, match="scenario"):
        parse_config("seed = 1")
    with pytest.raises(BadConfig, match="unknown scenario"):
        parse_config("scenario = nonsense")


_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig))
_CONFIG_VALUES = st.one_of(
    st.integers(-3, 20).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.lists(st.floats(-5.0, 30.0), max_size=3).map(lambda xs: ", ".join(map(repr, xs))),
    st.sampled_from(["", "true", "false", "junk", "1,,x", "affine-recovery",
                     "liouville-linear-growth", "gradient-bound-sweep"]))


@settings(max_examples=200)
@given(scenario_first=st.booleans(),
       lines=st.lists(st.tuples(st.sampled_from(_CONFIG_KEYS + ("widget", "Dim", "")),
                                _CONFIG_VALUES), max_size=4))
def test_parse_config_returns_a_config_or_raises_bad_config(scenario_first, lines):
    if scenario_first:
        lines = [("scenario", "liouville-linear-growth")] + lines
    text = "\n".join(f"{key} = {value}" for key, value in lines)
    try:
        cfg = parse_config(text)
    except BadConfig:
        return
    assert isinstance(cfg, ExperimentConfig)


def test_blow_down_affine_and_identity():
    grid = build_grid(2, 0.1, 2.0, 1.0)
    aff = affine_capillary_solution(THETA, (0.3,), 0.8)
    u = aff.on_grid(grid)
    down = blow_down(u, 2.0)
    assert np.isclose(down.grid.h, 0.05)
    expected = down.grid.nodes @ aff.slope + 0.8 / 2.0
    assert np.max(np.abs(down.values - expected)) <= 1e-13
    grad = discrete_gradient(down, THETA)
    assert np.max(np.abs(grad.vectors - aff.slope)) <= 1e-12

    same = blow_down(u, 1.0)
    assert np.max(np.abs(same.values - u.values)) == 0.0


def test_blow_down_quadratic_gradient_relation():
    # |x|^2-type field: centered differences are exact on quadratics, so the
    # rescaled gradient matches Du(2x) to machine precision on the default
    # (node-aligned) path
    grid = build_grid(2, 0.04, 2.0, 1.0)
    u = field_from_callable(grid, lambda p: np.sum(p ** 2, axis=1))
    down = blow_down(u, 2.0)
    grad = discrete_gradient(down, CapillaryAngle(np.pi / 2)).vectors
    idx = down.grid.interior_indices
    assert np.max(np.abs(grad[idx] - 4.0 * down.grid.nodes[idx])) <= 1e-12

    # interpolated path on a curved field: second-order in the source mesh
    errs = []
    target = build_grid(2, 0.05, 0.5, 0.25)
    for h in (0.04, 0.02):
        src = build_grid(2, h, 2.0, 1.0)
        u = field_from_callable(src, lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1]))
        down = blow_down(u, 2.0, target_grid=target)
        exact = np.sin(2.0 * target.nodes[:, 0]) * np.cos(2.0 * target.nodes[:, 1]) / 2.0
        errs.append(np.max(np.abs(down.values - exact)))
    assert errs[0] / errs[1] >= 3.0


def test_blow_down_composition_and_out_of_extent():
    grid = build_grid(2, 0.1, 2.0, 1.0)
    aff = affine_capillary_solution(THETA, (0.5,), 1.0)
    u = aff.on_grid(grid)
    two_step = blow_down(blow_down(u, 2.0), 3.0)
    one_step = blow_down(u, 6.0)
    assert np.max(np.abs(two_step.values - one_step.values)) <= 1e-13

    target = build_grid(2, 0.1, 2.0, 1.0)
    with pytest.raises(OutOfExtent):
        blow_down(u, 1.5, target_grid=target)
    small_target = build_grid(2, 0.05, 1.0, 0.5)
    vals = blow_down(u, 1.5, target_grid=small_target)
    expected = small_target.nodes @ aff.slope + 1.0 / 1.5
    assert np.max(np.abs(vals.values - expected)) <= 1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_blow_down_interpolation_reproduces_affine_fields(dim):
    # multilinear interpolation is exact on affine fields, also at query
    # points off the source nodes (h = 0.07 against 0.1)
    src = build_grid(dim, 0.1, 2.0, 1.0)
    slope = np.array([-0.6, 0.45])[:dim]
    u = ScalarField(src, src.nodes @ slope + 0.3)
    for R, target in ((1.0, build_grid(dim, 0.07, 1.4, 0.7)),
                      (1.5, build_grid(dim, 0.05, 1.3, 0.65))):
        down = blow_down(u, R, target_grid=target)
        assert np.max(np.abs(down.values - (target.nodes @ slope + 0.3 / R))) <= 1e-13


def test_liouville_zero_perturbation_recovers_affine():
    cfg = ExperimentConfig(scenario="liouville-linear-growth",
                           theta_rad=float(THETA.theta),
                           r_levels=(2.0, 4.0), h_levels=(0.5,),
                           perturb_amp=0.0, L_slope=(0.0, 0.3), seed=1)
    report = run_liouville_experiment(cfg)
    for row in report.rows:
        assert row.affine_dev <= 1e-9
        assert row.status == "converged"
        assert row.v_min >= THETA.sin_t - 1e-12


def test_liouville_hypothesis_violations():
    with pytest.raises(HypothesisViolation):
        run_liouville_experiment(ExperimentConfig(
            scenario="liouville-one-sided", theta_rad=float(THETA.theta),
            r_levels=(2.0,), h_levels=(0.5,), L_slope=(0.5, 0.0), seed=1))
    with pytest.raises(HypothesisViolation):
        run_liouville_experiment(ExperimentConfig(
            scenario="liouville-linear-growth", theta_rad=float(THETA.theta),
            r_levels=(2.0,), h_levels=(0.5,), c0=1e-4, seed=1))


def test_minimizer_single_node_convexity():
    cfg = ExperimentConfig(scenario="minimizer-test", r_levels=(1.5,),
                           h_levels=(0.25,), seed=2)
    report = run_minimizer_test(cfg, trials=5)
    assert report.details["trials"] == 5
    assert report.details["min_quadratic_slope"] >= 1.9
    assert report.details["max_energy_drop"] <= 1e-10

    # explicit single-node scan: energy is strictly convex per coordinate
    grid = domain_for_radius(1.5, THETA, 0.25, 2)
    aff = affine_capillary_solution(THETA, (0.0,), 0.0)
    u = aff.on_grid(grid)
    e0 = capillary_energy(u, THETA)
    # zero-amplitude competitor changes nothing
    assert capillary_energy(ScalarField(grid, u.values + 0.0), THETA) == e0
    for k in grid.interior_indices[::7]:
        for eps in (1e-2, 1e-3):
            up = u.values.copy()
            up[k] += eps
            um = u.values.copy()
            um[k] -= eps
            second = (capillary_energy(ScalarField(grid, up), THETA)
                      + capillary_energy(ScalarField(grid, um), THETA)
                      - 2.0 * e0)
            assert second > 0.0


def _minimizer_config(seed, r=2.0):
    # the CLI's verify-minimizer case
    return ExperimentConfig(scenario="minimizer-test", theta_rad=float(THETA.theta),
                            r_levels=(r,), h_levels=(0.25,), seed=seed)


def _sequential_battery(cfg, values, energy0, trials):
    """The competitor loop one trial and one amplitude at a time, each
    energy one capillary_energy call; returns the (trials, 3) gains and the
    perturbations."""
    grid, _, rng = harness._first_level(cfg, cfg.h_levels[0], cfg.perturb_amp)
    gains, draws = [], []
    for _ in range(trials):
        w = np.zeros(grid.n_nodes)
        w[grid.free_indices] = rng.standard_normal(grid.free_indices.size)
        w /= np.max(np.abs(w))
        gains.append([capillary_energy(ScalarField(grid, values + eps * w), cfg.theta)
                      - energy0 for eps in harness.MINIMIZER_EPSILONS])
        draws.append(w)
    return np.array(gains), draws


def _recorded_battery(monkeypatch, cfg, trials):
    """run_minimizer_test with its solve and its batched energies recorded:
    (report, solution, energy of the solution, (trials, 3) gains)."""
    solves, energies = [], []
    solve_level, capillary_energies = harness._solve_level, harness.capillary_energies

    def solve(*args, **kwargs):
        solves.append(solve_level(*args, **kwargs))
        return solves[-1]

    def batch(*args, **kwargs):
        energies.append(capillary_energies(*args, **kwargs))
        return energies[-1]

    with monkeypatch.context() as m:
        m.setattr(harness, "_solve_level", solve)
        m.setattr(harness, "capillary_energies", batch)
        report = run_minimizer_test(cfg, trials=trials)
    (sol, row, _), = solves
    return report, sol, row.energy, np.concatenate(energies).reshape(trials, -1) - row.energy


@pytest.mark.parametrize("seed", range(5))
def test_minimizer_battery_matches_the_sequential_loop(monkeypatch, seed):
    cfg = _minimizer_config(seed)
    report, sol, energy0, gains = _recorded_battery(monkeypatch, cfg, 100)
    want, _ = _sequential_battery(cfg, sol.values, energy0, 100)
    # each batched energy is bitwise the single capillary_energy call
    assert gains.tobytes() == want.tobytes()
    # the closed-form slope against np.polyfit's
    log_eps = np.log(harness.MINIMIZER_EPSILONS)
    slopes = np.array([np.polyfit(log_eps, np.log(row), 1)[0] for row in want])
    got = harness._log_slopes(log_eps, gains)
    assert np.max(np.abs(got - slopes)) <= 1e-9
    assert abs(report.details["min_quadratic_slope"] - np.min(slopes)) <= 1e-9
    assert report.details["max_energy_drop"] == -min(0.0, np.min(want))


def test_minimizer_gains_do_not_depend_on_the_chunk_size(monkeypatch):
    cfg, trials = _minimizer_config(0, r=1.5), 23
    runs = []
    for chunk in (1, 7, 10, trials):
        monkeypatch.setattr(harness, "_MINIMIZER_CHUNK", chunk)
        report, *_, gains = _recorded_battery(monkeypatch, cfg, trials)
        runs.append((report.details, gains.tobytes()))
    assert all(run == runs[0] for run in runs)
    assert runs[0][0]["trials"] == trials


# noisy fields are no minimizers; the sequential loop first undercuts the
# energy at (trial, amplitude index) `first`.  At seed 3 that is inside the
# first chunk and not at its first amplitude; at seed 4 the first chunk also
# undercuts at trial 5 with the largest amplitude, which an amplitude-major
# order would report first
@pytest.mark.parametrize("seed, amp, first", [(3, 0.02, (5, 1)), (4, 0.1, (0, 1))])
def test_minimizer_violation_names_the_first_offending_competitor(monkeypatch, seed,
                                                                 amp, first):
    cfg = _minimizer_config(seed, r=1.5)
    grid, _, _ = harness._first_level(cfg, 0.25, cfg.perturb_amp)
    values = (affine_capillary_solution(THETA, (0.0,), 0.0)(grid.nodes)
              + amp * np.random.default_rng(7).standard_normal(grid.n_nodes))
    field = ScalarField(grid, values)
    energy0 = capillary_energy(field, THETA)
    row = ReportRow(level=0, r=1.5, h=0.25, sup_grad_inner=0.0, affine_dev=0.0,
                    energy=energy0, v_min=0.0, newton_iters=1, status="converged")
    monkeypatch.setattr(harness, "_solve_level", lambda *a, **k: (field, row, None))
    gains, draws = _sequential_battery(cfg, values, energy0, 10)
    trial, e = np.argwhere(gains < -1e-10)[0]
    assert (trial, e) == first
    for chunk in (1, 4, 10):
        monkeypatch.setattr(harness, "_MINIMIZER_CHUNK", chunk)
        with pytest.raises(StationarityViolation, match=f"trial {trial}:") as info:
            run_minimizer_test(cfg)
        assert info.value.epsilon == harness.MINIMIZER_EPSILONS[e]
        assert info.value.perturbation.tobytes() == draws[trial].tobytes()


@pytest.mark.parametrize("trials", [0, -3, 2.0, True, "5", None])
def test_minimizer_test_rejects_a_trial_count_that_is_not_a_positive_integer(trials):
    with pytest.raises(InvalidParameter, match="trials"):
        run_minimizer_test(_minimizer_config(0), trials=trials)


def test_gradient_bound_sweep_degenerate_and_angle_guard():
    cfg = ExperimentConfig(scenario="gradient-bound-sweep", r_levels=(2.0,),
                           h_levels=(0.5,), c0=0.0, seed=2)
    report = run_gradient_bound_sweep(cfg, family_size=3)
    assert report.fit.degenerate
    assert report.fit.c2 == 0.0 and report.fit.c3 == 0.0

    steep = ExperimentConfig(scenario="gradient-bound-sweep", r_levels=(2.0,),
                             h_levels=(0.5,), dim=4,
                             theta_rad=float(np.arccos(0.97)),
                             strict_angle_range=True, seed=2)
    with pytest.raises(AngleOutOfRange):
        run_gradient_bound_sweep(steep)


def test_gradient_bound_fit_dominates_measurements():
    from capgraph import gradient_bound
    cfg = ExperimentConfig(scenario="gradient-bound-sweep", r_levels=(2.0,),
                           h_levels=(0.5,), c0=2.0, seed=4)
    report = run_gradient_bound_sweep(cfg, family_size=4)
    fit = report.fit
    assert not fit.degenerate
    assert fit.fit_residual >= 0.0
    r = cfg.r_levels[0]
    for m_ratio, sup in report.details["members"][-1]:
        bound = gradient_bound(m_ratio * r, r, THETA, fit.c1, fit.c2, fit.c3)
        assert sup <= bound * (1.0 + 1e-12)


def test_gradient_bound_fit_stable_across_resolutions():
    cfg = ExperimentConfig(scenario="gradient-bound-sweep", r_levels=(3.0,),
                           h_levels=(0.5, 0.25), c0=2.0, seed=5)
    report = run_gradient_bound_sweep(cfg)
    assert len(report.fit.per_level) == 2
    assert report.fit.stability <= 0.2


def test_angle_sweep_rows_and_symmetry():
    thetas = np.linspace(0.3, np.pi - 0.3, 11)
    rows = run_angle_sweep([3, 4], thetas)
    assert len(rows) == 22
    three = [row for row in rows if row.n == 3]
    assert all(row.in_U for row in three)
    mid = [row for row in rows if row.n == 4 and abs(row.theta - np.pi / 2) < 1e-9]
    assert np.isclose(mid[0].threshold, 0.9375)
    four = [row for row in rows if row.n == 4]
    c_vals = [row.C_theta for row in four]
    assert np.allclose(c_vals, c_vals[::-1], atol=1e-15)


def _per_cell_sweep(n_list, theta_grid, sin_min=0.05):
    """run_angle_sweep as it was written, one CapillaryAngle and one
    choose_eps0 call per (n, theta) cell: the oracle of the per-n sweep."""
    rows = []
    for n in n_list:
        for t in theta_grid:
            angle = CapillaryAngle(float(t), sin_min=sin_min)
            res = admissible_angle_range(int(n), angle)
            try:
                eps_mid = choose_eps0(int(n), angle)
                script_b = angle_condition_lower_bound(int(n), angle, eps_mid)
            except AngleOutOfRange:
                script_b = angle_condition_lower_bound(int(n), angle, 0.0)
            rows.append(AngleSweepRow(
                n=int(n), theta=float(t), in_U=res.in_range,
                threshold=res.threshold, margin=res.margin,
                C_theta=one_sided_slope_limit(angle), script_B=script_b))
    return rows


@pytest.mark.parametrize("sin_min", [0.05, 0.5])
@pytest.mark.parametrize("steps", [1, 2, 45, 90])
def test_angle_sweep_matches_the_per_cell_loop(tmp_path, steps, sin_min):
    # the same CSV bytes, script_B's np.float64(...) cells included
    lo = np.arcsin(sin_min) + 1e-9
    thetas = np.linspace(lo, np.pi - lo, steps)
    dims = [2, 3, 4, 5, 6, 7, 8, 12]
    blobs = []
    for tag, rows in (("array", run_angle_sweep(dims, thetas, sin_min)),
                      ("cells", _per_cell_sweep(dims, thetas, sin_min))):
        write_csv(rows, tmp_path / f"{tag}.csv", ANGLE_SWEEP_COLUMNS)
        blobs.append((tmp_path / f"{tag}.csv").read_bytes())
    assert blobs[0] == blobs[1]
    assert run_angle_sweep([4], []) == [] and run_angle_sweep([], thetas) == []


def test_report_csv_schema_and_determinism(tmp_path):
    cfg = ExperimentConfig(scenario="liouville-linear-growth",
                           theta_rad=float(THETA.theta),
                           r_levels=(2.0, 4.0), h_levels=(0.5,),
                           L_slope=(0.0, 0.2), seed=5)
    paths = []
    for tag in ("a", "b"):
        report = run_liouville_experiment(cfg)
        path = tmp_path / f"run_{tag}.csv"
        write_csv(report.rows, path, REPORT_COLUMNS)
        paths.append(path)
    data_a, data_b = (p.read_bytes() for p in paths)
    assert data_a == data_b
    lines = data_a.decode().splitlines()
    assert lines[0] == "schema=1"
    assert lines[1] == "level,r,h,sup_grad_inner,affine_dev,energy,v_min,newton_iters,status"
    assert len(lines) == 2 + len(cfg.r_levels)

    rows = run_angle_sweep([4], np.linspace(0.3, 1.0, 5))
    sweep_path = tmp_path / "sweep.csv"
    write_csv(rows, sweep_path, ANGLE_SWEEP_COLUMNS)
    header = sweep_path.read_text().splitlines()
    assert header[0] == "schema=1"
    assert header[1] == "n,theta,in_U,threshold,margin,C_theta,script_B"

    results = run_audit(seed=1, n_gradients=1000, cutoff_draws=1,
                        cutoff_samples=200)
    audit_path = tmp_path / "audit.csv"
    write_csv(results, audit_path, AUDIT_COLUMNS)
    lines = audit_path.read_text().splitlines()
    assert lines[0] == "schema=1"
    assert lines[1] == "check,value,threshold,passed"
    assert len(lines) == 2 + len(results)
    assert all(line.split(",")[0] == res.name and
               line.split(",")[3] == ("true" if res.passed else "false")
               for line, res in zip(lines[2:], results))


def test_worst_status_ranks_a_linear_failure_last():
    def report(*statuses):
        rows = tuple(ReportRow(level=i, r=1.0, h=0.5, sup_grad_inner=0.0,
                               affine_dev=0.0, energy=0.0, v_min=1.0,
                               newton_iters=0, status=status)
                     for i, status in enumerate(statuses))
        return ExperimentReport(scenario="affine-recovery", rows=rows)

    assert report().worst_status == "converged"
    assert report("converged", "max_iter").worst_status == "max_iter"
    assert report("linear_failure", "diverged", "stalled",
                  "converged").worst_status == "linear_failure"


def test_solve_experiment_row(tmp_path):
    cfg = ExperimentConfig(scenario="affine-recovery", r_levels=(2.0,),
                           h_levels=(0.25,), L_slope=(0.0, 0.4),
                           L_offset=0.3, seed=6)
    report = run_solve_experiment(cfg)
    assert len(report.rows) == 1
    assert report.rows[0].status == "converged"
    assert report.rows[0].affine_dev <= 1e-9


def test_audit_battery_passes():
    results = run_audit(seed=1, n_gradients=100_000, cutoff_draws=5,
                        cutoff_samples=2000)
    assert all(res.passed for res in results)
    names = {res.name for res in results}
    assert {"v_lower_bound_margin", "cutoff_boundary_identity",
            "coefficient_equivalences", "region_inclusion"} <= names


def _one_shot_audit(seed, n_gradients, cutoff_draws, cutoff_samples):
    """The audit battery with its v >= sin(theta) check drawn and evaluated
    in one go and cos(theta) written inline: the oracle of the streamed
    check, its state hand-off and the library calls of run_audit."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    thetas = harness._sample_angles(rng, n_gradients)
    grads = rng.uniform(-30.0, 30.0, (n_gradients, 2))
    v = area_element(grads) + np.cos(thetas) * grads[:, 0]
    margin = float(np.min(v - np.sin(thetas)))
    checks = [CheckResult("v_lower_bound_margin", margin, -1e-12, margin >= -1e-12)]

    thetas = harness._sample_angles(rng, 10_000)
    grads = rng.uniform(-10.0, 10.0, (10_000, 2))
    worst = 0.0
    for i in range(0, 10_000, 2000):
        c, g = np.cos(thetas[i:i + 2000]), grads[i:i + 2000]
        nu = unit_normal(g)
        gauge = np.linalg.norm(nu, axis=1) - c * nu[:, 0]
        worst = max(worst, float(np.max(np.abs(
            gauge * area_element(g) - (area_element(g) + c * g[:, 0])))))
    checks.append(CheckResult("gauge_energy_identity", worst, 1e-12, worst <= 1e-12))

    g = rng.uniform(-10.0, 10.0, (10_000, 2))
    nu, mu = unit_normal(g), conormal(g)
    worst = max(float(np.max(np.abs(np.linalg.norm(nu, axis=1) - 1.0))),
                float(np.max(np.abs(np.linalg.norm(mu, axis=1) - 1.0))),
                float(np.max(np.abs(np.sum(nu * mu, axis=1)))))
    checks.append(CheckResult("frame_orthogonality", worst, 1e-12, worst <= 1e-12))

    worst = -np.inf
    for _ in range(10):
        angle = CapillaryAngle(float(harness._sample_angles(rng, 1)[0]))
        g = rng.uniform(-5.0, 5.0, (1000, 2))
        npl = rng.standard_normal((1000, 3))
        npl /= np.linalg.norm(npl, axis=1)[:, None]
        worst = max(worst, float(np.max(calibration_value(g, npl, angle)
                                        - capillary_gauge(npl, angle))))
    checks.append(CheckResult("calibration_inequality", worst, 1e-12, worst <= 1e-12))

    worst = [-np.inf] * 3
    for draw in range(cutoff_draws):
        angle = CapillaryAngle(float(harness._sample_angles(rng, 1)[0]))
        r = float(np.exp(rng.uniform(np.log(0.5), np.log(8.0))))
        rep = cutoff_derivative_check(CutoffParams(r=r, theta=angle, dim=2),
                                      cutoff_samples, seed=seed + draw)
        worst = [max(w, x) for w, x in zip(worst, (
            rep.max_gradient_violation, rep.max_boundary_residual,
            rep.inner_lower_bound - rep.min_weight_inner))]
    checks += [CheckResult(name, w, 1e-12, w <= 1e-12) for name, w in zip(
        ("cutoff_gradient_bound", "cutoff_boundary_identity", "cutoff_inner_floor"),
        worst)]

    bad = 0
    lo = np.arcsin(0.05) + 1e-9
    for n in range(2, 9):
        for t in np.linspace(lo, np.pi - lo, 50):
            angle = CapillaryAngle(float(t))
            for eps in np.linspace(0.05, 0.95, 10):
                bad += ((angle_condition_lower_bound(n, angle, float(eps)) > 0.0)
                        != angle_condition_holds(n, angle, float(eps)))
            if n >= 3:
                bad += ((angle_condition_lower_bound(n, angle, 0.0) > 0.0)
                        != (angle.cos_t ** 2 < angle_threshold(n)))
    checks.append(CheckResult("coefficient_equivalences", float(bad), 0.0, bad == 0))

    bad = 0
    for _ in range(5):
        angle = CapillaryAngle(float(harness._sample_angles(rng, 1)[0]))
        r = float(np.exp(rng.uniform(np.log(0.5), np.log(8.0))))
        pts = rng.uniform(-2.0 * r, 2.0 * r, (20_000, 2))
        pts[:, 0] = np.abs(pts[:, 0])
        bad += int(np.count_nonzero(
            in_region(pts, EllipsoidRegion(r, angle, RegionKind.INNER))
            & ~in_region(pts, EllipsoidRegion(r, angle, RegionKind.OUTER))))
    checks.append(CheckResult("region_inclusion", float(bad), 0.0, bad == 0))
    return checks


_CHUNK = harness._AUDIT_CHUNK


@pytest.mark.parametrize("n_gradients, cutoff_draws", [
    # sizes whose two shares of the v check sit around a chunk boundary
    *(pytest.param(n, 2, id=str(n))
      for n in (1, 2, 3, 5, 2 * _CHUNK - 1, 2 * _CHUNK + 1, 4 * _CHUNK + 3)),
    # one cut-off draw leaves the worker's share empty, three split unevenly
    pytest.param(3, 1, id="3-draws1"), pytest.param(5, 3, id="5-draws3"),
    pytest.param(2 * _CHUNK + 1, 1, id=f"{2 * _CHUNK + 1}-draws1"),
    pytest.param(2 * _CHUNK + 1, 3, id=f"{2 * _CHUNK + 1}-draws3")])
def test_streamed_audit_matches_one_shot_draws(n_gradients, cutoff_draws):
    # the chunks of both shares read the same Philox stream as one full-size
    # draw, and every later check starts where that draw left the stream
    for seed in range(3):
        streamed = run_audit(seed, n_gradients, cutoff_draws=cutoff_draws,
                             cutoff_samples=50)
        oracle = _one_shot_audit(seed, n_gradients, cutoff_draws, 50)
        assert [(c.name, c.value, c.passed) for c in streamed] == \
            [(c.name, c.value, c.passed) for c in oracle]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2 * _CHUNK + 5), cut=st.integers(0, 4 * _CHUNK),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=2 * _CHUNK + 5, cut=_CHUNK + 3, seed=0)
@example(n=7, cut=3, seed=1)
def test_v_margin_split_is_exact(n, cut, seed):
    # any split point gives the one-span margin bitwise, at 0, at n and off
    # the four-double counter steps alike
    state = np.random.Philox(np.random.SeedSequence(seed)).state
    whole = harness._v_margin(state, n, 0, n)
    assert whole < np.inf
    for split in {0, n, cut % (n + 1)}:
        shares = (harness._v_margin(state, n, 0, split),
                  harness._v_margin(state, n, split, n))
        assert min(shares).hex() == whole.hex()
    # the hand-off state draws what follows the angles and gradients
    one_shot = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    one_shot.random(3 * n)
    assert np.array_equal(harness._philox_at(state, 3 * n).random(9),
                          one_shot.random(9))


@pytest.mark.parametrize("name", ["capillary_area_element",
                                  "cutoff_derivative_check"])
def test_audit_worker_failure_propagates_and_joins(name, monkeypatch, tmp_path):
    before = threading.active_count()
    run_audit(0, 100, cutoff_draws=2, cutoff_samples=50)
    assert threading.active_count() == before
    original = getattr(harness, name)

    def fails_on_the_worker(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise InvalidParameter("worker share failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, fails_on_the_worker)
    with pytest.raises(InvalidParameter, match="worker share failed"):
        run_audit(0, 100, cutoff_draws=2, cutoff_samples=50)
    assert threading.active_count() == before
    # a CapillaryLabError from the worker is the CLI's exit 3
    assert cli_main(["audit", "--seed", "0", "--out",
                     str(tmp_path / "audit.csv")]) == 3
    assert threading.active_count() == before


def test_audit_memory_does_not_grow_with_n_gradients():
    import tracemalloc

    def peak(n):
        tracemalloc.start()
        try:
            run_audit(0, n, cutoff_draws=1, cutoff_samples=100)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    run_audit(0, 10, cutoff_draws=1, cutoff_samples=10)    # lazy set-up
    big, small = peak(1_000_000), peak(250_000)
    # one full-size draw of a million points peaked near 46 MB
    assert big < 6.0
    assert abs(big - small) < 1.0


@pytest.mark.parametrize("kwargs", [
    {"n_gradients": 0}, {"n_gradients": -3}, {"n_gradients": 1.0},
    {"n_gradients": True}, {"n_gradients": "10"}, {"cutoff_draws": 0},
    {"cutoff_draws": False}, {"cutoff_samples": 0}, {"cutoff_samples": 2.5},
])
def test_audit_rejects_bad_sizes(kwargs):
    with pytest.raises(InvalidParameter):
        run_audit(0, **{"n_gradients": 10, "cutoff_draws": 1,
                        "cutoff_samples": 10, **kwargs})


def test_audit_accepts_numpy_integer_sizes():
    results = run_audit(0, np.int64(10), np.int32(1), np.int64(10))
    assert all(res.passed for res in results)


_ROW_VALUES = ("sup_grad_inner", "affine_dev", "energy", "v_min")


def _solved(run, cfg, monkeypatch, cold):
    """The rows of every solve run(cfg) makes, and the report it returns or
    the InvariantViolation it raises; cold=True drops each solve's initial
    state, so every solve starts cold."""
    rows = []
    solve = harness._solve_level

    def recording(*args, initial=None, **kwargs):
        out = solve(*args, initial=None if cold else initial, **kwargs)
        rows.append(out[1])
        return out

    with monkeypatch.context() as m:
        m.setattr(harness, "_solve_level", recording)
        try:
            return rows, run(cfg)
        except InvariantViolation as exc:
            return rows, exc


def _assert_matches_cold(run, cfg, monkeypatch):
    rows, outcome = _solved(run, cfg, monkeypatch, cold=False)
    cold_rows, cold_outcome = _solved(run, cfg, monkeypatch, cold=True)
    assert len(rows) == len(cold_rows)
    for w, c in zip(rows, cold_rows):
        assert (w.level, w.r, w.h) == (c.level, c.r, c.h)
        if c.status == "converged":
            assert w.status == "converged"
            for name in _ROW_VALUES:
                assert getattr(w, name) == pytest.approx(getattr(c, name),
                                                         rel=1e-6, abs=1e-9)
    assert type(outcome) is type(cold_outcome)
    return rows, cold_rows, outcome, cold_outcome


@pytest.mark.parametrize("seed", range(5))
def test_warm_started_families_match_their_cold_solves(monkeypatch, seed):
    # continuation across the report family and nested iteration across the
    # conormal-check meshes change the Newton steps, not the solutions; the
    # report's drift check fails cold at c0 = 0.5 (and at c0 = 4 for some
    # seeds), and the warm run must end the same way
    for c0 in (0.5, 2.0, 4.0):
        cfg = ExperimentConfig(scenario="gradient-bound-sweep", r_levels=(4.0,),
                               h_levels=(0.5, 0.25), c0=c0, seed=seed)
        rows, cold_rows, report, cold = _assert_matches_cold(
            run_gradient_bound_sweep, cfg, monkeypatch)
        assert sum(r.newton_iters for r in rows) < \
            sum(r.newton_iters for r in cold_rows)
        if isinstance(report, ExperimentReport):
            assert np.asarray(report.fit.per_level) == pytest.approx(
                np.asarray(cold.fit.per_level), rel=1e-6, abs=1e-9)
    cfg = ExperimentConfig(scenario="conormal-check", r_levels=(1.0,),
                           h_levels=(0.2, 0.1, 0.05), perturb_amp=0.3, seed=seed)
    *_, report, cold = _assert_matches_cold(run_conormal_check, cfg, monkeypatch)
    assert report.details["residuals"] == pytest.approx(cold.details["residuals"],
                                                        rel=1e-6, abs=1e-9)
