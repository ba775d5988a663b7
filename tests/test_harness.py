"""Config parsing, blow-down, experiment runners, CSV artifacts."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capgraph import (ANGLE_SWEEP_COLUMNS, AUDIT_COLUMNS, REPORT_COLUMNS,
                      AngleOutOfRange, BadConfig, CapillaryAngle,
                      ExperimentConfig, HypothesisViolation, OutOfExtent,
                      ScalarField, affine_capillary_solution, blow_down,
                      build_grid, capillary_energy, discrete_gradient,
                      domain_for_radius, field_from_callable, parse_config,
                      run_angle_sweep, run_audit, run_gradient_bound_sweep,
                      run_liouville_experiment, run_minimizer_test,
                      run_solve_experiment, write_csv)

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
