"""Config parsing, blow-down, experiment runners, CSV artifacts."""

import math
import pickle
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from capgraph import (AngleSweepRow, BadConfig, BadDimension,
                      CapillaryAngle, CheckResult,
                      CutoffParams, DegenerateAngle, EllipsoidRegion,
                      ExperimentConfig, ExperimentReport,
                      HypothesisViolation, InvalidParameter,
                      LinearBound, RegionKind, ReportRow,
                      ScalarField, affine_capillary_solution, angle_condition_holds,
                      angle_condition_lower_bound,
                      angle_threshold, area_element,
                      build_grid, calibration_value, capillary_energy,
                      capillary_gauge, conormal,
                      cutoff_derivative_check,
                      discrete_gradient, domain_for_radius,
                      field_from_callable, gradient_bound, in_region,
                      inner_node_set,
                      one_sided_slope_limit,
                      parse_config,
                      run_angle_sweep, run_audit, run_conormal_check,
                      run_gradient_bound_sweep, run_liouville_experiment,
                      run_minimizer_test, run_solve_experiment,
                      unit_normal, write_csv)
from capgraph import harness
from capgraph.cli import cli_main
from capgraph.solver import _gradient_vectors
from conftest import NoAdmissibleEps0, scalar_angle_range, scalar_choose_eps0

THETA = CapillaryAngle(np.pi / 3)
TREND = [("affine_dev_trend", True)]
MINIMIZER = [("energy_gain", True), ("quadratic_slope", True)]
DRIFT = [("bound_drift", True)]


def _verdicts(report):
    """The (name, passed) pair of each of a report's checks."""
    return [(c.check, c.passed) for c in report.checks]


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
    """
    cfg = parse_config(text)
    assert cfg.scenario == "liouville-linear-growth"
    assert cfg.r_levels == (2.0, 4.0)
    assert cfg.level_pairs() == ((2.0, 0.5), (4.0, 0.5))
    assert cfg.seed == 9

    with pytest.raises(BadConfig, match="unknown config key 'badkey'"):
        parse_config("scenario = minimizer-test\nbadkey = 1")
    with pytest.raises(BadConfig, match="unknown config key 'strict_angle_range'"):
        parse_config("scenario = minimizer-test\nstrict_angle_range = false")
    with pytest.raises(BadConfig, match="bad value for config key 'dim'"):
        parse_config("scenario = minimizer-test\ndim = two")
    with pytest.raises(BadConfig, match="duplicate"):
        parse_config("scenario = minimizer-test\nseed = 1\nseed = 2")
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


# the blow-down x -> u(Rx)/R at the one scale the program takes, R = 1:
# harness._interpolate onto a lattice of the same box (the box 2.1 x 0.7
# conforms to h = 0.1, 0.07 and 0.05, so most target nodes lie off the
# source nodes)

def test_blow_down_affine_and_identity():
    grid = build_grid(2, 0.1, 2.0, 1.0)
    aff = affine_capillary_solution(THETA, (0.3,), 0.8)
    u = aff.on_grid(grid)
    finer = build_grid(2, 0.05, 2.0, 1.0)
    down = harness._interpolate(u, finer)
    assert down.grid is finer
    expected = finer.nodes @ aff.slope + 0.8
    assert np.max(np.abs(down.values - expected)) <= 1e-13
    grad = discrete_gradient(down, THETA)
    assert np.max(np.abs(grad.vectors - aff.slope)) <= 1e-12

    # onto its own lattice each node is its own corner, up to the rounding
    # of its cell fraction
    same = harness._interpolate(u, grid)
    assert np.max(np.abs(same.values - u.values)) <= 1e-14 * np.max(np.abs(u.values))


def test_blow_down_quadratic_gradient_relation():
    # a curved field: the interpolation is second-order in the source mesh
    errs = []
    target = build_grid(2, 0.07, 2.1, 0.7)
    exact = np.sin(target.nodes[:, 0]) * np.cos(target.nodes[:, 1])
    for h in (0.1, 0.05):
        src = build_grid(2, h, 2.1, 0.7)
        u = field_from_callable(src, lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1]))
        errs.append(np.max(np.abs(harness._interpolate(u, target).values - exact)))
    assert errs[0] / errs[1] >= 3.0


@pytest.mark.parametrize("dim", [1, 2])
def test_blow_down_interpolation_reproduces_affine_fields(dim):
    # multilinear interpolation is exact on affine fields, also at nodes off
    # the source nodes, from the coarser lattice and from the finer one
    slope = np.array([-0.6, 0.45])[:dim]
    for h_src, h_dst in ((0.1, 0.07), (0.07, 0.1)):
        src = build_grid(dim, h_src, 2.1, 0.7)
        target = build_grid(dim, h_dst, 2.1, 0.7)
        u = ScalarField(src, src.nodes @ slope + 0.3)
        down = harness._interpolate(u, target)
        assert np.max(np.abs(down.values - (target.nodes @ slope + 0.3))) <= 1e-13


def test_liouville_zero_perturbation_recovers_affine():
    cfg = ExperimentConfig(scenario="liouville-linear-growth",
                           theta_rad=float(THETA.theta),
                           r_levels=(2.0, 4.0), h_levels=(0.5,),
                           perturb_amp=0.0, L_slope=(0.0, 0.3), seed=1)
    report = run_liouville_experiment(cfg)
    assert _verdicts(report) == TREND
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


# the six user-facing configs of the benchmark's cli-scenarios workload
# (perfbench/workloads.py), with the number of solves each one runs
_CLI_SCENARIOS = (
    ("solve", "liouville-linear-growth", 1,
     "r_levels = 8.0\nh_levels = 0.25\nL_slope = 0.0, 0.2"),
    ("liouville", "liouville-linear-growth", 3,
     "r_levels = 4.0, 8.0, 16.0\nh_levels = 0.5\nL_slope = 0.0, 0.2\n"
     "perturb_amp = 0.1\nperturb_decay = 1.0"),
    ("liouville", "liouville-one-sided", 3,
     "r_levels = 4.0, 8.0, 16.0\nh_levels = 0.5\nL_slope = 0.0, 0.0"),
    ("report", "gradient-bound-sweep", 12,
     "r_levels = 4.0\nh_levels = 0.5, 0.25\nc0 = 2.0"),
    ("verify", "conormal-check", 3,
     "r_levels = 1.0\nh_levels = 0.2, 0.1, 0.05\nperturb_amp = 0.3"),
    ("verify", "minimizer-test", 1, "r_levels = 2.0\nh_levels = 0.25"),
)


@pytest.mark.parametrize("command,scenario,solves,keys", _CLI_SCENARIOS,
                         ids=("solve", "liouville", "liouville-one-sided", "report",
                              "verify-conormal", "verify-minimizer"))
def test_cli_scenarios_solve_through_the_harness_name_of_newton_solve(
        tmp_path, monkeypatch, command, scenario, solves, keys):
    # the benchmark times each solve by wrapping harness.newton_solve; every
    # report row's gradient columns come from that solve's own gradient
    solved = []
    newton_solve = harness.newton_solve

    def counting(spec, cfg=None):
        sol, rep = newton_solve(spec, cfg)
        solved.append((sol, rep))
        return sol, rep

    monkeypatch.setattr(harness, "newton_solve", counting)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"theta_rad = {np.pi / 3!r}\nseed = 0\nscenario = {scenario}\n"
                   f"{keys}\n")
    out = tmp_path / "run.csv"
    assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert len(solved) == solves
    lines = out.read_text().splitlines()[2:]
    assert len(lines) == solves
    scale = 1.0 if scenario == "gradient-bound-sweep" else 0.5
    for line, (sol, rep) in zip(lines, solved):
        row = dict(zip(ReportRow._fields, line.split(",")))
        assert not rep.gradient.flags.writeable
        assert np.array_equal(rep.gradient, _gradient_vectors(sol, THETA))
        grid = sol.grid
        idx = inner_node_set(grid, EllipsoidRegion(scale * float(row["r"]), THETA,
                                                   RegionKind.INNER))
        grad = _gradient_vectors(sol, THETA)[idx]
        pts = grid.nodes[idx]
        coef = np.linalg.lstsq(np.hstack([pts, np.ones((idx.size, 1))]),
                               sol.values[idx], rcond=None)[0]
        slope = affine_capillary_solution(THETA, coef[1:grid.dim], coef[-1]).slope
        assert float(row["sup_grad_inner"]) == float(np.max(np.linalg.norm(grad, axis=1)))
        assert float(row["affine_dev"]) == float(np.max(np.abs(grad - slope)))


@pytest.mark.parametrize("scenario,l_slope", [("liouville-linear-growth", (0.0, 0.2)),
                                              ("liouville-one-sided", (0.0, 0.0))])
def test_liouville_evaluates_each_level_family_once(monkeypatch, scenario, l_slope):
    # the hypothesis check's Dirichlet values are the values the solve takes
    calls = []
    family = harness._family

    def counted(*args, **kwargs):
        data = family(*args, **kwargs)
        index = len(calls)
        calls.append(0)

        def evaluate(points):
            calls[index] += 1
            return data(points)
        return evaluate

    monkeypatch.setattr(harness, "_family", counted)
    cfg = ExperimentConfig(scenario=scenario, theta_rad=float(THETA.theta),
                           r_levels=(2.0, 4.0), h_levels=(0.5,), L_slope=l_slope,
                           seed=3)
    report = run_liouville_experiment(cfg)
    assert _verdicts(report) == TREND
    assert calls == [1, 1]
    monkeypatch.setattr(harness, "_family", family)
    assert run_liouville_experiment(cfg) == report


def test_minimizer_single_node_convexity():
    cfg = ExperimentConfig(scenario="minimizer-test", r_levels=(1.5,),
                           h_levels=(0.25,), seed=2)
    report = run_minimizer_test(cfg, trials=5)
    assert _verdicts(report) == MINIMIZER
    energy, quadratic = report.checks
    assert report.details["trials"] == 5
    assert quadratic.value >= 1.9
    assert -min(0.0, energy.value) <= 1e-10

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
    assert _verdicts(report) == MINIMIZER
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
    energy, quadratic = report.checks
    assert abs(quadratic.value - np.min(slopes)) <= 1e-9
    assert -min(0.0, energy.value) == -min(0.0, np.min(want))


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
        report = run_minimizer_test(cfg)
        offender = report.details["offender"]
        assert offender["trial"] == trial
        assert offender["epsilon"] == harness.MINIMIZER_EPSILONS[e]
        assert offender["perturbation"].tobytes() == draws[trial].tobytes()
        energy = report.checks[0]
        assert energy.check == "energy_gain" and not energy.passed
        assert energy.value <= gains[trial, e] < energy.threshold == -1e-10


@pytest.mark.parametrize("trials", [0, -3, 2.0, True, "5", None])
def test_minimizer_test_rejects_a_trial_count_that_is_not_a_positive_integer(trials):
    with pytest.raises(InvalidParameter, match="trials"):
        run_minimizer_test(_minimizer_config(0), trials=trials)


def test_gradient_bound_sweep_degenerate_and_angle_guard(monkeypatch):
    monkeypatch.setattr(harness, "_FAMILY_SIZE", 3)
    cfg = ExperimentConfig(scenario="gradient-bound-sweep", r_levels=(2.0,),
                           h_levels=(0.5,), c0=0.0, seed=2)
    report = run_gradient_bound_sweep(cfg)
    assert _verdicts(report) == DRIFT
    assert report.fit.degenerate
    assert report.fit.c2 == 0.0 and report.fit.c3 == 0.0

    # the angle restriction starts at n = 4, a dimension no config admits
    with pytest.raises(BadDimension):
        ExperimentConfig(scenario="gradient-bound-sweep", r_levels=(2.0,),
                         h_levels=(0.5,), dim=4,
                         theta_rad=float(np.arccos(0.97)), seed=2)


def test_gradient_bound_fit_dominates_measurements(monkeypatch):
    from capgraph import gradient_bound
    monkeypatch.setattr(harness, "_FAMILY_SIZE", 4)
    cfg = ExperimentConfig(scenario="gradient-bound-sweep", r_levels=(2.0,),
                           h_levels=(0.5,), c0=2.0, seed=4)
    report = run_gradient_bound_sweep(cfg)
    assert _verdicts(report) == DRIFT
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
    assert _verdicts(report) == DRIFT
    assert len(report.fit.per_level) == 2
    assert report.fit.stability <= 0.2


# (c1, c2, c3, fit_residual, stability) of the benchmark's report config
# (r = 4, h = 0.5 and 0.25, c0 = 2, theta = pi/3) per seed
_PINNED_FITS = {
    0: (-2.205635287062665, 0.7161090004193846, -0.047441850148061515,
        0.03378394342191099, 0.027901691988582177),
    1: (-2.2459658490114602, 0.7613854604875523, -0.05363791765427075,
        0.03190259879033753, 0.05266703558297106),
    2: (-2.2442652666478566, 0.7581042552135748, -0.053155425439087176,
        0.031820325000325306, 0.037355719127441),
}


@pytest.mark.parametrize("seed", sorted(_PINNED_FITS))
def test_report_fit_keeps_its_pinned_constants(seed):
    cfg = ExperimentConfig(scenario="gradient-bound-sweep", r_levels=(4.0,),
                           h_levels=(0.5, 0.25), c0=2.0, seed=seed)
    report = run_gradient_bound_sweep(cfg)
    assert _verdicts(report) == DRIFT
    fit = report.fit
    assert not fit.degenerate
    got = (fit.c1, fit.c2, fit.c3, fit.fit_residual, fit.stability)
    assert got == pytest.approx(_PINNED_FITS[seed], rel=1e-12, abs=0.0)


_SIN_FLOOR_ANGLE = float(np.arcsin(0.05)) + 1e-9
_ANGLES = st.floats(_SIN_FLOOR_ANGLE, np.pi - _SIN_FLOOR_ANGLE)


def _pairwise_drift(per_level):
    """The report's drift per halving, one pair of levels at a time."""
    drifts = [max(abs(b - a) / max(abs(a), 1e-2) for a, b in zip(lo, hi))
              for lo, hi in zip(per_level, per_level[1:])]
    return max(drifts) if drifts else float("nan")


@st.composite
def _bound_families(draw):
    """(members, r, theta): 1-3 levels of a 3-8 member family whose M/r
    values are 1 plus gaps of 0.1-0.8 (or one constant value), each level a
    copy of the first moved by `spread` times draws in [-1, 1]."""
    k = draw(st.integers(3, 8))
    gaps = draw(st.lists(st.floats(0.1, 0.8), min_size=k - 1, max_size=k - 1))
    ratios = 1.0 + np.concatenate([[0.0], np.cumsum(gaps)])
    if draw(st.booleans()):
        ratios[:] = ratios[-1]
    log_sups = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k)))
    spread = draw(st.sampled_from([0.0, 1e-3, 0.3]))
    members = []
    for _ in range(draw(st.sampled_from((1, 2, 3)))):
        move = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=k, max_size=k)))
        level = ratios + 0.05 * spread * (1.0 + move) * (np.ptp(ratios) > 0.0)
        members.append(tuple(zip(level.tolist(),
                                 np.exp(log_sups + spread * move).tolist())))
    return members, draw(st.floats(0.5, 8.0)), CapillaryAngle(draw(_ANGLES))


def _loop_fit(level, theta):
    """One level's (c1, c2, c3) by the per-level loop the report ran before
    its fit became one array program: lstsq on (1, M/r, (M/r)^2) with the
    intercept shifted by the largest residual, or max y for constant M/r."""
    m, sups = (np.asarray(column) for column in zip(*level))
    y = np.log(sups * (1.0 - abs(theta.cos_t)))
    if np.std(m) < 1e-9:
        return (float(np.max(y)), 0.0, 0.0)
    design = np.stack([np.ones_like(m), m, m * m], axis=1)
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    coef[0] += np.max(y - design @ coef)
    return tuple(coef.tolist())


@settings(max_examples=150, deadline=None)
@given(family=_bound_families())
def test_bound_fit_dominates_every_member_and_reports_its_drift(family):
    members, r, theta = family
    per_level = [_loop_fit(level, theta) for level in members]
    drift = _pairwise_drift(per_level)
    assume(abs(drift - 0.2) > 1e-6)     # the two fits may round either way
    fit = harness._bound_fit(members, r, theta)
    # a drifting family is fitted all the same; its run fails bound_drift
    assert (fit.stability > 0.2) == (drift > 0.2)
    assert fit.per_level[-1] == (fit.c1, fit.c2, fit.c3)
    assert np.asarray(fit.per_level) == pytest.approx(np.asarray(per_level),
                                                      rel=1e-9, abs=1e-9)
    for (ratio, sup) in members[-1]:
        bound = gradient_bound(ratio * r, r, theta, fit.c1, fit.c2, fit.c3)
        assert sup <= bound * (1.0 + 1e-12)
    if len(members) == 1:
        assert np.isnan(fit.stability)
    else:
        assert fit.stability == pytest.approx(_pairwise_drift(fit.per_level),
                                              rel=1e-12, abs=0.0)


def test_bound_fit_of_a_constant_height_family_is_degenerate():
    sups = np.array([1.5, 2.5, 2.0, 3.0, 2.25])
    level = tuple((1.7, s) for s in sups.tolist())
    fit = harness._bound_fit([level], 2.0, THETA)
    assert fit.degenerate
    assert fit.c2 == 0.0 and fit.c3 == 0.0 and fit.fit_residual == 0.0
    top = float(np.max(np.log(sups * (1.0 - abs(THETA.cos_t)))))
    assert fit.c1 == pytest.approx(top, rel=1e-12, abs=0.0)
    assert np.isnan(fit.stability)


def test_bound_fit_catches_a_fine_level_scaled_by_a_quarter():
    # a two-level family with c1 near 0.5 and a 2% mesh change: the drift
    # passes; scaling the fine level's sups by 1.25 moves c1 by log 1.25,
    # about 45% of |c1|.  (The check sees this only where |c1| is below
    # log(1.25) / 0.2, about 1.1: on the report's own families, c1 near
    # -2.2, the same scaling moves it by about 10% and passes.)
    ratios = 1.0 + 0.4 * np.arange(6)
    sups = np.exp(0.5 + 0.3 * ratios - 0.02 * ratios ** 2
                  + 0.01 * np.sin(7.0 * ratios)) / (1.0 - abs(THETA.cos_t))

    def family(fine_scale):
        return [tuple(zip(ratios.tolist(), sups.tolist())),
                tuple(zip(ratios.tolist(), (1.02 * fine_scale * sups).tolist()))]

    assert harness._bound_fit(family(1.0), 2.0, THETA).stability < 0.2
    assert harness._bound_fit(family(1.25), 2.0, THETA).stability > 0.2


# ---------------------------------------------------------------------------
# Checks as records: each run's verdicts, driven to their edges through
# stubbed solves (no Newton solve runs in these tests)
# ---------------------------------------------------------------------------

def _stub_row(level, r, h, affine_dev=0.0, status="converged"):
    return ReportRow(level=level, r=r, h=h, sup_grad_inner=0.0, affine_dev=affine_dev,
                     energy=0.0, v_min=1.0, newton_iters=1, status=status)


def _trend_check(devs):
    """The one check of a linear-growth liouville run over len(devs) levels
    whose solves are replaced by rows with affine deviations `devs`."""
    rows = iter(devs)

    def solve(theta, grid, data, level, r, h):
        return None, _stub_row(level, r, h, affine_dev=next(rows)), None

    cfg = ExperimentConfig(scenario="liouville-linear-growth", r_levels=tuple(
        1.0 + k for k in range(len(devs))), h_levels=(0.5,), seed=0)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "_solve_level", solve)
        check, = run_liouville_experiment(cfg).checks
    assert (check.check, check.threshold) == ("affine_dev_trend", 0.0)
    assert check.passed == (check.value <= check.threshold)
    return check


def _decay_check(residuals, unsolved=()):
    """The one check of a conormal-check run over len(residuals) levels whose
    solves are replaced by zero fields and rows, the levels in `unsolved`
    unconverged, and whose residuals are `residuals` (an unsolved level's
    entry is not read: the run records NaN)."""
    values = iter([value for level, value in enumerate(residuals) if level not in unsolved])

    def solve(theta, grid, data, level, r, h, initial=None):
        status = "max_iter" if level in unsolved else "converged"
        return ScalarField(grid, np.zeros(grid.n_nodes)), _stub_row(level, r, h,
                                                                    status=status), None

    def residual(sol, theta, corner_margin):
        return next(values)

    # the runner takes only halving mesh widths
    cfg = ExperimentConfig(scenario="conormal-check", r_levels=(1.0,),
                           h_levels=tuple(0.5 / 2 ** level for level in
                                          range(len(residuals))), seed=0)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "_solve_level", solve)
        m.setattr(harness, "conormal_stationarity_residual", residual)
        report = run_conormal_check(cfg)
    check, = report.checks
    assert (check.check, check.threshold) == ("conormal_decay", 1.8)
    assert check.passed == (check.value >= check.threshold)
    return report, check


def _parent_trend_raises(devs):
    """The trend predicate under which the liouville run raised before its
    checks became records."""
    return any(b > 1.1 * a and b > 1e-9 for a, b in zip(devs, devs[1:]))


def _parent_decay_raises(residuals):
    """The decay predicate under which the conormal check raised before its
    checks became records."""
    ratios = [a / b if b else math.inf for a, b in zip(residuals, residuals[1:])]
    return any(coarse >= 1e-12 and ratio < 1.8 for coarse, ratio in zip(residuals, ratios))


_EDGES = (0.0, -0.0, math.nan, math.inf, -math.inf, 1e-9, np.nextafter(1e-9, 1.0),
          1e-12, np.nextafter(1e-12, 0.0), 1.0, 1.8, 1.1, np.nextafter(1.1, 2.0))


@st.composite
def _check_sequences(draw, factors):
    """1-5 values: edge values, any floats, or the value before times one of
    `factors` (and the next float either side), so that pairs land on a
    check's limit."""
    seq = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("edge", "any", "step")) if seq else
                    st.sampled_from(("edge", "any")))
        if kind == "edge":
            seq.append(float(draw(st.sampled_from(_EDGES))))
        elif kind == "any":
            seq.append(draw(st.floats(allow_nan=True, allow_infinity=True)))
        else:
            step = seq[-1] * draw(st.sampled_from(factors))
            with np.errstate(over="ignore"):     # the next float after the largest
                near = [step, np.nextafter(step, -math.inf), np.nextafter(step, math.inf)]
            seq.append(float(draw(st.sampled_from(near))))
    return seq


@settings(max_examples=150, deadline=None)
@given(devs=_check_sequences((1.1, 1.0, 0.5)))
@example(devs=[1.0, 1.1])
@example(devs=[1.0, float(np.nextafter(1.1, 2.0))])
@example(devs=[0.0, 1e-9, math.nan, 1.0])
def test_trend_check_passes_exactly_where_the_parent_did_not_raise(devs):
    assert _trend_check(devs).passed is not _parent_trend_raises(devs)


@settings(max_examples=150, deadline=None)
@given(residuals=_check_sequences((1 / 1.8, 1 / 2.0, 1.0)))
@example(residuals=[1.8, 1.0])
@example(residuals=[1e-12, 1e-12, math.nan])
@example(residuals=[1.0, math.nan])
def test_decay_check_passes_exactly_where_the_parent_did_not_raise(residuals):
    assert _decay_check(residuals)[1].passed is not _parent_decay_raises(residuals)


@pytest.mark.parametrize("devs, passed", [
    ([1.0, 1.1], True),                                  # 10% rise: the limit
    ([1.0, float(np.nextafter(1.1, 2.0))], False),
    ([0.0, 1e-9], True),                                 # roundoff: the floor
    ([0.0, 2e-9], False),
    ([0.5, 0.2, 0.3, 0.1], False),                       # any pair fails
    ([0.3, math.nan, 5.0], True),                        # NaN takes no part
    ([0.7], True),                                       # no pair
])
def test_trend_check_edges(devs, passed):
    check = _trend_check(devs)
    assert check.passed is passed
    if len(devs) == 1:
        assert check.value == -math.inf


@pytest.mark.parametrize("residuals, passed", [
    ([1.8, 1.0], True),                                  # decay 1.8: the limit
    ([1.8, float(np.nextafter(1.0, 2.0))], False),
    ([1e-12, 1e-12], False),                             # at the floor: checked
    ([float(np.nextafter(1e-12, 0.0)), 1e-12], True),    # below: roundoff
    ([4.0, 1.0, 0.9], False),                            # any halving fails
    ([1.0, 0.0], True),                                  # to zero: ratio inf
])
def test_decay_check_edges(residuals, passed):
    assert _decay_check(residuals)[1].passed is passed


def test_an_unsolved_level_takes_no_part_in_the_decay_check():
    # level 1 did not converge: its residual is NaN, and so are the ratios
    # either side of it, which pass, although 1.0 -> 1.0 would not decay
    assert not _decay_check([1.0, 1.0, 1.0])[1].passed
    report, check = _decay_check([1.0, 1.0, 1.0], unsolved=(1,))
    assert math.isnan(report.details["residuals"][1])
    assert all(math.isnan(ratio) for ratio in report.details["ratios"])
    assert check.passed and check.value == math.inf
    assert report.worst_status == "max_iter"


def _minimizer_checks(gain=None, slope=None):
    """The report of a one-trial minimizer run on a zero field of energy 0
    whose competitors gain eps^2, with the middle amplitude's gain replaced
    by `gain` and the slopes by [slope] where given."""
    eps = np.asarray(harness.MINIMIZER_EPSILONS)
    gains = eps ** 2
    if gain is not None:
        gains[1] = gain

    def solve(theta, grid, data, level, r, h, solver_cfg=None):
        return ScalarField(grid, np.zeros(grid.n_nodes)), _stub_row(level, r, h), None

    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "_solve_level", solve)
        m.setattr(harness, "capillary_energies", lambda *a: gains[None, :])
        if slope is not None:
            m.setattr(harness, "_log_slopes", lambda *a: np.array([slope]))
        report = run_minimizer_test(_minimizer_config(0), trials=1)
    energy, quadratic = report.checks
    assert (energy.check, energy.threshold) == ("energy_gain", -1e-10)
    assert (quadratic.check, quadratic.threshold) == ("quadratic_slope", 1.9)
    return report


def test_minimizer_energy_check_edges():
    report = _minimizer_checks(gain=-1e-10)                     # roundoff: passes
    assert report.checks[0].passed and report.checks[0].value == -1e-10
    assert "offender" not in report.details
    report = _minimizer_checks(gain=float(np.nextafter(-1e-10, -1.0)))
    assert not report.checks[0].passed
    assert report.details["offender"]["trial"] == 0
    assert report.details["offender"]["epsilon"] == harness.MINIMIZER_EPSILONS[1]
    # a gain below zero has no log: the slope is NaN and fails too
    assert math.isnan(report.checks[1].value) and not report.checks[1].passed


def test_minimizer_slope_check_edges():
    report = _minimizer_checks()
    assert all(check.passed for check in report.checks)
    assert report.checks[1].value == pytest.approx(2.0, rel=1e-12)
    assert _minimizer_checks(slope=1.9).checks[1].passed
    assert not _minimizer_checks(slope=float(np.nextafter(1.9, 0.0))).checks[1].passed
    assert not _minimizer_checks(slope=math.nan).checks[1].passed


def test_an_unconverged_minimizer_solve_records_no_checks(monkeypatch):
    def solve(theta, grid, data, level, r, h, solver_cfg=None):
        return None, _stub_row(level, r, h, status="stalled"), None

    monkeypatch.setattr(harness, "_solve_level", solve)
    report = run_minimizer_test(_minimizer_config(0))
    assert report.checks == () and report.details == {"trials": 0}


@pytest.mark.parametrize("stability, passed", [
    (0.2, True), (float(np.nextafter(0.2, 1.0)), False), (math.nan, True), (0.0, True)])
def test_report_drift_check_edges(monkeypatch, stability, passed):
    # the record holds the fit's own stability against 0.2; one level's
    # NaN drift passes
    def solve(theta, grid, data, level, r, h, idx=None, initial=None):
        return ScalarField(grid, np.zeros(grid.n_nodes)), _stub_row(level, r, h), None

    fit = harness.GradientBoundFit(c1=0.0, c2=0.0, c3=0.0, fit_residual=0.0,
                                   degenerate=True, stability=stability)
    monkeypatch.setattr(harness, "_FAMILY_SIZE", 2)
    monkeypatch.setattr(harness, "_solve_level", solve)
    monkeypatch.setattr(harness, "_bound_fit", lambda *a: fit)
    report = run_gradient_bound_sweep(ExperimentConfig(
        scenario="gradient-bound-sweep", r_levels=(2.0,), h_levels=(0.5,), seed=0))
    check, = report.checks
    assert report.fit is fit
    assert (check.check, check.threshold) == ("bound_drift", 0.2)
    assert check.value is stability and check.passed is passed


def test_an_unsolved_report_family_records_no_drift_check(monkeypatch):
    def solve(theta, grid, data, level, r, h, idx=None, initial=None):
        status = "diverged" if level == 1 else "converged"
        return ScalarField(grid, np.zeros(grid.n_nodes)), _stub_row(level, r, h,
                                                                    status=status), None

    monkeypatch.setattr(harness, "_FAMILY_SIZE", 2)
    monkeypatch.setattr(harness, "_solve_level", solve)
    report = run_gradient_bound_sweep(ExperimentConfig(
        scenario="gradient-bound-sweep", r_levels=(2.0,), h_levels=(0.5,), seed=0))
    assert report.fit is None and report.checks == ()


class _Solved(Exception):
    """Raised in place of the first solve: the hypotheses held."""


def _slope_limit_message(make) -> str | None:
    """The message of the slope-limit HypothesisViolation that make() raises,
    or None when it raises none (a solve reached, or another hypothesis)."""
    try:
        make()
    except HypothesisViolation as exc:
        return str(exc) if "slope limit" in str(exc) else None
    except _Solved:
        pass
    return None


@settings(max_examples=60, deadline=None)
@given(theta=_ANGLES, direction=st.floats(0.0, 2.0 * np.pi),
       factor=st.floats(0.5, 2.0))
def test_one_sided_slope_rule_is_shared(theta, direction, factor):
    angle = CapillaryAngle(theta)
    limit = one_sided_slope_limit(angle)
    slope = (factor * limit * np.array([np.cos(direction), np.sin(direction)])).tolist()
    cutoff = _slope_limit_message(
        lambda: LinearBound(tuple(slope), 0.0).check_slope(angle))
    cfg = ExperimentConfig(scenario="liouville-one-sided", theta_rad=theta,
                           r_levels=(2.0,), h_levels=(0.5,), L_slope=tuple(slope))

    def solved(*args, **kwargs):
        raise _Solved

    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "_solve_level", solved)
        liouville = _slope_limit_message(lambda: run_liouville_experiment(cfg))
    assert liouville == cutoff
    if limit > 1e-12 and abs(factor - 1.0) > 1e-9:
        assert (cutoff is not None) == (factor > 1.0)


def _one_sided_run(theta, l_slope, l_offset=0.0):
    """run_liouville_experiment's one-sided report at r = 2 and 4, h = 0.5,
    and the inner gradients of its last level."""
    grads = []
    solve_level = harness._solve_level

    def recording(*args, **kwargs):
        out = solve_level(*args, **kwargs)
        grads.append(out[2])
        return out

    cfg = ExperimentConfig(scenario="liouville-one-sided", theta_rad=theta,
                           r_levels=(2.0, 4.0), h_levels=(0.5,),
                           L_slope=tuple(l_slope), L_offset=l_offset, seed=0)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(harness, "_solve_level", recording)
        report = run_liouville_experiment(cfg)
    assert _verdicts(report) == TREND
    return report, grads[-1]


# L within the slope limit, with a tangential part L': the data is the
# affine capillary solution of slope (-cot(theta) sqrt(1 + |L'|^2), L')
# plus a bump on the required side, so no node crosses L, and the gap is
# measured against that slope
@settings(max_examples=12, deadline=None)
@given(theta=st.floats(0.3, np.pi - 0.3), factor=st.floats(0.0, 1.0),
       direction=st.floats(-np.pi, np.pi), offset=st.floats(-1.0, 1.0))
@example(theta=np.pi / 3, factor=1.0, direction=np.pi / 2, offset=0.0)
@example(theta=2 * np.pi / 3, factor=1.0, direction=-np.pi / 4, offset=0.5)
def test_one_sided_target_takes_the_tangential_slope_of_l(theta, factor, direction,
                                                          offset):
    assume(abs(np.sin(direction)) >= 0.1)
    angle = CapillaryAngle(theta)
    limit = one_sided_slope_limit(angle)
    slope = factor * limit * np.array([np.cos(direction), np.sin(direction)])
    report, grad = _one_sided_run(theta, slope.tolist(), offset)
    target = affine_capillary_solution(angle, slope[1:], offset).slope
    assert target[1] == slope[1]
    assert report.details["one_sided_gap"] == float(
        np.max(np.linalg.norm(grad - target, axis=1)))


def test_two_tangential_slopes_of_l_give_two_targets():
    # the same bump at L' = +-limit/2: the interior tangential gradient
    # moves with L', and so does the gap against the target
    limit = one_sided_slope_limit(THETA)
    runs = [_one_sided_run(float(THETA.theta), (0.0, sign * 0.5 * limit))
            for sign in (1.0, -1.0)]
    (up, grad_up), (down, grad_down) = runs
    assert up.details["one_sided_gap"] != down.details["one_sided_gap"]
    shift = float(np.mean(grad_up[:, 1] - grad_down[:, 1]))
    assert abs(shift - limit) <= 0.01 * limit


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
    """run_angle_sweep as it was written, one CapillaryAngle, one scalar
    angle range and one scalar eps0 bisection per (n, theta) cell: the
    oracle of the array sweep, which shares none of the code of
    _angle_ranges or choose_eps0_array."""
    rows = []
    for n in n_list:
        for t in theta_grid:
            angle = CapillaryAngle(float(t), sin_min=sin_min)
            in_range, threshold, margin = scalar_angle_range(int(n), angle)
            try:
                eps_mid = scalar_choose_eps0(int(n), angle)
                script_b = angle_condition_lower_bound(int(n), angle, eps_mid)
            except NoAdmissibleEps0:
                script_b = angle_condition_lower_bound(int(n), angle, 0.0)
            rows.append(AngleSweepRow(
                n=int(n), theta=float(t), in_U=in_range,
                threshold=threshold, margin=margin,
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
        write_csv(rows, tmp_path / f"{tag}.csv", AngleSweepRow)
        blobs.append((tmp_path / f"{tag}.csv").read_bytes())
    assert blobs[0] == blobs[1]
    assert run_angle_sweep([4], []) == [] and run_angle_sweep([], thetas) == []


def test_angle_sweep_keeps_its_exception_types():
    # a dimension below 2 is a ValueError and a degenerate angle a
    # DegenerateAngle, the angles checked first; no angles or no dimensions
    # give no rows, whatever the other list holds
    with pytest.raises(ValueError, match="dimension must be >= 2, got 1"):
        run_angle_sweep([4, 1], [1.0])
    for theta, sin_min in ((0.0, 0.05), (np.nan, 0.05), (3.2, 0.05),
                           (0.01, 0.05), (0.3, 0.5)):
        with pytest.raises(DegenerateAngle):
            run_angle_sweep([1, 4], [1.0, theta], sin_min)
    assert run_angle_sweep([1], []) == []


def test_angle_sweep_rejects_non_integer_dimensions():
    # a dimension is not truncated: 4.5 is no n = 4 row
    for n_list in ([4.5], [4, 2.5], [np.float64(3.5)], [np.nan], [np.inf]):
        with pytest.raises(InvalidParameter, match="dimensions must be integers"):
            run_angle_sweep(n_list, [0.3])
    rows = run_angle_sweep([4], [0.3, 1.2])
    for n in (np.int64(4), 4.0):
        same = run_angle_sweep([n], [0.3, 1.2])
        assert same == rows and all(type(row.n) is int for row in same)
    with pytest.raises(ValueError):
        run_angle_sweep([1], [0.3])


class _Cells(NamedTuple):
    flag: bool
    np_flag: np.bool_
    count: int
    np_count: np.int64
    value: float
    np_value: np.float64
    name: str
    neg_zero: float
    missing: float
    big: float


_CELL_ROWS = [
    _Cells(True, np.bool_(False), 3, np.int64(-7), 0.1, np.float64(1.0 / 3.0),
           "converged", -0.0, float("nan"), float("inf")),
    _Cells(False, np.bool_(True), -12, np.int64(0), 1e300, np.float64(-0.0),
           "", 0.0, np.nan, -np.inf),
    # the declared types are not enforced: a cell is written by its own type
    _Cells(np.float64(2.5), 1, np.float64(np.nan), False, 7, "x",
           np.int64(4), np.bool_(False), np.float64(np.inf), True),
]
# rows that share cell objects, as a sweep's rows share one angle or
# threshold: an object keeps its own text next to equal values of another
# sign or type (-0.0 and 0.0; 1, 1.0, True, np.True_ and np.float64(1.0)),
# and one NaN object reused sits next to a distinct NaN
_NEG_ZERO, _ZERO, _NAN = -0.0, 0.0, float("nan")
_CELL_ROWS += [
    _Cells(True, np.True_, 1, np.int64(1), _ZERO, np.float64(1.0), "s",
           _NEG_ZERO, _NAN, 1.0),
    _Cells(True, np.True_, 1.0, np.int64(1), _NEG_ZERO, np.float64(1.0), "s",
           _ZERO, _NAN, True),
    _Cells(True, np.True_, True, np.int64(1), _ZERO, np.float64(1.0), "s",
           _NEG_ZERO, float("nan"), 1),
    _Cells(True, np.True_, np.True_, np.int64(1), _NEG_ZERO, np.float64(1.0),
           "s", _ZERO, _NAN, np.float64(1.0)),
    _Cells(True, np.True_, np.float64(1.0), np.int64(1), _ZERO,
           np.float64(1.0), "s", _NEG_ZERO, np.float64(_NAN), np.True_),
]


def test_write_csv_matches_the_per_cell_rule(tmp_path):
    # each line is _fmt, the one cell rule, over the row's fields: np.float64
    # cells keep their np.float64(...) text, numpy ints their str(), and
    # numpy bools are written true/false like Python bools
    path = tmp_path / "cells.csv"
    write_csv(_CELL_ROWS, path, _Cells)
    lines = ["schema=1", ",".join(_Cells._fields)] + [
        ",".join(harness._fmt(getattr(row, name)) for name in row._fields)
        for row in _CELL_ROWS]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert lines[2] == ("true,false,3,-7,0.1,np.float64(0.3333333333333333),"
                        "converged,-0.0,nan,inf")
    assert lines[3].split(",")[1] == "true"
    assert lines[4].split(",")[7] == "false"
    shared = [line.split(",") for line in lines[5:]]
    assert [cells[2] for cells in shared] == [
        "1", "1.0", "true", "true", "np.float64(1.0)"]
    assert [cells[4] for cells in shared] == ["0.0", "-0.0"] * 2 + ["0.0"]
    assert [cells[7] for cells in shared] == ["-0.0", "0.0"] * 2 + ["-0.0"]
    assert [cells[8] for cells in shared] == ["nan"] * 4 + ["np.float64(nan)"]
    assert [cells[9] for cells in shared] == [
        "1.0", "true", "1", "np.float64(1.0)", "true"]

    write_csv([], path, NamedTuple("_Pair", [("a", int), ("b", int)]))
    assert path.read_bytes() == b"schema=1\na,b\n"
    write_csv(iter(_CELL_ROWS[:1]), path, _Cells)
    assert path.read_text().splitlines()[2] == lines[2]

    mixed = tmp_path / "mixed.csv"
    with pytest.raises(TypeError, match="CheckResult row in a table of _Cells"):
        write_csv([_CELL_ROWS[0], CheckResult("x", 1.0, 0.0, True)], mixed, _Cells)
    with pytest.raises(TypeError, match="CheckResult row in a table of _Cells"):
        write_csv([CheckResult("x", 1.0, 0.0, True)], mixed, _Cells)
    assert not mixed.exists()


# equal values whose texts differ by sign or type, and NaNs
_EQUAL_CELLS = [-0.0, 0.0, np.float64(-0.0), np.float64(0.0), np.int64(0),
                False, np.False_, 0, 1, 1.0, True, np.True_, np.float64(1.0),
                np.int64(1), float("nan"), np.float64(np.nan), 0.1,
                np.float64(0.1), "1"]


def _copy(value):
    """An equal cell of the same type, a new object where the type allows."""
    return pickle.loads(pickle.dumps(value))


_TABLE_CELLS = st.builds(lambda v, fresh: _copy(v) if fresh else v,
                         st.sampled_from(_EQUAL_CELLS), st.booleans())


@given(st.lists(st.builds(_Cells, *[_TABLE_CELLS] * len(_Cells._fields)),
                max_size=8))
def test_write_csv_keys_its_texts_by_object_not_value(rows):
    # a column mixes shared objects with distinct ones of equal value: each
    # cell keeps its own _fmt text, also when the rows come as a generator of
    # new copies that nothing else holds
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cells.csv"
        lines = ["schema=1", ",".join(_Cells._fields)] + [
            ",".join(map(harness._fmt, row)) for row in rows]
        expected = ("\n".join(lines) + "\n").encode()
        write_csv(rows, path, _Cells)
        assert path.read_bytes() == expected
        write_csv((_Cells(*map(_copy, row)) for row in rows), path, _Cells)
        assert path.read_bytes() == expected


def test_report_csv_schema_and_determinism(tmp_path):
    cfg = ExperimentConfig(scenario="liouville-linear-growth",
                           theta_rad=float(THETA.theta),
                           r_levels=(2.0, 4.0), h_levels=(0.5,),
                           L_slope=(0.0, 0.2), seed=5)
    paths = []
    for tag in ("a", "b"):
        report = run_liouville_experiment(cfg)
        assert _verdicts(report) == TREND
        path = tmp_path / f"run_{tag}.csv"
        write_csv(report.rows, path, ReportRow)
        paths.append(path)
    data_a, data_b = (p.read_bytes() for p in paths)
    assert data_a == data_b
    lines = data_a.decode().splitlines()
    assert lines[0] == "schema=1"
    assert lines[1] == "level,r,h,sup_grad_inner,affine_dev,energy,v_min,newton_iters,status"
    assert len(lines) == 2 + len(cfg.r_levels)

    rows = run_angle_sweep([4], np.linspace(0.3, 1.0, 5))
    sweep_path = tmp_path / "sweep.csv"
    write_csv(rows, sweep_path, AngleSweepRow)
    header = sweep_path.read_text().splitlines()
    assert header[0] == "schema=1"
    assert header[1] == "n,theta,in_U,threshold,margin,C_theta,script_B"

    results = run_audit(seed=1, n_gradients=1000, cutoff_draws=1,
                        cutoff_samples=200)
    audit_path = tmp_path / "audit.csv"
    write_csv(results, audit_path, CheckResult)
    lines = audit_path.read_text().splitlines()
    assert lines[0] == "schema=1"
    assert lines[1] == "check,value,threshold,passed"
    assert len(lines) == 2 + len(results)
    assert all(line.split(",")[0] == res.check and
               line.split(",")[3] == ("true" if res.passed else "false")
               for line, res in zip(lines[2:], results))


def test_worst_status_ranks_a_linear_failure_last():
    def report(*statuses):
        rows = tuple(ReportRow(level=i, r=1.0, h=0.5, sup_grad_inner=0.0,
                               affine_dev=0.0, energy=0.0, v_min=1.0,
                               newton_iters=0, status=status)
                     for i, status in enumerate(statuses))
        return ExperimentReport(rows=rows)

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
    names = {res.check for res in results}
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
    # sizes of the v check inside its first span (which the worker always
    # takes), at a span's end (2 chunks) and just past one or two span ends
    *(pytest.param(n, 2, id=str(n))
      for n in (1, 2, 3, 5, 2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1,
                4 * _CHUNK + 3)),
    # one and three cut-off draws, folded in draw order in the calling thread
    pytest.param(3, 1, id="3-draws1"), pytest.param(5, 3, id="5-draws3"),
    pytest.param(2 * _CHUNK + 1, 1, id=f"{2 * _CHUNK + 1}-draws1"),
    pytest.param(2 * _CHUNK + 1, 3, id=f"{2 * _CHUNK + 1}-draws3")])
def test_streamed_audit_matches_one_shot_draws(n_gradients, cutoff_draws):
    # the chunks of every span, whichever thread takes it, read the same
    # Philox stream as one full-size draw, and every later check starts
    # where that draw left the stream
    for seed in range(3):
        streamed = run_audit(seed, n_gradients, cutoff_draws=cutoff_draws,
                             cutoff_samples=50)
        oracle = _one_shot_audit(seed, n_gradients, cutoff_draws, 50)
        assert [(c.check, c.value, c.passed) for c in streamed] == \
            [(c.check, c.value, c.passed) for c in oracle]


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 2 * _CHUNK + 5), cut=st.integers(0, 4 * _CHUNK),
       seed=st.integers(0, 2 ** 32 - 1))
@example(n=2 * _CHUNK + 5, cut=_CHUNK + 3, seed=0)
@example(n=7, cut=3, seed=1)
def test_v_margin_split_is_exact(n, cut, seed):
    # any split point gives the one-span margin bitwise, at 0, at n and off
    # the four-double counter steps alike
    state = np.random.Philox(np.random.SeedSequence(seed)).state
    buffers = harness._v_buffers(n)
    whole = harness._v_margin(state, n, iter([(0, n)]), buffers)
    assert whole < np.inf
    for split in {0, n, cut % (n + 1)}:
        shares = (harness._v_margin(state, n, iter([(0, split)]), buffers),
                  harness._v_margin(state, n, iter([(split, n)]), buffers))
        assert min(shares).hex() == whole.hex()
    # the hand-off state draws what follows the angles and gradients
    one_shot = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    one_shot.random(3 * n)
    assert np.array_equal(harness._philox_at(state, 3 * n).random(9),
                          one_shot.random(9))


@pytest.mark.parametrize("n, span", [(5 * _CHUNK + 7, 2 * _CHUNK),
                                     (20_000, 999), (50_000, 97), (3, 1)])
def test_v_margin_is_the_same_when_threads_share_the_spans(n, span):
    # one thread draining every span, and four threads taking them from one
    # shared iterator at a short switch interval, give the same margin bit
    # for bit, and every span is taken exactly once
    state = np.random.Philox(np.random.SeedSequence(7)).state
    spans = [(lo, min(lo + span, n)) for lo in range(0, n, span)]
    alone = harness._v_margin(state, n, iter(spans), harness._v_buffers(n))
    shared = iter(spans)
    taken = [[] for _ in range(4)]

    def drain(i):
        def recording():
            for lo_hi in shared:
                taken[i].append(lo_hi)
                yield lo_hi
        return harness._v_margin(state, n, recording(), harness._v_buffers(n))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(drain, i) for i in range(4)]
            margins = [future.result(timeout=60.0) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert min(margins).hex() == alone.hex()
    assert sorted(lo_hi for part in taken for lo_hi in part) == spans


@settings(max_examples=40, deadline=None)
@given(counter=st.integers(0, 2 ** 40), rem=st.integers(1, 3),
       count=st.integers(1, 50), columns=st.sampled_from([(), (2,)]),
       bounds=st.sampled_from([harness._AUDIT_ANGLES, (-30.0, 30.0)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_uniform_into_is_bitwise_uniform(counter, rem, count, columns, bounds, seed):
    # random(out=) scaled in place draws the doubles of uniform(lo, hi) over
    # both audit ranges (angles, gradient components) and leaves the stream
    # at the same place, off the four-double counter steps too
    state = np.random.Philox(np.random.SeedSequence(seed)).state
    offset = 4 * counter + rem
    drawn = harness._philox_at(state, offset)
    want = drawn.uniform(*bounds, (count,) + columns)
    filled = harness._philox_at(state, offset)
    out = np.empty((count,) + columns)
    assert harness._uniform_into(filled, out, *bounds) is out
    assert out.tobytes() == want.tobytes()
    assert filled.random(5).tobytes() == drawn.random(5).tobytes()


@pytest.mark.parametrize("name", ["capillary_area_element",
                                  "cutoff_derivative_check"])
def test_audit_worker_failure_propagates_and_joins(name, monkeypatch, tmp_path):
    # capillary_area_element fails on the worker, which always takes the v
    # check's first span; the cut-off checks run in the calling thread only,
    # and fail there while the worker drains a million-point v check
    on_worker = name == "capillary_area_element"
    before = threading.active_count()
    run_audit(0, 100, cutoff_draws=2, cutoff_samples=50)
    assert threading.active_count() == before
    original = getattr(harness, name)

    def fails_on_one_thread(*args, **kwargs):
        if (threading.current_thread() is not threading.main_thread()) == on_worker:
            raise InvalidParameter("worker share failed" if on_worker
                                   else "calling thread failed")
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, fails_on_one_thread)
    with pytest.raises(InvalidParameter, match="worker share failed" if on_worker
                       else "calling thread failed"):
        run_audit(0, 100 if on_worker else 1_000_000, cutoff_draws=2,
                  cutoff_samples=50)
    assert threading.active_count() == before
    # a CapillaryLabError from either thread is the CLI's exit 3
    assert cli_main(["audit", "--seed", "0", "--out",
                     str(tmp_path / "audit.csv")]) == 3
    assert threading.active_count() == before


def test_a_failed_worker_leaves_the_calling_thread_no_span(monkeypatch):
    # capillary_area_element fails on the worker's first chunk; the worker
    # drops the spans left before it re-raises, so the calling thread, held
    # back until then, evaluates no chunk of the v check, and the worker's
    # error reaches run_audit's caller
    original_area, original_margin = harness.capillary_area_element, harness._v_margin
    worker_done, in_margin = threading.Event(), threading.Event()
    caller_chunks, margins = [], []

    def area(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise InvalidParameter("worker share failed")
        if in_margin.is_set():
            caller_chunks.append(args)
        return original_area(*args, **kwargs)

    def margin(*args):
        if threading.current_thread() is not threading.main_thread():
            try:
                return original_margin(*args)
            finally:
                worker_done.set()
        assert worker_done.wait(30)
        in_margin.set()
        margins.append(original_margin(*args))
        return margins[-1]

    monkeypatch.setattr(harness, "capillary_area_element", area)
    monkeypatch.setattr(harness, "_v_margin", margin)
    with pytest.raises(InvalidParameter, match="worker share failed"):
        run_audit(0, 1_000_000, cutoff_draws=1, cutoff_samples=50)
    assert margins == [np.inf] and caller_chunks == []


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
    """The rows of every solve run(cfg) makes, and the report it returns;
    cold=True drops each solve's initial state, so every solve starts
    cold."""
    rows = []
    solve = harness._solve_level

    def recording(*args, initial=None, **kwargs):
        out = solve(*args, initial=None if cold else initial, **kwargs)
        rows.append(out[1])
        return out

    with monkeypatch.context() as m:
        m.setattr(harness, "_solve_level", recording)
        return rows, run(cfg)


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
    assert [(c.check, c.passed) for c in outcome.checks] == \
        [(c.check, c.passed) for c in cold_outcome.checks]
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
        assert np.asarray(report.fit.per_level) == pytest.approx(
            np.asarray(cold.fit.per_level), rel=1e-6, abs=1e-9)
    cfg = ExperimentConfig(scenario="conormal-check", r_levels=(1.0,),
                           h_levels=(0.2, 0.1, 0.05), perturb_amp=0.3, seed=seed)
    *_, report, cold = _assert_matches_cold(run_conormal_check, cfg, monkeypatch)
    assert report.details["residuals"] == pytest.approx(cold.details["residuals"],
                                                        rel=1e-6, abs=1e-9)
