"""Cut-offs, auxiliary functions, angle ranges, constants, coefficients."""

from dataclasses import replace

import numpy as np
import pytest

from capgraph import (AngleOutOfRange, CapillaryAngle, CoefficientState,
                      CutoffParams, DegenerateState, EllipsoidRegion,
                      HypothesisViolation, LinearBound, ProblemSpec, ScalarField,
                      admissible_angle_range, affine_capillary_solution,
                      angle_condition_holds, angle_condition_lower_bound,
                      angle_threshold, auxiliary_function, build_grid,
                      choose_eps0, conormal_stationarity_residual,
                      cutoff_derivative_check, cutoff_profile, cutoff_weight,
                      field_from_callable, gradient_bound, height_scale,
                      height_weight, in_region, max_principle_coefficients,
                      nondivergence_residual, one_sided_slope_limit,
                      shifted_cutoff_profile)

THETA = CapillaryAngle(np.pi / 3)


def test_cutoff_profile_reference_points():
    for theta_val in (0.4, 1.2, 2.7):
        theta = CapillaryAngle(theta_val)
        for r in (0.5, 3.0):
            params = CutoffParams(r=r, theta=theta, dim=2)
            q0 = cutoff_profile(np.zeros(2), params)
            assert np.isclose(q0, theta.sin_t ** 2, atol=1e-14)
            assert np.isclose(cutoff_weight(np.zeros(2), params),
                              theta.sin_t ** 4, atol=1e-14)
            center = np.array([abs(theta.cos_t) * r, 0.0])
            assert np.isclose(cutoff_profile(center, params), 1.0, atol=1e-15)
            # relative boundary: parametrize the shell
            phis = np.linspace(0.0, np.pi, 25)
            shell = np.stack([
                abs(theta.cos_t) * r + r * np.cos(phis),
                r * np.sin(phis) / theta.sin_t], axis=1)
            shell = shell[shell[:, 0] >= 0.0]
            assert np.max(np.abs(cutoff_profile(shell, params))) <= 1e-12


def test_cutoff_derivative_check_report():
    params = CutoffParams(r=2.5, theta=THETA, dim=2)
    rep = cutoff_derivative_check(params, 10_000, seed=2)
    assert rep.max_gradient_violation <= 1e-12
    assert rep.max_boundary_residual <= 1e-12
    assert rep.min_weight_inner >= rep.inner_lower_bound - 1e-12
    assert np.isfinite(rep.hessian_constant) and rep.hessian_constant > 0.0


def test_shifted_cutoff_profile_modes():
    params = CutoffParams(r=2.0, theta=THETA, dim=2)
    pts = np.array([[0.3, 0.4], [1.0, -0.5]])
    base = cutoff_profile(pts, params)
    # u identical to the (zero) bound reduces to the plain profile
    assert np.allclose(shifted_cutoff_profile(pts, np.zeros(2), params), base)

    # nonpositive shift keeps the positivity set inside the outer region
    rng = np.random.default_rng(4)
    sample = rng.uniform([-1.0, -4.0], [5.0, 4.0], (4000, 2))
    sample[:, 0] = np.abs(sample[:, 0])
    u_vals = -rng.uniform(0.0, 2.0, 4000)
    qs = shifted_cutoff_profile(sample, u_vals, params)
    inside_outer = cutoff_profile(sample, params) > 0.0
    assert not np.any((qs > 0.0) & ~inside_outer)

    # boundary-point setup of the one-sided estimate: value at the origin
    u0 = -0.4
    r = 10.0 * (-u0) / (params.nstar * THETA.sin_t ** 2)
    big = CutoffParams(r=r, theta=THETA, dim=2)
    val = shifted_cutoff_profile(np.zeros(2), u0, big)
    assert val > 0.0
    assert np.isclose(val, THETA.sin_t ** 2 + u0 / (2.0 * big.nstar * r),
                      atol=1e-14)


def test_cutoff_params_validation():
    with pytest.raises(ValueError):
        CutoffParams(r=-1.0, theta=THETA)
    with pytest.raises(HypothesisViolation):
        CutoffParams(r=1.0, theta=THETA, dim=2,
                     bound=LinearBound((0.5, 0.0), 0.0))
    limit = one_sided_slope_limit(THETA)
    CutoffParams(r=1.0, theta=THETA, dim=2,
                 bound=LinearBound((limit / 2.0, 0.0), 1.0))


def test_height_weight_range_and_linearity():
    assert height_weight(0.0, 3.0) == 1.0
    assert height_weight(3.0, 3.0) == 1.5
    assert height_weight(-3.0, 3.0) == 0.5
    m = 2.0
    vals = height_weight(np.array([-1.9, 0.3, 1.9]), m)
    assert np.all((vals > 0.5) & (vals < 1.5))
    assert np.isclose(height_weight(1.0, m) - height_weight(0.0, m),
                      1.0 / (2.0 * m))


def test_auxiliary_function_reference_cases():
    grid = build_grid(2, 0.25, 2.0, 2.0)
    params = CutoffParams(r=1.5, theta=THETA, dim=2)

    # affine symmetric solution: v = sin(theta) < 1, so values are negative
    # and the argmax sits exactly where the (height * cutoff) product is
    # smallest
    aff = affine_capillary_solution(THETA, (0.0,), 0.0)
    u = aff.on_grid(grid)
    out = auxiliary_function(u, THETA, params)
    weight = cutoff_weight(grid.nodes, params)
    assert np.all(out.values[weight > 1e-14] < 0.0)
    assert out.max_value <= 0.0
    region_mask = weight > 1e-14
    prod = height_weight(u.values, 10.0) * weight   # any positive scale
    scaled = auxiliary_function(u, THETA,
                                CutoffParams(r=1.5, theta=THETA, dim=2,
                                             m_scale=10.0))
    assert scaled.argmax == int(np.argmin(prod))

    # free boundary with constant field: v = 1 so the function vanishes
    theta90 = CapillaryAngle(np.pi / 2)
    const = ScalarField(grid, np.full(grid.n_nodes, 0.7))
    params90 = CutoffParams(r=1.5, theta=theta90, dim=2)
    out90 = auxiliary_function(const, theta90, params90)
    assert np.max(np.abs(out90.values)) <= 1e-14

    # vanishes on relative-boundary nodes for any field
    r = 1.0
    theta90b = CapillaryAngle(np.pi / 2)
    grid2 = build_grid(2, 0.25, 2.0, 2.0)
    shell_node = np.flatnonzero(
        np.isclose(np.sum(grid2.nodes ** 2, axis=1), r ** 2, atol=1e-12))
    rng = np.random.default_rng(0)
    rand = ScalarField(grid2, rng.standard_normal(grid2.n_nodes))
    out2 = auxiliary_function(rand, theta90b,
                              CutoffParams(r=r, theta=theta90b, dim=2))
    assert shell_node.size > 0
    assert np.max(np.abs(out2.values[shell_node])) <= 1e-12


def test_shifted_auxiliary_variant_under_bound():
    grid = build_grid(2, 0.25, 2.0, 2.0)
    aff = affine_capillary_solution(THETA, (0.0,), -0.5)
    params = CutoffParams(r=2.0, theta=THETA, dim=2)
    out = auxiliary_function(aff.on_grid(grid), THETA, params, variant="shifted")
    assert np.all(np.isfinite(out.values))
    assert 0 <= out.argmax < grid.n_nodes


def test_angle_threshold_values():
    assert np.isclose(angle_threshold(4), 15.0 / 16.0, atol=1e-16)
    assert np.isclose(angle_threshold(5), 8.0 / 9.0, atol=1e-16)
    assert np.isclose(angle_threshold(6), 55.0 / 64.0, atol=1e-16)
    assert np.isclose(angle_threshold(7), 21.0 / 25.0, atol=1e-16)
    assert np.isclose(angle_threshold(8), 119.0 / 144.0, atol=1e-16)
    assert angle_threshold(2) == np.inf


def test_admissible_angle_range_cases():
    for t in np.linspace(0.1, np.pi - 0.1, 17):
        assert admissible_angle_range(3, CapillaryAngle(t)).in_range
        assert admissible_angle_range(2, CapillaryAngle(t)).in_range
    res = admissible_angle_range(4, CapillaryAngle(np.pi / 2))
    assert res.in_range and np.isclose(res.threshold, 0.9375)
    steep = CapillaryAngle(np.arccos(0.97))
    res = admissible_angle_range(4, steep)
    assert not res.in_range
    assert res.margin < 0.0


def test_one_sided_slope_limit_properties():
    assert one_sided_slope_limit(CapillaryAngle(np.pi / 2)) == 0.0
    val = one_sided_slope_limit(THETA)
    assert np.isclose(val, 1.1796734797e-3, rtol=1e-9)
    for t in np.linspace(0.2, np.pi / 2, 13):
        a, b = CapillaryAngle(t), CapillaryAngle(np.pi - t)
        assert abs(one_sided_slope_limit(a) - one_sided_slope_limit(b)) <= 1e-15
    # global bound 2/36 used to cancel the shifted-weight cross term
    lo = np.arcsin(0.05) + 1e-9
    for t in np.linspace(lo, np.pi - lo, 400):
        assert one_sided_slope_limit(CapillaryAngle(float(t))) <= 2.0 / 36.0


def test_gradient_bound_monotone_and_limit():
    base = gradient_bound(2.0, 2.0, THETA, 0.0, 0.0, 0.0)
    assert np.isclose(base, 1.0 / (1.0 - abs(THETA.cos_t)))
    rng = np.random.default_rng(1)
    for _ in range(200):
        c = rng.uniform(0.0, 2.0, 3)
        m, r = sorted(rng.uniform(1.0, 10.0, 2))[::-1]
        up = gradient_bound(m, r, THETA, c[0] + 0.1, c[1], c[2])
        assert up >= gradient_bound(m, r, THETA, *c)
        assert gradient_bound(m + 1.0, r, THETA, *c) >= gradient_bound(m, r, THETA, *c)
    # linear growth: M/r bounded => bound approaches a finite limit
    c0 = 1.5
    vals = [gradient_bound(c0 * (1.0 + r) + r, r, THETA, 0.3, 0.2, 0.1)
            for r in (10.0, 100.0, 10_000.0)]
    limit = gradient_bound(0.0 + (c0 + 1.0) * 1e12, 1e12, THETA, 0.3, 0.2, 0.1)
    assert abs(vals[-1] - limit) / limit < 1e-3
    with pytest.raises(ValueError):
        gradient_bound(0.5, 1.0, THETA, 0.0, 0.0, 0.0)


def test_coefficient_state_validation():
    b = (0.0, 0.6, 0.8)
    st = CoefficientState(n=3, theta=THETA, u_n=10.0, b=b, eps0=0.5)
    assert np.isclose(st.W ** 2 - st.u_n ** 2, 1.0, atol=1e-12)
    assert st.v >= (1.0 - abs(THETA.cos_t)) * st.W - 1e-12
    with pytest.raises(DegenerateState):
        CoefficientState(n=3, theta=THETA, u_n=10.0, b=(1.0, 1.0, 1.0), eps0=0.5)
    with pytest.raises(DegenerateState):
        CoefficientState(n=3, theta=THETA, u_n=-1.0, b=b, eps0=0.5)
    with pytest.raises(DegenerateState):
        CoefficientState(n=3, theta=THETA, u_n=1.0, b=b, eps0=1.5)


def test_lower_bound_value_and_equivalences():
    # reference value of the dimensional constant at n = 4, eps0 = 0, pi/2
    val = angle_condition_lower_bound(4, CapillaryAngle(np.pi / 2), 0.0)
    assert abs(val - 1.875) <= 1e-15

    lo = np.arcsin(0.05) + 1e-9
    thetas = np.linspace(lo, np.pi - lo, 50)
    eps_grid = np.linspace(0.05, 0.95, 10)
    for n in range(2, 9):
        for t in thetas:
            angle = CapillaryAngle(float(t))
            for eps in eps_grid:
                lb = angle_condition_lower_bound(n, angle, float(eps))
                assert (lb > 0.0) == angle_condition_holds(n, angle, float(eps))
            if n >= 3:
                member = angle.cos_t ** 2 < angle_threshold(n)
                assert (angle_condition_lower_bound(n, angle, 0.0) > 0.0) == member


def test_choose_eps0_midpoint():
    # free-boundary n = 2: the admissible interval is (1/3, 1)
    eps = choose_eps0(2, CapillaryAngle(np.pi / 2))
    assert abs(eps - 2.0 / 3.0) <= 1e-9
    assert angle_condition_holds(2, CapillaryAngle(np.pi / 2), eps)
    # n = 4 inside the range: condition holds at the midpoint
    eps4 = choose_eps0(4, CapillaryAngle(1.2))
    assert angle_condition_holds(4, CapillaryAngle(1.2), eps4)
    with pytest.raises(AngleOutOfRange):
        choose_eps0(4, CapillaryAngle(np.arccos(0.97)))


@pytest.mark.parametrize("n, theta, expected", [
    (2, 0.06, 0.946457267086998),
    (2, 1.2, 0.6745762405855659),
    (2, np.pi / 2, 0.6666666666667427),
    (3, 0.07, 0.08131808400889928),
    (3, 3.071, 0.0821183089121863),
    (4, 0.264, 0.045780264491668686),
    (4, 1.0, 0.5),
    (5, 0.355, 0.14031624632366424),
    (6, 2.746, 0.18064723148359021),
    (7, 0.426, 0.38123373037046776),
    (8, 0.437, 0.2561961064245679),
    (10, 2.685, 0.2295727135149264),
    (11, 2.675, 0.4846254458618655),
])
def test_choose_eps0_pinned_values(n, theta, expected):
    # exact equality: the scan and the bisection are elementwise IEEE
    # operations, so a rewrite of either must not move a single bit
    assert choose_eps0(n, CapillaryAngle(theta)) == expected


def test_max_principle_coefficients_structure():
    rng = np.random.default_rng(6)
    for n in (2, 3, 4, 6):
        for _ in range(40):
            theta = CapillaryAngle(rng.uniform(np.arcsin(0.06),
                                               np.pi - np.arcsin(0.06)))
            b = rng.standard_normal(n)
            b /= np.linalg.norm(b)
            st = CoefficientState(n=n, theta=theta, u_n=2e3, b=tuple(b),
                                  eps0=0.5)
            co = max_principle_coefficients(st)
            # normal-tangent coefficient is positive at large gradient
            assert co.normal_tangent > 0.0
            # at most one tangential coefficient can be nonpositive, and only
            # the one carrying the largest squared component
            tt = co.tangent_tangent * st.v
            nonpos = np.flatnonzero(tt <= 0.0)
            assert nonpos.size <= 1
            if nonpos.size == 1:
                assert nonpos[0] == np.argmax(np.asarray(b[:-1]) ** 2)
            # paired bounds dominate the dimensional constant
            if co.paired_lower_bounds.size:
                assert np.all(co.paired_lower_bounds
                              >= co.range_lower_bound - 1e-12)


def test_max_principle_coefficients_log_correction_guard():
    b = np.array([0.6, 0.8])
    st_small = CoefficientState(n=2, theta=THETA, u_n=0.1, b=tuple(b), eps0=0.5)
    if st_small.v <= 1.0:
        with pytest.raises(DegenerateState):
            max_principle_coefficients(st_small, correction=1.0)
    st_big = CoefficientState(n=2, theta=THETA, u_n=50.0, b=tuple(b), eps0=0.5)
    co = max_principle_coefficients(st_big, correction=1.0)
    co0 = max_principle_coefficients(st_big, correction=0.0)
    assert co.normal_normal < co0.normal_normal
    assert co.normal_tangent < co0.normal_tangent


def test_conormal_residual_affine_and_free_boundary():
    grid = build_grid(2, 0.1, 1.0, 1.0)
    aff = affine_capillary_solution(THETA, (0.4,), 0.0)
    assert conormal_stationarity_residual(aff.on_grid(grid), THETA) <= 1e-12

    # theta = pi/2 reduces to the flat-wall reflection: residual is d1(v)
    theta90 = CapillaryAngle(np.pi / 2)
    even = field_from_callable(grid, lambda p: np.cos(p[:, 1]) * (1 + p[:, 0] ** 2))
    res = conormal_stationarity_residual(even, theta90)
    assert np.isfinite(res)


def test_nondivergence_residual_cases():
    grid = build_grid(2, 0.2, 1.0, 1.0)
    aff = affine_capillary_solution(THETA, (0.5,), -0.3)
    spec = ProblemSpec.from_boundary_data(grid, THETA, lambda p: aff(p))
    res = nondivergence_residual(aff.on_grid(grid), spec)
    assert np.max(np.abs(res)) <= 1e-12

    grid1 = build_grid(1, 0.5, 2.0)
    theta90 = CapillaryAngle(np.pi / 2)
    spec1 = ProblemSpec.from_boundary_data(grid1, theta90,
                                           lambda p: np.zeros(len(p)))
    u = field_from_callable(grid1, lambda p: p[:, 0] ** 2)
    res1 = nondivergence_residual(u, spec1)
    assert np.allclose(res1, 2.0, atol=1e-12)


def test_nondivergence_agrees_with_divergence_form():
    from capgraph import assemble_residual
    theta = THETA

    def smooth(pts):
        return 0.3 * np.sin(pts[:, 0]) * np.cos(0.5 * pts[:, 1])

    gaps = []
    for h in (0.1, 0.05):
        grid = build_grid(2, h, 1.0, 1.0)
        u = field_from_callable(grid, smooth)
        spec = ProblemSpec.from_boundary_data(grid, theta, smooth)
        nd = nondivergence_residual(u, spec)
        dv = assemble_residual(u, spec)
        free = grid.free_indices
        pos = np.searchsorted(free, grid.interior_indices)
        # scale: nondivergence form is W^3 times the divergence form
        g = np.stack([np.gradient(u.lattice(), h, axis=0, edge_order=2).ravel(),
                      np.gradient(u.lattice(), h, axis=1, edge_order=2).ravel()],
                     axis=1)
        w3 = (1.0 + np.sum(g * g, axis=1)) ** 1.5
        gaps.append(np.max(np.abs(nd - dv[pos] * w3[grid.interior_indices])))
    assert gaps[0] / gaps[1] >= 3.0


def test_height_scale_over_the_region_and_fallback():
    grid = build_grid(2, 0.25, 2.0, 2.0)
    u = field_from_callable(grid, lambda p: p[:, 0] - 3.0 * p[:, 1])
    region = EllipsoidRegion(1.0, THETA)
    inside = in_region(grid.nodes, region)
    assert 0 < np.count_nonzero(inside) < grid.n_nodes
    assert height_scale(u, region) == np.max(np.abs(u.values[inside])) + 1.0
    # no node inside: the sup runs over all nodes
    far = EllipsoidRegion(0.1, THETA, center=(50.0,))
    assert not np.any(in_region(grid.nodes, far))
    assert height_scale(u, far) == np.max(np.abs(u.values)) + 0.1
    # the auxiliary function's default M is the same scale
    params = CutoffParams(r=1.0, theta=THETA, dim=2)
    explicit = replace(params, m_scale=height_scale(u, params.outer_region()))
    assert np.array_equal(auxiliary_function(u, THETA, params).values,
                          auxiliary_function(u, THETA, explicit).values)
