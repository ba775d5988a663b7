"""Pointwise capillary algebra, energy, and the affine oracle family."""

import numpy as np
import pytest

from capgraph import (CapillaryAngle, DegenerateAngle, ScalarField, ZeroVector,
                      affine_capillary_solution, area_element, boundary_frame,
                      build_grid, calibration_value, capillary_area_element,
                      capillary_boundary_residual, capillary_energy,
                      capillary_gauge, conormal, discrete_gradient,
                      edge_differences, field_from_callable,
                      ghost_closure, unit_normal)


def test_angle_validation_and_cached_trig():
    theta = CapillaryAngle(np.pi / 3)
    assert np.isclose(theta.cot_t * theta.sin_t, theta.cos_t, atol=1e-15)
    with pytest.raises(DegenerateAngle):
        CapillaryAngle(0.01)
    with pytest.raises(DegenerateAngle):
        CapillaryAngle(np.pi - 0.001)
    # configurable floor
    CapillaryAngle(0.02, sin_min=0.01)


def test_angle_whose_cosine_rounds_to_one_is_degenerate():
    # sin(theta) clears a tiny floor, but cos^2(theta) == 1 in floating point
    for theta_val in (1e-9, np.pi - 1e-9):
        with pytest.raises(DegenerateAngle, match="rounds to"):
            CapillaryAngle(theta_val, sin_min=1e-12)
    assert CapillaryAngle(1e-7, sin_min=1e-12).cos_t ** 2 < 1.0


def test_area_element_values():
    assert area_element(np.zeros(2)) == 1.0
    assert np.isclose(area_element(np.array([3.0, 4.0])), np.sqrt(26.0), atol=1e-15)
    theta = CapillaryAngle(np.pi / 4)
    assert np.isclose(area_element(np.array([-theta.cot_t, 0.0])), np.sqrt(2.0),
                      atol=1e-15)


def test_capillary_gauge_values_and_zero_vector():
    theta = CapillaryAngle(1.1)
    assert np.isclose(capillary_gauge(np.array([0.0, 0.0, 1.0]), theta), 1.0)
    assert np.isclose(capillary_gauge(np.array([1.0, 0.0, 0.0]), theta),
                      1.0 - theta.cos_t)
    with pytest.raises(ZeroVector):
        capillary_gauge(np.zeros(3), theta)


def test_gauge_energy_identity_random():
    rng = np.random.default_rng(0)
    grads = rng.uniform(-10.0, 10.0, (5000, 2))
    for theta_val in (0.3, np.pi / 2, 2.0):
        theta = CapillaryAngle(theta_val)
        w = area_element(grads)
        nu = unit_normal(grads)
        v = capillary_area_element(grads, theta)
        assert np.max(np.abs(capillary_gauge(nu, theta) * w - v)) <= 1e-12


def test_capillary_area_element_values():
    theta = CapillaryAngle(np.pi / 2)
    assert np.isclose(capillary_area_element(np.array([3.0, 4.0]), theta),
                      np.sqrt(26.0), atol=1e-15)
    theta = CapillaryAngle(1.9)
    v_eq = capillary_area_element(np.array([-theta.cot_t, 0.0]), theta)
    assert np.isclose(v_eq, theta.sin_t, atol=1e-15)
    theta = CapillaryAngle(np.pi / 3)
    assert np.isclose(capillary_area_element(np.zeros(2), theta), 1.0)


def test_v_lower_bound_and_equality_localization():
    rng = np.random.default_rng(42)
    n = 200_000
    thetas = rng.uniform(np.arcsin(0.06), np.pi - np.arcsin(0.06), n)
    grads = rng.uniform(-20.0, 20.0, (n, 2))
    v = np.sqrt(1.0 + np.sum(grads ** 2, axis=1)) + np.cos(thetas) * grads[:, 0]
    margin = v - np.sin(thetas)
    assert np.min(margin) >= -1e-12
    near = margin < 1e-9
    if np.any(near):
        mins = np.stack([-np.cos(thetas[near]) / np.sin(thetas[near]),
                         np.zeros(np.count_nonzero(near))], axis=1)
        assert np.all(np.linalg.norm(grads[near] - mins, axis=1) < 1e-4)
    # constructed near-equality: tiny perturbations of the minimizer do give
    # near-equality, and moderate ones do not
    theta = CapillaryAngle(0.9)
    g_star = np.array([-theta.cot_t, 0.0])
    for delta, should_be_near in ((1e-6, True), (0.3, False)):
        g = g_star + delta * np.array([0.6, 0.8])
        gap = capillary_area_element(g, theta) - theta.sin_t
        assert (gap < 1e-9) == should_be_near


def test_unit_normal_values():
    assert np.allclose(unit_normal(np.zeros(2)), [0.0, 0.0, 1.0], atol=1e-15)
    theta = CapillaryAngle(2.2)
    nu = unit_normal(np.array([-theta.cot_t, 0.0]))
    assert np.isclose(nu[0], theta.cos_t, atol=1e-14)
    rng = np.random.default_rng(1)
    g = rng.standard_normal((1000, 2)) * 5.0
    assert np.max(np.abs(np.linalg.norm(unit_normal(g), axis=1) - 1.0)) <= 1e-12


def test_conormal_sign_convention_and_frame():
    # zero gradient: outward in-plane direction
    assert np.allclose(conormal(np.zeros(2)), [-1.0, 0.0, 0.0], atol=1e-15)
    for theta_val in (0.7, 2.4):
        theta = CapillaryAngle(theta_val)
        rng = np.random.default_rng(7)
        bar = rng.uniform(-3.0, 3.0, 500)
        g1 = -theta.cot_t * np.sqrt(1.0 + bar ** 2)   # capillary-consistent
        g = np.stack([g1, bar], axis=1)
        mu = conormal(g)
        assert np.max(np.abs(mu[:, 0] + theta.sin_t)) <= 1e-12
        nu = unit_normal(g)
        assert np.max(np.abs(np.sum(mu * nu, axis=1))) <= 1e-12
        assert np.max(np.abs(np.linalg.norm(mu, axis=1) - 1.0)) <= 1e-12


def test_boundary_frame_invariants():
    theta = CapillaryAngle(np.pi / 3)
    grid = build_grid(2, 0.25, 1.0, 1.0)
    aff = affine_capillary_solution(theta, (0.4,), -0.2)
    grad = discrete_gradient(aff.on_grid(grid), theta)
    frame = boundary_frame(grad, theta)
    assert frame.node_indices.size == grid.capillary_indices.size
    assert np.max(np.abs(np.linalg.norm(frame.nu, axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(frame.mu, axis=1) - 1.0)) <= 1e-12
    assert np.max(np.abs(np.sum(frame.nu * frame.mu, axis=1))) <= 1e-12
    assert np.all(frame.v >= theta.sin_t - 1e-12)


def test_capillary_energy_constant_and_affine():
    grid = build_grid(2, 0.1, 2.0, 2.0)
    domain_area = 2.0 * 4.0
    theta = CapillaryAngle(np.pi / 2)
    const = ScalarField(grid, np.full(grid.n_nodes, 1.3))
    assert np.isclose(capillary_energy(const, theta), domain_area, atol=1e-12)

    theta = CapillaryAngle(np.pi / 3)
    aff = affine_capillary_solution(theta, (0.0,), 0.1)   # Du = (-cot, 0)
    energy = capillary_energy(aff.on_grid(grid), theta)
    assert abs(energy - theta.sin_t * domain_area) <= 1e-12 * domain_area
    # nonzero tangential slope scales v by sqrt(1 + |b'|^2)
    aff = affine_capillary_solution(theta, (0.7,), 0.1)
    energy = capillary_energy(aff.on_grid(grid), theta)
    expected = theta.sin_t * np.sqrt(1.49) * domain_area
    assert abs(energy - expected) <= 1e-12 * domain_area


def test_capillary_energy_lower_bound_and_additivity():
    grid = build_grid(2, 0.2, 1.0, 1.0)
    theta = CapillaryAngle(1.2)
    domain_area = 1.0 * 2.0
    rng = np.random.default_rng(5)
    u = ScalarField(grid, rng.standard_normal(grid.n_nodes))
    total = capillary_energy(u, theta)
    assert total >= theta.sin_t * domain_area - 1e-12
    n_cells = grid.cell_corners.shape[0]
    split = n_cells // 3
    part = (capillary_energy(u, theta, cells=np.arange(split))
            + capillary_energy(u, theta, cells=np.arange(split, n_cells)))
    assert abs(total - part) <= 1e-12 * max(1.0, abs(total))


def test_capillary_boundary_residual_cases():
    grid = build_grid(2, 0.1, 1.0, 1.0)
    theta = CapillaryAngle(2.0)
    aff = affine_capillary_solution(theta, (-0.3,), 0.6)
    res = capillary_boundary_residual(aff.on_grid(grid), theta)
    assert np.max(np.abs(res)) <= 1e-12

    zero = ScalarField(grid, np.zeros(grid.n_nodes))
    res0 = capillary_boundary_residual(zero, theta)
    assert np.allclose(res0, theta.cos_t, atol=1e-14)
    res90 = capillary_boundary_residual(zero, CapillaryAngle(np.pi / 2))
    assert np.max(np.abs(res90)) <= 1e-15


def test_affine_capillary_solution_slopes():
    theta = CapillaryAngle(np.pi / 4)
    aff = affine_capillary_solution(theta, (), 0.0)
    x = np.array([[0.7], [1.9]])
    assert np.allclose(aff(x), -x.ravel(), atol=1e-15)

    theta = CapillaryAngle(2.0 * np.pi / 3.0)
    aff = affine_capillary_solution(theta, (0.0,), 0.0)
    assert np.isclose(aff.slope[0], 1.0 / np.sqrt(3.0), atol=1e-15)

    # b' = 0 reduces to the symmetric solution -cot(theta) x1 + c
    theta = CapillaryAngle(0.8)
    aff = affine_capillary_solution(theta, (0.0,), 2.5)
    pts = np.array([[0.3, -1.0], [1.2, 0.4]])
    assert np.allclose(aff(pts), -theta.cot_t * pts[:, 0] + 2.5, atol=1e-14)


def test_affine_solution_satisfies_boundary_condition_by_substitution():
    rng = np.random.default_rng(9)
    for _ in range(20):
        theta = CapillaryAngle(rng.uniform(0.2, np.pi - 0.2))
        bp = rng.uniform(-2.0, 2.0)
        slope = affine_capillary_solution(theta, (bp,), 0.0).slope
        w = np.sqrt(1.0 + slope @ slope)
        assert abs(slope[0] + theta.cos_t * w) <= 1e-12 * w


def test_calibration_equality_and_inequality():
    theta = CapillaryAngle(0.9)
    g = np.array([0.8, -0.4])
    nu = unit_normal(g)
    val = calibration_value(g, nu, theta)
    assert np.isclose(val, capillary_gauge(nu, theta), atol=1e-14)

    assert np.isclose(calibration_value(np.zeros(2), np.array([1.0, 0.0, 0.0]),
                                        theta), -theta.cos_t, atol=1e-15)

    rng = np.random.default_rng(11)
    g = rng.uniform(-5.0, 5.0, (10_000, 2))
    planes = rng.standard_normal((10_000, 3))
    planes /= np.linalg.norm(planes, axis=1)[:, None]
    gap = capillary_gauge(planes, theta) - calibration_value(g, planes, theta)
    assert np.min(gap) >= -1e-12


def test_field_from_callable_and_validation():
    grid = build_grid(1, 0.25, 1.0)
    u = field_from_callable(grid, lambda p: p[:, 0] ** 2)
    assert np.isclose(u.values[2], 0.25)
    with pytest.raises(ValueError):
        ScalarField(grid, np.full(grid.n_nodes, np.nan))


def quadrant_gradients(grid, values):
    """Per-cell corner gradients from one-sided edge differences, shaped
    (n_cells, q, dim): q = 1 in 1D (the cell difference), q = 4 in 2D (one
    gradient per cell corner, built from the two edge differences meeting
    there).  The oracle of the quadrature behind the energy and residual."""
    d = edge_differences(grid, values)
    if grid.dim == 1:
        return d.T[:, :, None]
    out = np.empty((d.shape[1], 4, 2))
    for q in range(4):
        out[:, q, 0] = d[q // 2]
        out[:, q, 1] = d[2 + q % 2]
    return out


def _quadrant_energy(u, theta, cells=None):
    # the cell quadrature written on quadrant_gradients
    g = quadrant_gradients(u.grid, u.values)
    if cells is not None:
        g = g[cells]
    v = capillary_area_element(g, theta)
    return float(u.grid.h ** u.grid.dim * np.sum(np.mean(v, axis=1)))


@pytest.mark.parametrize("args", [(1, 0.1, 2.0), (2, 0.25, 2.0, 1.0),
                                  (2, 0.05, 1.0, 1.0)])
def test_capillary_energy_is_bitwise_the_quadrant_formula(args):
    grid = build_grid(*args)
    rng = np.random.default_rng(14)
    n_cells = grid.cell_corners.shape[0]
    for theta_val in (0.4, np.pi / 2, 2.5):
        theta = CapillaryAngle(theta_val)
        for amp in (0.1, 3.0):
            u = ScalarField(grid, amp * rng.standard_normal(grid.n_nodes))
            cells = rng.choice(n_cells, n_cells // 3, replace=False)
            assert repr(capillary_energy(u, theta)) == repr(_quadrant_energy(u, theta))
            assert (repr(capillary_energy(u, theta, cells=cells))
                    == repr(_quadrant_energy(u, theta, cells)))


def test_quadrant_gradients_pair_the_edge_differences():
    grid = build_grid(2, 0.25, 1.0, 0.5)
    vals = np.random.default_rng(15).standard_normal(grid.n_nodes)
    d = edge_differences(grid, vals)
    g = quadrant_gradients(grid, vals)
    c = grid.cell_corners
    assert np.array_equal(d[0], (vals[c[:, 1]] - vals[c[:, 0]]) / grid.h)
    for q, (i, j) in enumerate(((0, 2), (0, 3), (1, 2), (1, 3))):
        assert np.array_equal(g[:, q, 0], d[i])
        assert np.array_equal(g[:, q, 1], d[j])


def test_ghost_closure_batch_is_bitwise_the_row_calls():
    rng = np.random.default_rng(16)
    for theta_val in (0.3, np.pi / 2, 2.0):
        theta = CapillaryAngle(theta_val)
        for width in (0, 1, 2):
            s = rng.uniform(-4.0, 4.0, (7, width))
            batch = ghost_closure(s, theta)
            assert batch.shape == (7,)
            rows = [ghost_closure(row, theta) for row in s]
            assert all(isinstance(x, float) for x in rows)
            assert batch.tobytes() == np.array(rows).tobytes()
            # the affine family's wall slope is the same closure
            aff = affine_capillary_solution(theta, s[0], 0.0)
            assert aff.slope[0] == rows[0]


@pytest.mark.parametrize("args", [(1, 0.1, 1.0), (2, 0.25, 1.0, 1.0)])
def test_discrete_gradient_wall_rows_are_the_ghost_closure(args):
    grid = build_grid(*args)
    cap = grid.capillary_indices
    rng = np.random.default_rng(17)
    for theta_val in (0.5, np.pi / 2, 2.4):
        theta = CapillaryAngle(theta_val)
        u = ScalarField(grid, rng.standard_normal(grid.n_nodes))
        g = discrete_gradient(u, theta).vectors
        assert g[cap, 0].tobytes() == ghost_closure(g[cap, 1:], theta).tobytes()
        # the closed rows meet the contact-angle condition u_1 + cos(theta) W = 0
        w = area_element(g[cap])
        assert np.max(np.abs(g[cap, 0] + theta.cos_t * w)) <= 1e-12 * np.max(w)
