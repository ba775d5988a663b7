"""Cut-offs, angle ranges, constants, coefficients."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from capgraph import (CapillaryAngle, CutoffParams,
                      DegenerateAngle, DegenerateState,
                      EllipsoidRegion, HypothesisViolation,
                      InvalidParameter, LinearBound, ProblemSpec, RegionKind,
                      ScalarField, ShapeMismatch, affine_capillary_solution,
                      angle_condition_holds, angle_condition_lower_bound,
                      angle_threshold, build_grid,
                      choose_eps0_array,
                      conormal_stationarity_residual, cutoff_derivative_check,
                      cutoff_profile, cutoff_weight, cutoff_weight_gradient,
                      field_from_callable, gradient_bound, height_scale,
                      in_region, one_sided_slope_limit)
from capgraph import estimates
from capgraph.estimates import _angle_ranges
from conftest import NoAdmissibleEps0, nondivergence_residual, scalar_choose_eps0

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


def _vstack_cutoff_check(params, samples, seed=0):
    """cutoff_derivative_check as it was written with a growing vstack of
    accepted candidates and the profile evaluated by each consumer: the
    oracle of the single-pass sampler and of the shared profile."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    r, th, dim = params.r, params.theta, params.dim
    c, s = abs(th.cos_t), th.sin_t

    def draw_inside(count, region):
        rho = region.semiaxis
        pts = np.empty((0, dim))
        while pts.shape[0] < count:
            cand = np.empty((2 * count, dim))
            cand[:, 0] = rng.uniform(max(0.0, c * r - rho), c * r + rho, 2 * count)
            cand[:, 1:] = rng.uniform(-rho / s, rho / s, (2 * count, dim - 1))
            pts = np.vstack([pts, cand[in_region(cand, region)]])
        return pts[:count]

    pts = draw_inside(samples, params.outer_region())
    psi = np.atleast_1d(cutoff_weight(pts, params))
    gnorm = np.linalg.norm(cutoff_weight_gradient(pts, params), axis=1)
    grad_violation = float(np.max(gnorm - 4.0 * np.sqrt(psi) / r))
    n_bdry = max(1, samples // 10)
    bpts = np.zeros((n_bdry, dim))
    while True:
        cand = rng.uniform(-r, r, (4 * n_bdry, dim - 1))
        keep = np.sum(cand ** 2, axis=1) < (0.999999 * r) ** 2
        if np.count_nonzero(keep) >= n_bdry:
            bpts[:, 1:] = cand[keep][:n_bdry]
            break
    bpsi = np.atleast_1d(cutoff_weight(bpts, params))
    bgrad = cutoff_weight_gradient(bpts, params)
    boundary_residual = float(np.max(np.abs(bgrad[:, 0] - 4.0 * np.sqrt(bpsi) * c / r)))
    ipts = draw_inside(samples, EllipsoidRegion(r, th, RegionKind.INNER))
    ipsi = np.atleast_1d(cutoff_weight(ipts, params))
    return (grad_violation, boundary_residual,
            float(np.min(ipsi)), (1.0 - (1.0 + c) ** 2 / 4.0) ** 2)


def test_single_pass_cutoff_sampler_matches_the_vstack_oracle():
    # a batch of 2 samples candidates can accept fewer than samples rows (at
    # samples 1-3 even none), so the rejection path draws several batches
    cases = [CutoffParams(r=1.0, theta=CapillaryAngle(0.3), dim=2),
             CutoffParams(r=2.5, theta=CapillaryAngle(np.pi / 2), dim=2),
             CutoffParams(r=0.7, theta=CapillaryAngle(2.9), dim=3)]
    for params in cases:
        for samples in (1, 2, 3):
            for seed in range(50):
                assert tuple(cutoff_derivative_check(params, samples, seed)) == \
                    _vstack_cutoff_check(params, samples, seed)
        for seed in range(3):
            assert tuple(cutoff_derivative_check(params, 2000, seed)) == \
                _vstack_cutoff_check(params, 2000, seed)


def test_cutoff_check_reads_the_library_weight_gradient(monkeypatch):
    # the interior samples take D psi from cutoff_weight_gradient itself, so
    # a wrong gradient there shows as a gradient violation
    params = CutoffParams(r=2.5, theta=THETA, dim=2)
    assert cutoff_derivative_check(params, 1000, seed=2).max_gradient_violation <= 0.0
    monkeypatch.setattr(estimates, "cutoff_weight_gradient",
                        lambda points, p: 3.0 * cutoff_weight_gradient(points, p))
    assert cutoff_derivative_check(params, 1000, seed=2).max_gradient_violation > 0.5


@pytest.mark.parametrize("samples", [0, -2, 2.5, "3", True, None, np.float64(4.0)])
def test_cutoff_check_rejects_a_sample_count_that_is_not_a_positive_integer(samples):
    with pytest.raises(InvalidParameter, match="samples"):
        cutoff_derivative_check(CutoffParams(r=1.0, theta=THETA, dim=2), samples)


def test_cutoff_check_accepts_a_numpy_integer_sample_count():
    params = CutoffParams(r=1.0, theta=THETA, dim=2)
    assert cutoff_derivative_check(params, np.int64(20), 1) == \
        cutoff_derivative_check(params, 20, 1)


def test_cutoff_params_validation():
    with pytest.raises(ValueError):
        CutoffParams(r=-1.0, theta=THETA)


@pytest.mark.parametrize("slope", [(np.nan, 0.0), (0.0, np.nan), (np.inf, 0.0),
                                   (-np.inf, np.nan)])
@pytest.mark.parametrize("theta", [THETA, CapillaryAngle(np.pi / 2)])
def test_a_non_finite_slope_violates_the_one_sided_hypothesis(slope, theta):
    # a NaN |DL| compares False with the limit either way round
    with pytest.raises(HypothesisViolation):
        LinearBound(slope).check_slope(theta)
    LinearBound((0.0, 0.0)).check_slope(theta)


@pytest.mark.parametrize("theta", [THETA, CapillaryAngle(np.pi / 2)])
def test_a_huge_finite_slope_violates_the_one_sided_hypothesis(theta):
    # |DL| of (1e200, 1e200) is finite, 1.41e200, and not a sum of squares
    # that overflows to a warning
    with pytest.raises(HypothesisViolation, match="1.414e"):
        LinearBound((1e200, 1e200)).check_slope(theta)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0])
def test_cutoff_params_reject_a_non_finite_or_nonpositive_scale(bad):
    with pytest.raises(ValueError, match="r must be positive"):
        CutoffParams(r=bad, theta=THETA)


@pytest.mark.parametrize("dim", [0, -1, 1.5, True])
def test_cutoff_params_reject_a_dimension_below_one(dim):
    with pytest.raises(InvalidParameter, match="dim must be an integer >= 1"):
        CutoffParams(r=1.0, theta=THETA, dim=dim)
    assert CutoffParams(r=1.0, theta=THETA, dim=1).dim == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_linear_bound_rejects_a_non_finite_offset_or_slope(bad):
    with pytest.raises(ValueError, match="offset must be finite"):
        LinearBound((0.0, 0.0), bad)
    # no slope limit admits a non-finite slope entry
    with pytest.raises(HypothesisViolation, match="slope entries must be finite"):
        LinearBound((0.0, bad))


@given(theta=st.floats(0.3, np.pi - 0.3), r=st.floats(0.5, 1.5))
def test_cutoff_weight_vanishes_off_the_closed_outer_region(theta, r):
    # off the closed outer region the profile is negative, and the weight
    # and its gradient, built from its positive part, are exactly zero
    angle = CapillaryAngle(theta)
    grid = build_grid(2, 0.25, 2.0, 2.0)
    params = CutoffParams(r=r, theta=angle, dim=2)
    inside = cutoff_profile(grid.nodes, params) >= 0.0
    assert np.all(cutoff_weight(grid.nodes[~inside], params) == 0.0)
    assert np.all(cutoff_weight_gradient(grid.nodes[~inside], params) == 0.0)


def test_angle_threshold_values():
    assert np.isclose(angle_threshold(4), 15.0 / 16.0, atol=1e-16)
    assert np.isclose(angle_threshold(5), 8.0 / 9.0, atol=1e-16)
    assert np.isclose(angle_threshold(6), 55.0 / 64.0, atol=1e-16)
    assert np.isclose(angle_threshold(7), 21.0 / 25.0, atol=1e-16)
    assert np.isclose(angle_threshold(8), 119.0 / 144.0, atol=1e-16)
    assert angle_threshold(2) == np.inf


def test_admissible_angle_range_cases():
    cos2 = np.cos(np.linspace(0.1, np.pi - 0.1, 17)) ** 2
    _, _, in_range = _angle_ranges([2, 3], cos2)
    assert in_range.shape == (2, 17) and np.all(in_range)
    thr, margin, in_range = _angle_ranges([4], CapillaryAngle(np.pi / 2).cos_t ** 2)
    assert in_range.item() and np.isclose(thr.item(), 0.9375)
    thr, margin, in_range = _angle_ranges([4], CapillaryAngle(np.arccos(0.97)).cos_t ** 2)
    assert not in_range.item()
    assert margin.item() < 0.0


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


def test_gradient_bound_of_an_array_is_the_elementwise_bound():
    m = np.array([[2.0, 2.5, 7.0, 40.0], [2.0, 3.25, 9.5, 11.0]])
    got = gradient_bound(m, 2.0, THETA, 0.3, 0.2, -0.01)
    assert got.shape == m.shape
    want = [[gradient_bound(x, 2.0, THETA, 0.3, 0.2, -0.01) for x in row]
            for row in m.tolist()]
    assert got == pytest.approx(np.array(want), rel=1e-15, abs=0.0)
    # one height below r, or one NaN, spoils the whole array
    for bad in ([2.0, 1.999], [2.0, np.nan], np.nan, [[3.0], [-1.0]]):
        with pytest.raises(ValueError, match="cannot be below r"):
            gradient_bound(bad, 2.0, THETA, 0.0, 0.0, 0.0)


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


def test_angle_condition_over_an_eps0_array():
    # an array of eps0 gives bitwise the scalar calls' values; a scalar eps0
    # keeps its own result type, as the sweep CSV's script_B cells rely on
    for n in (2, 3, 5, 8):
        # eps0 = 0 is allowed from n = 3 on
        eps = np.linspace(0.0 if n >= 3 else 0.03, 0.99, 34)
        for t in (0.3, np.pi / 2, 2.5):
            angle = CapillaryAngle(t)
            lb = angle_condition_lower_bound(n, angle, eps)
            assert lb.tobytes() == np.array(
                [angle_condition_lower_bound(n, angle, float(e)) for e in eps]).tobytes()
            assert angle_condition_holds(n, angle, eps).tolist() == \
                [angle_condition_holds(n, angle, float(e)) for e in eps]
    assert type(angle_condition_lower_bound(4, THETA, 0.5)) is float
    assert type(angle_condition_lower_bound(4, THETA, np.float64(0.5))) is np.float64
    assert type(angle_condition_holds(4, THETA, 0.5)) is bool
    assert angle_condition_lower_bound(4, THETA, [0.25, 0.5]).shape == (2,)


def test_angle_condition_over_an_angle_array():
    # an (m, 1) column of angles against an eps0 row gives bitwise the
    # per-angle scalar calls, the cosine snapped at pi/2 as CapillaryAngle
    # does; squaring goes through pow as for a float, which x * x would not
    # match for about one angle in a thousand, so 2,000 angles check it
    lo = np.arcsin(0.05) + 1e-9
    thetas = np.r_[np.random.default_rng(3).uniform(lo, np.pi - lo, 2000), np.pi / 2]
    for n in (2, 3, 5, 8):
        eps = np.linspace(0.0 if n >= 3 else 0.03, 0.99, 7)
        lb = angle_condition_lower_bound(n, thetas[:, None], eps)
        holds = angle_condition_holds(n, thetas[:, None], eps)
        assert lb.shape == holds.shape == (thetas.size, eps.size)
        angles = [CapillaryAngle(t) for t in thetas.tolist()]
        assert lb.tobytes() == np.array(
            [angle_condition_lower_bound(n, a, eps) for a in angles]).tobytes()
        assert holds.tolist() == [angle_condition_holds(n, a, eps).tolist()
                                  for a in angles]
    assert angle_condition_lower_bound(4, np.array([np.pi / 2]), 0.0)[0] == 1.875
    assert type(angle_condition_lower_bound(4, THETA, 0.5)) is float
    assert type(angle_condition_holds(4, THETA, 0.5)) is bool
    for bad in (np.array([0.5, 0.0]), np.array([np.pi]), np.array([np.nan])):
        with pytest.raises(DegenerateAngle):
            angle_condition_lower_bound(4, bad, 0.5)


def test_angle_condition_rejects_any_nonpositive_denominator():
    # n = 2 needs eps0 > 0; one bad entry rejects the whole array
    for fn in (angle_condition_lower_bound, angle_condition_holds):
        with pytest.raises(DegenerateState):
            fn(2, THETA, np.array([0.5, 0.0, 0.7]))
        with pytest.raises(DegenerateState):
            fn(2, THETA, 0.0)
        assert np.ndim(fn(2, THETA, np.array([0.5, 0.7]))) == 1


def test_choose_eps0_midpoint():
    # free-boundary n = 2: the admissible interval is (1/3, 1)
    (eps,), (flag,) = choose_eps0_array(2, CapillaryAngle(np.pi / 2))
    assert abs(eps - 2.0 / 3.0) <= 1e-9 and flag
    assert angle_condition_holds(2, CapillaryAngle(np.pi / 2), eps)
    # n = 4 inside the range: condition holds at the midpoint
    (eps4,), _ = choose_eps0_array(4, CapillaryAngle(1.2))
    assert angle_condition_holds(4, CapillaryAngle(1.2), eps4)
    # outside the range: NaN, and no end bisected
    (eps_out,), (flag_out,) = choose_eps0_array(4, CapillaryAngle(np.arccos(0.97)))
    assert np.isnan(eps_out) and not flag_out


@given(n=st.integers(2, 11),
       theta=st.floats(np.arcsin(0.05) + 1e-9, np.pi - np.arcsin(0.05) - 1e-9))
def test_splitting_condition_changes_sign_at_most_once(n, theta):
    # choose_eps0_array reads the positive part of its scan as a single run
    angle = CapillaryAngle(theta)
    holds = np.array([angle_condition_holds(n, angle, e)
                      for e in np.linspace(1e-6, 1.0 - 1e-6, 1001)])
    assert np.count_nonzero(np.diff(holds.astype(int))) <= 1
    (eps,), _ = choose_eps0_array(n, angle)
    assert np.isnan(eps) or angle_condition_holds(n, angle, eps)


_SWEEP_LO = float(np.arcsin(0.05) + 1e-9)


@given(n=st.integers(2, 12),
       thetas=st.lists(st.floats(_SWEEP_LO, np.pi - _SWEEP_LO), min_size=1,
                       max_size=40),
       tol=st.sampled_from([1e-12, 1e-6, 0.0]))
def test_eps0_array_core_matches_the_scalar_bisection(n, thetas, tol):
    # every entry of one masked bisection equals its own scalar bisection to
    # the bit; NaN marks exactly the angles without an admissible eps0, and
    # the flag exactly those where the scalar code bisected (a float64 there,
    # the float 0.5 where the whole scan is admissible)
    eps, bisected = choose_eps0_array(n, np.array(thetas), tol)
    assert eps.shape == bisected.shape == (len(thetas),)
    for t, e, flag in zip(thetas, eps.tolist(), bisected.tolist()):
        angle = CapillaryAngle(t)
        try:
            expected = scalar_choose_eps0(n, angle, tol)
        except NoAdmissibleEps0:
            assert np.isnan(e) and not flag
            continue
        assert e == expected and flag == (type(expected) is np.float64)


_EPS0_DIMS = (2, 3, 4, 8, 12, 100)
_ANGLE = st.floats(_SWEEP_LO, np.pi - _SWEEP_LO)


@given(dims=st.permutations(_EPS0_DIMS),
       thetas=st.one_of(
           st.just([]),
           st.lists(_ANGLE, min_size=1, max_size=1),
           st.lists(st.floats(np.pi / 2 - 1e-6, np.pi / 2 + 1e-6), min_size=1,
                    max_size=20),
           st.lists(st.floats(_SWEEP_LO, _SWEEP_LO + 1e-3)
                    | st.floats(np.pi - _SWEEP_LO - 1e-3, np.pi - _SWEEP_LO),
                    min_size=1, max_size=20),
           st.lists(_ANGLE, max_size=40)))
def test_eps0_over_a_column_of_dimensions_is_one_call_per_dimension(dims, thetas):
    # one masked bisection over every (n, theta) end gives each dimension's
    # row to the bit, NaN cells and flags included, in any order of the column
    thetas = np.array(thetas, dtype=float)
    eps, bisected = choose_eps0_array(np.array(dims)[:, None], thetas)
    assert eps.shape == bisected.shape == (len(dims), thetas.size)
    for n, row, flags in zip(dims, eps, bisected):
        one, one_flags = choose_eps0_array(n, thetas)
        assert row.tobytes() == one.tobytes()
        assert flags.tobytes() == one_flags.tobytes()


def test_eps0_column_keeps_its_exception_types():
    # below dimension 2 the array core raises nothing, row by row as one call
    # per dimension, and NaN marks where no eps0 is admissible; degenerate
    # angles raise DegenerateAngle
    thetas = np.array([1.0, np.pi / 2, 0.3])
    eps, bisected = choose_eps0_array(np.array([[1], [0], [-3]]), thetas)
    for n, row, flags in zip((1, 0, -3), eps, bisected):
        one, one_flags = choose_eps0_array(n, thetas)
        assert row.tobytes() == one.tobytes()
        assert flags.tobytes() == one_flags.tobytes()
    # the values the per-dimension core gave before the column existed
    assert np.all(np.isnan(eps[0])) and np.isnan(eps[1:, 2]).all()
    assert eps[1, 1] == eps[2, 0] == eps[2, 1] == 0.5
    assert bisected.tolist() == [[False] * 3, [True, False, False], [False] * 3]
    # one CapillaryAngle: NaN at n = 1 and 0.5 at n = 0, no end bisected
    eps1, flag1 = choose_eps0_array(1, CapillaryAngle(np.pi / 2))
    assert np.isnan(eps1[0]) and not flag1[0]
    eps0, flag0 = choose_eps0_array(0, CapillaryAngle(np.pi / 2))
    assert eps0[0] == 0.5 and not flag0[0]
    for bad in ([0.0, 1.0], [np.pi], [np.nan], [1.0, 4.0], [-1.0]):
        with pytest.raises(DegenerateAngle):
            choose_eps0_array(np.array([[2], [4]]), np.array(bad))
        with pytest.raises(DegenerateAngle):
            choose_eps0_array(4, np.array(bad))
    for shape in ((2,), (1, 2), (2, 1, 1)):
        with pytest.raises(ShapeMismatch):
            choose_eps0_array(np.full(shape, 4), thetas)


def test_choose_eps0_keeps_its_return_types():
    # the whole scan admissible: 0.5 with no end bisected; no eps0: NaN
    eps, bisected = choose_eps0_array(4, np.array([1.0, 1.2, np.arccos(0.97)]))
    assert eps[0] == 0.5 and np.isnan(eps[2])
    assert bisected.tolist() == [False, False, False]
    assert choose_eps0_array(4, np.array([]))[0].shape == (0,)


def test_splitting_scan_is_monotone_as_rounded():
    # choose_eps0_array counts the admissible samples by a binary search,
    # which is exact only while the scan values, as rounded, never turn:
    # non-decreasing in eps0 for n = 2, non-increasing for every other
    # integer n, the huge ones included
    scan = estimates._EPS0_SCAN
    huge = [-10 ** 6, -100, -10] + [10 ** k for k in range(4, 17)] + [2 ** 53]
    for n in [*range(-3, 4097), *huge]:
        steps = np.diff(estimates._splitting_lhs(n, scan))
        assert np.all(steps >= 0.0) if n == 2 else np.all(steps <= 0.0), n


def test_choose_eps0_rejects_non_integer_dimensions():
    # only an integer dimension has a monotone scan (n = 2.5 has none)
    for n in (2.5, np.array([[4], [2.5]]), np.array([[np.nan]]), np.inf):
        with pytest.raises(InvalidParameter, match="dimensions must be integers"):
            choose_eps0_array(n, np.array([1.0]))
    for n in (4.0, np.int64(4), np.array([[4.0]])):
        assert (choose_eps0_array(n, np.array([1.0, 1.2]))[0].tobytes()
                == choose_eps0_array(np.array([[4]]), np.array([1.0, 1.2]))[0].tobytes())


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
    (eps,), (bisected,) = choose_eps0_array(n, CapillaryAngle(theta))
    assert eps == expected and bisected == (expected != 0.5)


def test_conormal_residual_affine_and_free_boundary():
    grid = build_grid(2, 0.1, 1.0, 1.0)
    aff = affine_capillary_solution(THETA, (0.4,), 0.0)
    assert conormal_stationarity_residual(aff.on_grid(grid), THETA) <= 1e-12

    # theta = pi/2 reduces to the flat-wall reflection: residual is d1(v)
    theta90 = CapillaryAngle(np.pi / 2)
    even = field_from_callable(grid, lambda p: np.cos(p[:, 1]) * (1 + p[:, 0] ** 2))
    res = conormal_stationarity_residual(even, theta90)
    assert np.isfinite(res)


def test_1d_conormal_residual_vanishes_on_the_affine_solution():
    grid = build_grid(1, 0.1, 2.0)
    for theta in (THETA, CapillaryAngle(2.0)):
        u = affine_capillary_solution(theta, (), -0.5).on_grid(grid)
        assert conormal_stationarity_residual(u, theta) <= 1e-12
        assert conormal_stationarity_residual(u, theta, corner_margin=0.2) <= 1e-12


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
    # no node inside (the grid shifted off the origin): the sup runs over
    # all nodes
    far = ScalarField(replace(grid, nodes=grid.nodes + (0.0, 50.0)), u.values)
    small = EllipsoidRegion(0.1, THETA)
    assert not np.any(in_region(far.grid.nodes, small))
    assert height_scale(far, small) == np.max(np.abs(u.values)) + 0.1
