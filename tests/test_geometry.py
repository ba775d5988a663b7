"""Grid construction, node classification, and ellipsoidal regions."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from capgraph import (BadDimension, CapillaryAngle, EllipsoidRegion,
                      EmptyRegion, NodeClass, NonconformingExtent, RegionKind,
                      build_grid, domain_for_radius, in_region,
                      inner_node_set)
from capgraph import geometry, solver
from capgraph.geometry import _distance_to_ellipsoid
from conftest import loose_bracket_distance


def test_build_grid_1d_counts_and_classes():
    grid = build_grid(1, 0.5, 2.0)
    assert grid.n_nodes == 5
    assert np.allclose(grid.nodes.ravel(), [0.0, 0.5, 1.0, 1.5, 2.0])
    assert grid.classes[0] == NodeClass.CAPILLARY_BOUNDARY
    assert grid.classes[-1] == NodeClass.DIRICHLET_BOUNDARY
    assert np.count_nonzero(grid.classes == NodeClass.INTERIOR) == 3


def test_grid_box_corners():
    lo, hi = build_grid(1, 0.5, 2.0).box
    assert lo.tolist() == [0.0] and hi.tolist() == [2.0]
    lo, hi = build_grid(2, 0.1, 0.7, 0.3).box
    assert lo.tolist() == [0.0, -0.3] and hi.tolist() == [0.7, 0.3]


def test_build_grid_2d_corner_rule():
    grid = build_grid(2, 1.0, 2.0, 2.0)
    assert grid.n_nodes == 15
    cap = grid.nodes[grid.capillary_indices]
    assert cap.shape[0] == 3
    assert np.all(cap[:, 0] == 0.0)
    assert np.all(np.abs(cap[:, 1]) < 2.0)
    # corners (0, +-2) are Dirichlet: Dirichlet wins
    for corner in ([0.0, 2.0], [0.0, -2.0]):
        k = np.flatnonzero(np.all(grid.nodes == corner, axis=1))[0]
        assert grid.classes[k] == NodeClass.DIRICHLET_BOUNDARY


def test_build_grid_node_count_formula():
    grid = build_grid(2, 0.25, 1.0, 1.5)
    assert grid.n_nodes == (int(1.0 / 0.25) + 1) * (2 * int(1.5 / 0.25) + 1)


def test_build_grid_nonconforming_and_bad_dim():
    with pytest.raises(NonconformingExtent):
        build_grid(2, 0.3, 1.0, 1.0)
    with pytest.raises(NonconformingExtent):
        build_grid(1, 0.5, 1.7)
    with pytest.raises(BadDimension):
        build_grid(3, 0.5, 1.0, 1.0)
    with pytest.raises(NonconformingExtent):
        build_grid(2, 0.5, 1.0)   # missing Lp


def test_a_lattice_too_large_for_the_indices_raises_before_any_array(monkeypatch):
    # 1e300 x 2e300 + 1 nodes at h = 1e-300: the count check runs on the
    # counts alone, or linspace would raise ValueError first
    with pytest.raises(NonconformingExtent, match="too many nodes"):
        build_grid(2, 1e-300, 1.0, 1.0)
    # an extent over h that overflows to inf has no count at all
    with pytest.raises(NonconformingExtent,
                       match="not a positive integer multiple of h=1e-300"):
        build_grid(1, 1e-300, 1e10)
    with pytest.raises(NonconformingExtent, match="L1=inf is not a positive"):
        domain_for_radius(1e308, CapillaryAngle(1.0), 1e-300, 2)
    # the bound: 2^dim parents per node of a 3 x 5 lattice fill 60 indices
    monkeypatch.setattr(geometry, "_MAX_INDEX", 60)
    assert build_grid(2, 0.5, 1.0, 1.0).n_nodes == 15
    monkeypatch.setattr(geometry, "_MAX_INDEX", 59)
    with pytest.raises(NonconformingExtent, match="too many nodes"):
        build_grid(2, 0.5, 1.0, 1.0)


def _no_linspace(*args, **kwargs):
    raise AssertionError("build_grid built an array")


def test_a_lattice_over_the_memory_budget_raises_before_any_array(monkeypatch):
    # the bound: a 3 x 5 lattice's slab and hierarchy fill the whole budget
    need = geometry._solve_bytes((3, 5))
    monkeypatch.setattr(geometry, "_MEMORY_BUDGET", need)
    assert build_grid(2, 0.5, 1.0, 1.0).n_nodes == 15
    monkeypatch.setattr(geometry, "_MEMORY_BUDGET", need - 1)
    monkeypatch.setattr(geometry.np, "linspace", _no_linspace)
    with pytest.raises(NonconformingExtent, match="over the .* GiB budget"):
        build_grid(2, 0.5, 1.0, 1.0)
    monkeypatch.undo()
    # at the real budget: the 58.6 million-node lattice of a solve at r = 4,
    # h = 1e-3 (a 15.3 GiB slab) goes, the 51,681-node ladder rung stays
    monkeypatch.setattr(geometry.np, "linspace", _no_linspace)
    with pytest.raises(NonconformingExtent, match="too many nodes"):
        domain_for_radius(4.0, CapillaryAngle(np.pi / 3), 1e-3, 2)
    assert geometry._solve_bytes((161, 321)) < geometry._MEMORY_BUDGET / 40


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_bytes_bound_the_slab_and_the_hierarchy(dim):
    # the slab exactly (solver._slab_lanes), the hierarchy's arrays from
    # above: the cell groups' maps are constants shared by every lattice
    for n1 in range(2, 30):
        for n2 in range(3, 24, 2) if dim == 2 else (None,):
            grid = build_grid(dim, 1.0, n1 - 1.0, None if n2 is None else (n2 - 1) / 2)
            held = sum(a.nbytes for level in grid.coarse
                       for a in level.prolongation[:3] + (level.plan,))
            held += sum(a.nbytes for level in grid.coarse
                        for cells, _, child in level.cells
                        for a in (cells, child) if isinstance(a, np.ndarray))
            slab = 8 * sum(solver._slab_lanes(grid.shape))
            assert slab + held <= geometry._solve_bytes(grid.shape) <= slab + 2 * held + 256


def test_classification_partitions_nodes():
    grid = build_grid(2, 0.2, 1.0, 0.8)
    counts = (grid.interior_indices.size + grid.capillary_indices.size
              + grid.dirichlet_indices.size)
    assert counts == grid.n_nodes


def test_in_region_center_true_for_every_angle():
    for theta_val in (0.3, np.pi / 3, np.pi / 2, 2.5):
        theta = CapillaryAngle(theta_val)
        for r in (0.5, 1.0, 7.0):
            region = EllipsoidRegion(r, theta, RegionKind.OUTER)
            center = np.array([abs(theta.cos_t) * r] + [0.0])
            assert in_region(center, region)


def test_in_region_inner_free_boundary_values():
    theta = CapillaryAngle(np.pi / 2)
    region = EllipsoidRegion(1.0, theta, RegionKind.INNER)
    assert in_region(np.array([0.4, 0.0]), region)        # 0.16 < 0.25
    assert not in_region(np.array([0.6, 0.0]), region)    # 0.36 > 0.25


def test_inner_node_set_1d_closure_tolerance():
    grid = build_grid(1, 0.5, 2.0)
    theta = CapillaryAngle(np.pi / 2)
    region = EllipsoidRegion(1.0, theta, RegionKind.OUTER)
    idx = inner_node_set(grid, region)
    # region is (0, 1); nodes 0.0, 0.5, 1.0 lie in it or within h/2 of it
    assert np.allclose(grid.nodes[idx].ravel(), [0.0, 0.5, 1.0])


def _shifted(grid, offset):
    """The grid with every node moved by `offset` along x2: a lattice off
    the origin, as a caller can build one."""
    return replace(grid, nodes=grid.nodes + (0.0, offset)) if offset else grid


def test_inner_node_set_empty_region():
    far = _shifted(build_grid(2, 0.5, 2.0, 2.0), 50.0)
    theta = CapillaryAngle(np.pi / 3)
    with pytest.raises(EmptyRegion):
        inner_node_set(far, EllipsoidRegion(0.5, theta, RegionKind.OUTER))


def test_inner_subset_of_outer_on_grid():
    grid = build_grid(2, 0.25, 2.0, 2.0)
    theta = CapillaryAngle(2.0)
    inner = set(inner_node_set(grid, EllipsoidRegion(1.5, theta, RegionKind.INNER)))
    outer = set(inner_node_set(grid, EllipsoidRegion(1.5, theta, RegionKind.OUTER)))
    assert inner <= outer


def test_region_inclusion_sampled():
    rng = np.random.default_rng(12)
    for theta_val, r in ((0.4, 0.7), (np.pi / 2, 2.0), (2.8, 5.0)):
        theta = CapillaryAngle(theta_val)
        pts = rng.uniform(-3.0 * r, 3.0 * r, (100_000, 2))
        pts[:, 0] = np.abs(pts[:, 0])
        inner = in_region(pts, EllipsoidRegion(r, theta, RegionKind.INNER))
        outer = in_region(pts, EllipsoidRegion(r, theta, RegionKind.OUTER))
        assert not np.any(inner & ~outer)


def test_regions_absorb_bounded_sets_as_r_grows():
    rng = np.random.default_rng(3)
    query = rng.uniform(0.01, 5.0, (200, 2))
    query[:, 1] -= 2.5
    for theta_val in (0.6, np.pi / 2, 2.6):
        theta = CapillaryAngle(theta_val)
        r = 1.0
        absorbed = False
        for _ in range(6):
            r *= 2.0
            inside = in_region(query, EllipsoidRegion(r, theta, RegionKind.INNER))
            if np.all(inside):
                absorbed = True
        assert absorbed


def test_grid_arrays_are_immutable():
    grid = build_grid(2, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        grid.nodes[0, 0] = 5.0
    with pytest.raises(ValueError):
        grid.classes[0] = 0


def _unfiltered_inner_node_set(grid, region):
    # the distance rule of inner_node_set with every exterior node bisected
    y = grid.nodes.copy()
    y[:, 0] -= region.axial_center
    axes = np.full(grid.dim, region.semiaxis)
    axes[1:] /= region.theta.sin_t
    dist = _distance_to_ellipsoid(y, axes)
    return np.flatnonzero(in_region(grid.nodes, region)
                          | (dist <= 0.5 * grid.h + 1e-12))


@pytest.mark.parametrize("dim", [1, 2])
def test_inner_node_set_prefilter_keeps_the_unfiltered_sets(dim):
    for h in (0.5, 0.2):
        for offset in (0.0, -0.7) if dim == 2 else (0.0,):
            grid = _shifted(build_grid(dim, h, 4.0, 4.0), offset)
            for r in (0.6, 1.5, 3.0):
                for theta_val in (0.5, np.pi / 2, 2.3):
                    theta = CapillaryAngle(theta_val)
                    for kind in RegionKind:
                        region = EllipsoidRegion(r, theta, kind)
                        assert np.array_equal(
                            inner_node_set(grid, region),
                            _unfiltered_inner_node_set(grid, region))


# a domain of radius r at mesh width h (r/h <= 40), holding a region of
# radius scale * r as the CLI's solves (r/2) and `report` (r) use it
@settings(max_examples=80)
@given(dim=st.sampled_from([1, 2]), theta_val=st.floats(0.3, 2.8),
       r=st.floats(0.5, 8.0), h=st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5]),
       scale=st.sampled_from([0.5, 1.0]), kind=st.sampled_from(list(RegionKind)),
       offset=st.none() | st.floats(-1.0, 1.0))
# the CLI's on-surface nodes: (0.5, +-3) has q == 1 exactly in the inner
# region of radius 4 at theta = pi/3
@example(dim=2, theta_val=np.pi / 3, r=4.0, h=0.25, scale=1.0,
         kind=RegionKind.INNER, offset=None)
@example(dim=2, theta_val=np.pi / 3, r=4.0, h=0.5, scale=1.0,
         kind=RegionKind.INNER, offset=None)
@example(dim=2, theta_val=np.pi / 3, r=8.0, h=0.25, scale=0.5,
         kind=RegionKind.INNER, offset=None)
# nodes at distance h/2, decided only by a bracket narrower than 1e-12
@example(dim=2, theta_val=np.pi / 3, r=1.0, h=0.05, scale=0.5,
         kind=RegionKind.INNER, offset=None)
def test_inner_node_set_equals_the_unfiltered_sets_on_radius_domains(
        dim, theta_val, r, h, scale, kind, offset):
    assume(h <= r <= 40.0 * h)
    theta = CapillaryAngle(theta_val)
    grid = domain_for_radius(r, theta, h, dim)
    if dim == 2 and offset is not None:
        grid = _shifted(grid, -offset)
    region = EllipsoidRegion(scale * r, theta, kind)
    assert np.array_equal(inner_node_set(grid, region),
                          _unfiltered_inner_node_set(grid, region))


@settings(max_examples=40)
@given(dim=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 16),
       reach=st.floats(1e-3, 0.5) | st.integers(0, 199))
def test_reach_decided_distances_bound_the_full_bisection(dim, seed, reach):
    rng = np.random.default_rng(seed)
    axes = rng.uniform(0.5, 3.0, dim)
    y = rng.uniform(-4.0, 4.0, (200, dim))
    full = _distance_to_ellipsoid(y, axes)
    if isinstance(reach, int):      # a point exactly at the reach
        reach = float(full[reach])
    got = _distance_to_ellipsoid(y, axes, reach)
    within = got <= reach
    assert np.array_equal(within, full <= reach)
    # the bracket end that decided a point bounds its distance
    assert np.all(np.where(within, got >= full, got <= full))


# the decide interval changes when a bracket is checked, never which nodes
# are within reach
@settings(max_examples=40)
@given(dim=st.sampled_from([1, 2]), theta_val=st.floats(0.3, 2.8),
       r=st.floats(0.5, 8.0), h=st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5]),
       scale=st.sampled_from([0.5, 1.0]), kind=st.sampled_from(list(RegionKind)))
@example(dim=2, theta_val=np.pi / 3, r=4.0, h=0.25, scale=1.0, kind=RegionKind.INNER)
def test_inner_node_set_does_not_depend_on_the_decide_interval(
        dim, theta_val, r, h, scale, kind):
    assume(h <= r <= 40.0 * h)
    theta = CapillaryAngle(theta_val)
    grid = domain_for_radius(r, theta, h, dim)
    region = EllipsoidRegion(scale * r, theta, kind)
    sets = []
    for every in (1, 4, 8):
        with mock.patch.object(geometry, "_DECIDE_EVERY", every):
            sets.append(inner_node_set(grid, region))
    assert all(np.array_equal(s, sets[0]) for s in sets[1:])


# semiaxis (steps + frac) h of a region on its radius domain; at theta =
# pi/2 and frac = 1/2 the ellipsoid is a half ball of that radius, and the
# nodes on the axes just past it lie h/2 from it, exactly where h is dyadic
@settings(max_examples=60)
@given(dim=st.sampled_from([1, 2]), h=st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5]),
       steps=st.integers(1, 24), frac=st.just(0.5) | st.floats(0.0, 1.0),
       theta_val=st.just(np.pi / 2) | st.floats(0.3, 2.8),
       kind=st.sampled_from(list(RegionKind)))
@example(dim=2, h=0.25, steps=4, frac=0.5, theta_val=np.pi / 2, kind=RegionKind.INNER)
@example(dim=2, h=0.5, steps=9, frac=0.5, theta_val=np.pi / 2, kind=RegionKind.OUTER)
@example(dim=2, h=0.05, steps=9, frac=0.5, theta_val=np.pi / 2, kind=RegionKind.OUTER)
@example(dim=1, h=0.5, steps=2, frac=0.5, theta_val=np.pi / 2, kind=RegionKind.OUTER)
def test_inner_node_set_is_the_set_of_the_loose_bracket(dim, h, steps, frac,
                                                        theta_val, kind):
    theta = CapillaryAngle(theta_val)
    rho = (steps + frac) * h
    r = rho if kind is RegionKind.OUTER else 2.0 * rho / (1.0 + abs(theta.cos_t))
    grid = domain_for_radius(max(r, h), theta, h, dim)
    region = EllipsoidRegion(r, theta, kind)
    got = inner_node_set(grid, region)
    with mock.patch.object(geometry, "_distance_to_ellipsoid", loose_bracket_distance):
        assert np.array_equal(got, inner_node_set(grid, region))
    if theta.cos_t == 0.0 and frac == 0.5 and h in (0.25, 0.5):
        # the node past the region on the x1 axis, exactly h/2 from it
        tie = np.flatnonzero(np.all(grid.nodes == (rho + 0.5 * h,) + (0.0,) * (dim - 1),
                                    axis=1))
        assert region.semiaxis == rho and tie.size == 1 and tie[0] in got
        assert not in_region(grid.nodes[tie[0]], region)


def _oracle_linear_interpolation(n, coarse):
    """(n, coarse.size) linear interpolation from the coarse nodes of a 1D
    lattice: a kept node copies its value, a dropped node takes the mean of
    its two neighbours."""
    col = np.full(n, -1)
    col[coarse] = np.arange(coarse.size)
    mid = np.flatnonzero(col < 0)
    rows = np.concatenate([coarse, mid, mid])
    cols = np.concatenate([np.arange(coarse.size), col[mid - 1], col[mid + 1]])
    vals = np.concatenate([np.ones(coarse.size), np.full(2 * mid.size, 0.5)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, coarse.size))


def _oracle_prolongations(grid):
    """The Kronecker-product hierarchy: full-lattice interpolation by
    sp.kron of the 1D factors, then restricted to the free rows and the
    coarse free columns by sparse fancy indexing; (kept-node shape, P) per
    coarsening."""
    shape = grid.shape
    free = (grid.classes != NodeClass.DIRICHLET_BOUNDARY).reshape(shape)
    out = []
    while min(shape) >= 3 and (not out or np.count_nonzero(free) > 32):
        factors, keep = [], []
        for n in shape:
            coarse = np.arange(0, n, 2)
            if (n - 1) % 2:
                coarse = np.append(coarse, n - 1)
            factors.append(_oracle_linear_interpolation(n, coarse))
            keep.append(coarse)
        coarse_free = free[np.ix_(*keep)]
        if not coarse_free.any():
            break
        p = factors[0]
        for f in factors[1:]:
            p = sp.kron(p, f, format="csr")
        p = p[np.flatnonzero(free)][:, np.flatnonzero(coarse_free)].tocsr()
        for arr in (p.data, p.indices, p.indptr):
            arr.flags.writeable = False
        out.append((coarse_free.shape, p))
        shape, free = coarse_free.shape, coarse_free
    return tuple(out)


def _assert_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.writeable == want.flags.writeable
    assert got.tobytes() == want.tobytes()


# m1 cells along x1 (m1 = 1 is a two-node axis), 2 * mp along x2
@settings(max_examples=60)
@given(dim=st.sampled_from([1, 2]), m1=st.integers(1, 48), mp=st.integers(1, 24))
@example(dim=2, m1=1, mp=1)
@example(dim=2, m1=1, mp=6)
@example(dim=2, m1=7, mp=3)
@example(dim=1, m1=1, mp=1)
@example(dim=1, m1=2, mp=1)
def test_closed_form_grid_caches_equal_the_sort_based_oracles(dim, m1, mp):
    grid = build_grid(dim, 1.0, float(m1), float(mp))
    oracle = _oracle_prolongations(grid)
    assert len(grid.coarse) == len(oracle)
    rng = np.random.default_rng(m1 * 100 + mp)
    for level, (shape, want) in zip(grid.coarse, oracle):
        assert level.shape == shape
        got = level.prolongation
        indptr, indices, data, n_cols = got
        assert (indptr.size - 1, n_cols) == want.shape
        for arr, name in zip(got, ("indptr", "indices", "data")):
            _assert_identical(arr, getattr(want, name))
        # no P^T is stored: the restriction through P's own arrays is
        # bitwise the CSR product of the oracle's P^T
        x = rng.standard_normal(want.shape[0])
        assert (solver._restrict(got, x).tobytes()
                == (want.T.tocsr() @ x).tobytes())


def _level_sizes(grid):
    return ([level.prolongation[0].size - 1 for level in grid.coarse]
            + [grid.coarse[-1].prolongation[3]])


def test_hierarchy_ends_at_the_first_level_of_at_most_32_free_nodes():
    # the mesh-ladder grids: 780, 3,160 and 12,720 free nodes down to 12
    for h in (0.05, 0.025, 0.0125):
        sizes = _level_sizes(build_grid(2, h, 1.0, 1.0))
        assert sizes[-1] <= 32
        assert all(size > 32 for size in sizes[:-1])
    # a grid that starts at or below the limit still coarsens once
    grid = build_grid(1, 0.25, 1.0)
    assert _level_sizes(grid) == [4, 2]
