"""Truncated half-space lattices and the angle-adapted ellipsoidal regions.

The computational domain is an axis-aligned box [0, L1] x [-Lp, Lp]^(dim-1)
discretized with uniform spacing h.  Nodes on the wall {x1 = 0} carry the
contact-angle boundary condition, the remaining box faces carry Dirichlet
data, and corners where the wall meets another face are assigned Dirichlet
(the node would otherwise be over-determined).  The free nodes of such a
lattice form a box (free_shape), and so do those of each level of its
multigrid hierarchy (HalfSpaceGrid.coarse): a coarse level is a lattice
shape (_coarse_shape) with the prolongation and the cell groups of its
coarsening, and builds no node coordinates or classes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cache, cached_property, reduce
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import BadDimension, EmptyRegion, NonconformingExtent

if TYPE_CHECKING:
    from .capillary import CapillaryAngle

_CONFORM_TOL = 1e-9
# the largest index of the int32 CSR arrays of _prolongation and
# _axis_interpolation; a node has at most 2^dim parents, so a lattice of up
# to _MAX_INDEX / 2^dim nodes fits
_MAX_INDEX = np.iinfo(np.int32).max
# the bytes that a solve on one lattice may hold in its scratch slab and its
# multigrid hierarchy (_solve_bytes): build_grid rejects a larger lattice
# before any array, whatever the host's memory, so the exit code of a run
# does not depend on the host; a 2D lattice of about 2.6 million cells fits
_MEMORY_BUDGET = 2 ** 30
# the multigrid hierarchy stops at a level of at most this many free nodes,
# which the linear solver factors and solves exactly
_COARSEST_SIZE = 32
# halvings between two bracket decisions of _distance_to_ellipsoid: with the
# tight bracket most bisected nodes of the CLI's inner sets are decided at
# the second check, which 4 reaches sooner than 8 (1, 2 and 3 check too often)
_DECIDE_EVERY = 4


class NodeClass(IntEnum):
    INTERIOR = 0
    CAPILLARY_BOUNDARY = 1
    DIRICHLET_BOUNDARY = 2


# the plain int: numpy compares arrays with it several times faster than
# with the enum member
_DIRICHLET = int(NodeClass.DIRICHLET_BOUNDARY)


class RegionKind(Enum):
    """Outer region uses semiaxis r, inner region (1 + |cos(theta)|)/2 * r."""

    OUTER = "outer"
    INNER = "inner"


def _conforming_count(extent: float, h: float, name: str) -> int:
    m = extent / h
    # an infinite or NaN extent over h has no node count (round raises)
    m_round = round(m) if math.isfinite(m) else 0
    if m_round < 1 or abs(m - m_round) > _CONFORM_TOL * max(1.0, m):
        raise NonconformingExtent(
            f"{name}={extent} is not a positive integer multiple of h={h}"
        )
    return int(m_round)


class Coarsening(NamedTuple):
    """One coarsening of the multigrid hierarchy (HalfSpaceGrid.coarse),
    with what the solver needs to assemble its level's operator from the
    level's cell blocks: one bincount through `plan` (_scatter_plan) gives
    the diagonals at `offsets` of a level of `size` free nodes or, where
    `offsets` is None, the level's dense matrix."""
    shape: tuple[int, ...]   # the coarse lattice
    prolongation: tuple      # P, see _prolongation
    cells: tuple             # the Galerkin cell groups, see _cell_restriction
    plan: np.ndarray         # the bin of each cell-block entry
    offsets: np.ndarray | None   # the DIA offsets; None on a dense level
    size: int                # the free nodes of the level


@dataclass(frozen=True, eq=False)
class HalfSpaceGrid:
    """Uniform lattice on [0, L1] x [-Lp, Lp]^(dim-1) with node classification.

    All arrays are read-only after construction; instances are safe to share.
    """

    dim: int
    h: float
    L1: float
    Lp: float | None
    shape: tuple[int, ...]
    nodes: np.ndarray          # (n_nodes, dim) coordinates
    classes: np.ndarray        # (n_nodes,) NodeClass values

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @cached_property
    def interior_indices(self) -> np.ndarray:
        return np.flatnonzero(self.classes == NodeClass.INTERIOR)

    @cached_property
    def capillary_indices(self) -> np.ndarray:
        return np.flatnonzero(self.classes == NodeClass.CAPILLARY_BOUNDARY)

    @cached_property
    def dirichlet_indices(self) -> np.ndarray:
        return np.flatnonzero(self.classes == _DIRICHLET)

    @cached_property
    def free_indices(self) -> np.ndarray:
        """Interior plus capillary nodes, the unknowns of a solve."""
        return np.flatnonzero(self.classes != _DIRICHLET)

    @cached_property
    def corner_rows(self) -> np.ndarray:
        """Flat node indices of the cell corners as a C-contiguous
        (k, n_cells) array: row j lists corner j of every cell (in 1D the
        rows left, right; in 2D c00, c10, c01, c11), so per-corner gathers
        are contiguous and the flattened array is the stacked corner index
        of a one-bincount scatter of (k, n_cells) cell values.  Corner j is
        offset by bit a of j along axis a (x1 fastest); cells are in lattice
        order."""
        strides = _strides(self.shape)
        low = reduce(np.add.outer, [np.arange(n - 1) * s
                                    for n, s in zip(self.shape, strides)])
        out = low.ravel() + (_corner_bits(self.dim) @ strides)[:, None]
        out.flags.writeable = False
        return out

    @cached_property
    def coarse(self) -> tuple[Coarsening, ...]:
        """The multigrid hierarchy below this grid, one Coarsening per level,
        finest first.  Each coarsening keeps every second lattice node along
        each axis, plus the last node of an axis with an odd cell count
        (_coarse_shape), so the box faces stay faces and a Dirichlet fine
        node has only Dirichlet coarse parents.  The hierarchy stops at the
        first level with at most _COARSEST_SIZE free nodes (after at least
        one coarsening), which the linear solver solves exactly and whose
        plan therefore targets its dense matrix (_scatter_plan), or earlier
        once an axis has fewer than three nodes or no free node would be
        left.
        """
        return tuple(Coarsening(coarse, _prolongation(fine), _cell_restriction(fine),
                                *_scatter_plan(coarse))
                     for fine, coarse in _coarsenings(self.shape))

    @cached_property
    def node_weights(self) -> np.ndarray:
        """Control-volume weight per node: h^dim * (adjacent cells) / 2^dim."""
        edges = [np.where(np.arange(n) % (n - 1) == 0, 1.0, 2.0) for n in self.shape]
        w = reduce(np.multiply.outer, edges).ravel() * (self.h / 2.0) ** self.dim
        w.flags.writeable = False
        return w

    @property
    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """Low and high box corners (0, -Lp, ...) and (L1, Lp, ...): the
        first and last node."""
        return self.nodes[0], self.nodes[-1]

    def reshape(self, values: np.ndarray) -> np.ndarray:
        """View flat nodal values on the (n1,) or (n1, n2) lattice."""
        return np.asarray(values).reshape(self.shape)


def _strides(shape) -> list[int]:
    """Flat-index strides of a C-ordered lattice of the given shape."""
    return [math.prod(shape[a + 1:]) for a in range(len(shape))]


@cache
def _corner_bits(dim: int) -> np.ndarray:
    """(2^dim, dim) bits of the cell corners (or children): entry j, a is
    bit a of j, the offset of corner j along axis a, so x1 is fastest."""
    out = (np.arange(2 ** dim)[:, None] >> np.arange(dim)) & 1
    out.flags.writeable = False
    return out


def free_shape(shape) -> tuple[int, ...]:
    """The box of free nodes of a lattice: x1 from the wall to one row
    before the far face, each side axis without its two end rows."""
    return (shape[0] - 1,) + tuple(n - 2 for n in shape[1:])


def _coarse_shape(shape) -> tuple[int, ...]:
    """The lattice of the nodes that a coarsening keeps along each axis:
    every second one, plus the last one when the cell count is odd."""
    return tuple(n // 2 + 1 for n in shape)


def _coarsenings(shape) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (fine, coarse) lattices of each coarsening of the multigrid
    hierarchy below a lattice, finest first (HalfSpaceGrid.coarse)."""
    out = []
    while min(shape) >= 3 and (not out
                               or math.prod(free_shape(shape)) > _COARSEST_SIZE):
        coarse = _coarse_shape(shape)
        if not math.prod(free_shape(coarse)):
            break
        out.append((shape, coarse))
        shape = coarse
    return out


def _solve_bytes(shape) -> int:
    """The bytes of a solve's scratch slab (solver._slab_lanes) plus an
    upper bound of those of the arrays of its lattice's multigrid
    hierarchy, from the lattice shape alone.  Per coarsening the hierarchy
    holds, per coarse cell, its 4^dim plan entries and at most 2^(dim+1)
    cell-group indices (8 bytes each), and per fine free node one int32
    indptr entry and at most 2^dim parents of P (an int32 index and a
    float64 weight)."""
    from .solver import _slab_lanes    # the solver imports this module
    dim = len(shape)
    total = 8 * sum(_slab_lanes(shape))
    for fine, coarse in _coarsenings(shape):
        total += (8 * (4 ** dim + 2 ** (dim + 1)) * math.prod(c - 1 for c in coarse)
                  + (4 + 12 * 2 ** dim) * math.prod(free_shape(fine)))
    return total


def _prolongation(shape) -> tuple:
    """P of the coarsening of a lattice as read-only CSR arrays (indptr,
    indices, data, n_cols); the solver restricts through them, so no P^T
    is stored.

    P interpolates (bi)linearly from the coarse to the fine free nodes:
    the tensor product of the per-axis interpolations restricted to the
    free boxes (Trottenberg, Oosterlee & Schueller, Multigrid, 2001), so a
    fine free node has up to 2^dim coarse free parents, with weights 1, 1/2
    or 1/4.
    """
    coarse = free_shape(_coarse_shape(shape))
    factors = [_axis_interpolation(n, n - 1 - m)
               for n, m in zip(shape, free_shape(shape))]
    # tensor product over the axes: candidate (a, b) of a fine node pairs
    # its candidate a along the axes so far with candidate b along the next
    # one; zero weights mark absent parents
    cols, weights = factors[0]
    for (fcols, fweights), m in zip(factors[1:], coarse[1:]):
        k = cols.shape[0] * fcols.shape[0]
        cols = (cols[:, None, :, None] * m + fcols[None, :, None, :]).reshape(k, -1)
        weights = (weights[:, None, :, None] * fweights[None, :, None, :]).reshape(k, -1)
    parent = (weights != 0.0).T
    indptr = np.concatenate(([0], np.cumsum(parent.sum(axis=1))))
    p = (indptr.astype(np.int32), cols.T[parent], weights.T[parent])
    for arr in p:
        arr.flags.writeable = False
    return p + (math.prod(coarse),)


def _cell_restriction(shape) -> tuple[tuple[slice | np.ndarray, np.ndarray,
                                            np.ndarray], ...]:
    """Groups (cells, maps, child) that form the Galerkin cell blocks of
    the coarsening of a lattice from the cell blocks B of the lattice.

    A coarse cell holds the fine cells 2 I + s along each axis, s = 0 or 1
    (bit a of the child index s along axis a, as for corners), and each
    child's corners interpolate from the coarse cell's corners by a
    constant map R_s, so the coarse block is sum_s R_s^T B_s R_s.  An odd
    cell count ends an axis in a coarse cell with the child s = 0 only.  A
    group gives coarse cells `cells`, the fine cells `child` of their
    present children (child slowest) and the constant `maps` of
    _child_maps: maps @ take(upper-triangle rows of B, child, axis=1),
    reshaped to (maps.shape[1], len(cells)), are their blocks.  The first
    group treats every coarse cell as regular (an absent child's index runs
    past its axis, into the next row, or past the end, where it is clipped
    to the last cell); each later group overwrites the end cells of one set
    of odd axes, larger sets last.
    """
    dim = len(shape)
    m = [n - 1 for n in shape]
    mc = [n - 1 for n in _coarse_shape(shape)]
    fine, coarse = _strides(m), _strides(mc)
    first = reduce(np.add.outer, [np.arange(n) * 2 * s for n, s in zip(mc, fine)])
    child = first.ravel() + (_corner_bits(dim) @ fine)[:, None]
    out = [(slice(None), _child_maps(dim, ())[1],
            np.minimum(child.ravel(), math.prod(m) - 1))]
    odd = [a for a in range(dim) if m[a] % 2]
    for size in range(1, len(odd) + 1):
        for ends in itertools.combinations(odd, size):
            cells = reduce(np.add.outer, [
                (np.array([n - 1]) if a in ends else np.arange(n)) * s
                for a, (n, s) in enumerate(zip(mc, coarse))]).ravel()
            present, maps = _child_maps(dim, ends)
            out.append((cells, maps, child[np.ix_(present, cells)].ravel()))
    for _, _, idx in out:
        idx.flags.writeable = False
    return tuple(out)


@cache
def _diagonal_map(dim: int) -> tuple[np.ndarray, tuple[tuple[tuple, tuple], ...]]:
    """The constant diagonal layout of the free-free operator of a lattice
    (the solver's _free_level, _scatter_plan): the (3^dim, dim) stencil
    deltas in lexicographic order, and per cell-block entry i*k + j, in
    ascending order, the index of its cells where both corners are free in
    the (k*k,) + cell-lattice blocks and of their column nodes in the
    (3^dim,) + free-lattice diagonals.

    Entry (i, j) couples corner i's node (the row) with corner j's node
    (the column), at delta b_j - b_i of the corner bits.  The free nodes
    span x1 in [0, n1 - 2] and a side axis in [1, n - 2], so both corners
    are free in the cells from 0 along x1 and from 1 - min(b_i, b_j) along
    a side axis, up to max(b_i, b_j) cells before the end; the column
    nodes are those cells shifted by b_j (and by -1 along a side axis, to
    free coordinates).  Slices counted from the end fit every lattice.
    """
    bits = _corner_bits(dim)
    deltas = np.array(list(itertools.product((-1, 0, 1), repeat=dim)))
    deltas.flags.writeable = False
    side = np.arange(dim) > 0
    plan = []
    for e, (bi, bj) in enumerate(itertools.product(bits, repeat=2)):
        lo, hi = np.minimum(bi, bj), np.maximum(bi, bj)
        start = side * (1 - lo)
        cells = tuple(slice(s, -m or None) for s, m in zip(start.tolist(), hi.tolist()))
        nodes = tuple(slice(s, -m or None) for s, m in zip((start + bj - side).tolist(),
                                                          (hi - bj).tolist()))
        row = int(np.ravel_multi_index(tuple(bj - bi + 1), (3,) * dim))
        plan.append(((e,) + cells, (row,) + nodes))
    return deltas, tuple(plan)


def _scatter_plan(shape) -> tuple[np.ndarray, np.ndarray | None, int]:
    """(plan, offsets, size) of the free-free operator of a coarse lattice:
    the bin of each entry of its (k*k, n_cells) cell blocks in C order, the
    offsets deltas @ free strides of its diagonals and its free nodes n.

    One bincount of the blocks through the plan adds every bin's entries
    from +0.0 in ascending entry order, the order of the solver's
    slice-adds (_free_level), so it gives their bits.  A level of more than
    _COARSEST_SIZE free nodes bins into its flat (3^dim, n) diagonals,
    data[d, j] = A[j - offsets[d], j]; a smaller one, the hierarchy's
    exactly solved last level, bins the entry of (d, j) straight into row
    j - offsets[d] of its dense (n, n) matrix and keeps no offsets (None).
    Two deltas that share an offset never meet in one row, so no dense
    entry gains more than the diagonals held.  An entry with a Dirichlet
    corner goes to the dump bin past the end (3^dim n, or n^2).
    """
    deltas, slices = _diagonal_map(len(shape))
    free = free_shape(shape)
    n = math.prod(free)
    offsets = deltas @ _strides(free)
    offsets.flags.writeable = False
    cols = np.arange(n)
    if n <= _COARSEST_SIZE:
        index, dump, offsets = (cols - offsets[:, None]) * n + cols, n * n, None
    else:
        index = np.arange(offsets.size * n)
        dump = index.size
    index = index.reshape((-1,) + free)
    plan = np.full((4 ** len(shape),) + tuple(m - 1 for m in shape), dump, dtype=np.intp)
    for cell, node in slices:
        plan[cell] = index[node]
    plan = plan.reshape(-1)
    plan.flags.writeable = False
    return plan, offsets, n


# per-axis interpolation of a child cell's two corner values (rows) from its
# coarse cell's two (columns), indexed [odd end][child bit]: the two children
# of a regular coarse cell meet at its midpoint, and the one child of an
# odd-end cell is the cell itself
_AXIS_CHILD_MAPS = np.array([[[[1.0, 0.0], [0.5, 0.5]], [[0.5, 0.5], [0.0, 1.0]]],
                             [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.0], [0.0, 0.0]]]])


@cache
def _upper_entries(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices i*k + j of the entries i <= j of a cell's k x k block,
    and of their mirrors j*k + i."""
    i, j = np.triu_indices(2 ** dim)
    return i * 2 ** dim + j, j * 2 ** dim + i


@cache
def _child_maps(dim: int, ends: tuple[int, ...]) -> tuple[list[int], np.ndarray]:
    """The children present in a coarse cell that is an odd-end cell along
    the axes `ends`, and their maps side by side for cell_restriction.

    Child s adds kron(R_s, R_s)^T B_s to the coarse block: column i*k + j
    of row I*k + J is R_s[i, I] R_s[j, J], with R_s the (k, k) interpolation
    of the child's corners (rows) from the coarse cell's corners (columns).
    Blocks are symmetric, so the columns of an entry and of its mirror are
    folded into one that acts on the upper-triangle entry alone; column
    e*n + s of the result is child s's column of upper-triangle entry e.
    """
    upper, mirror = _upper_entries(dim)
    present, maps = [], []
    for s, bits in enumerate(_corner_bits(dim)):
        if bits[list(ends)].any():
            continue
        r = reduce(np.kron, [_AXIS_CHILD_MAPS[int(a in ends), bits[a]]
                             for a in reversed(range(dim))])
        full = np.kron(r, r).T
        present.append(s)
        maps.append(full[:, upper] + np.where(upper != mirror, full[:, mirror], 0.0))
    # (n, kk, u) -> (kk, u, n) -> (kk, u * n): column e * n + s
    maps = np.ascontiguousarray(np.transpose(maps, (1, 2, 0))).reshape(len(maps[0]), -1)
    maps.flags.writeable = False
    return present, maps


def _axis_interpolation(n: int, first: int):
    """Linear interpolation along one lattice axis of n nodes, whose free
    nodes run from `first` to n - 2, from its coarsening (_coarse_shape),
    whose free nodes run from `first` to n // 2 - 1.

    Returns (cols, weights): (2, m) arrays over the m fine free nodes
    holding the coarse-free ranks of each node's two candidate parents and
    their weights.  An even node copies its coarse node (weights 1 and 0);
    an odd node lies midway between two kept ones and takes 1/2 from each
    free one.  A Dirichlet parent gets weight 0, and its rank is void.
    """
    i = np.arange(first, n - 1, dtype=np.int32)
    mid = i % 2
    hi = (i + 1) // 2
    lo = hi - mid
    weights = np.stack([np.where(mid, 0.5, 1.0) * (lo >= first),
                        np.where(mid, 0.5, 0.0) * (hi < n // 2)])
    return np.stack([lo, hi]) - first, weights


def build_grid(dim: int, h: float, L1: float, Lp: float | None = None) -> HalfSpaceGrid:
    """Build a classified half-space lattice.

    L1 and Lp must be positive integer multiples of h; Lp is required for
    dim == 2 and ignored for dim == 1.  A lattice whose multigrid indices
    would overflow int32 (_MAX_INDEX), or whose solve would hold more than
    _MEMORY_BUDGET bytes in its scratch slab and hierarchy (_solve_bytes),
    raises NonconformingExtent before any array is built.
    """
    if dim not in (1, 2):
        raise BadDimension(f"dim must be 1 or 2, got {dim}")
    if not (np.isfinite(h) and h > 0.0):
        raise NonconformingExtent(f"mesh width h must be positive, got {h}")
    if dim > 1 and Lp is None:
        raise NonconformingExtent("Lp is required for dim == 2")

    counts = [_conforming_count(L1, h, "L1") + 1]
    counts += [2 * _conforming_count(Lp, h, "Lp") + 1 for _ in range(dim - 1)]
    if 2 ** dim * math.prod(counts) > _MAX_INDEX:
        raise NonconformingExtent(
            f"L1={L1}, Lp={Lp} at h={h} give too many nodes for int32 indices")
    if (need := _solve_bytes(counts)) > _MEMORY_BUDGET:
        raise NonconformingExtent(
            f"L1={L1}, Lp={Lp} at h={h} give too many nodes: a solve would hold "
            f"{need / 2 ** 30:.3g} GiB, over the {_MEMORY_BUDGET / 2 ** 30:.3g} GiB budget")
    axes = [np.linspace(0.0, L1, counts[0])]
    axes += [np.linspace(-Lp, Lp, n) for n in counts[1:]]
    shape = tuple(a.size for a in axes)
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, dim)
    cls = np.full(shape, NodeClass.INTERIOR, dtype=np.int8)
    cls[0] = NodeClass.CAPILLARY_BOUNDARY
    # Dirichlet wins at corners where the wall meets another face.
    cls[-1] = NodeClass.DIRICHLET_BOUNDARY
    for axis in range(1, dim):
        side = np.moveaxis(cls, axis, 0)
        side[0] = side[-1] = NodeClass.DIRICHLET_BOUNDARY
    classes = cls.ravel()
    nodes.flags.writeable = False
    classes.flags.writeable = False
    return HalfSpaceGrid(dim=dim, h=h, L1=L1, Lp=Lp if dim > 1 else None,
                         shape=shape, nodes=nodes, classes=classes)


def _row_squares(a: np.ndarray) -> np.ndarray:
    """The squares of each row's components summed in order, in an array
    of its own (0-d for one vector): np.sum(a * a, axis=-1) bit for bit
    below 8 components, as every caller has, without the per-row cost of a
    reduction over a short last axis."""
    x = a[..., 0]
    out = np.multiply(x, x, out=np.empty(x.shape))
    for j in range(1, a.shape[-1]):
        out += a[..., j] * a[..., j]
    return out


@dataclass(frozen=True)
class EllipsoidRegion:
    """Angle-adapted ellipsoidal truncation of the half-space.

    Membership set: {x1 >= 0, (x1 - |cos(theta)| r)^2 + sin^2(theta) |x'|^2 < rho^2}
    with rho = r for OUTER and rho = (1 + |cos(theta)|) r / 2 for INNER.
    """

    r: float
    theta: "CapillaryAngle"
    kind: RegionKind = RegionKind.OUTER

    def __post_init__(self):
        if not (np.isfinite(self.r) and self.r > 0.0):
            raise ValueError(f"region radius must be positive, got {self.r}")

    @property
    def semiaxis(self) -> float:
        if self.kind is RegionKind.INNER:
            return 0.5 * (1.0 + abs(self.theta.cos_t)) * self.r
        return self.r

    @property
    def axial_center(self) -> float:
        return abs(self.theta.cos_t) * self.r

    def quadratic_value(self, points: np.ndarray) -> np.ndarray:
        """(x1 - |cos| r)^2 + sin^2 |x'|^2 for each point."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        val = np.subtract(pts[:, 0], self.axial_center)
        val *= val
        if pts.shape[1] > 1:
            tail = _row_squares(pts[:, 1:])
            tail *= self.theta.sin_t ** 2
            val += tail
        return val


def in_region(p, region: EllipsoidRegion) -> bool | np.ndarray:
    """Strict membership test; accepts one point or an (N, dim) batch.

    The wall {x1 = 0} counts as inside when the strict quadratic inequality
    holds, so the region is relatively open in the closed half-space.
    """
    pts = np.asarray(p, dtype=float)
    single = pts.ndim == 1
    pts2 = np.atleast_2d(pts)
    ok = (pts2[:, 0] >= 0.0) & (region.quadratic_value(pts2) < region.semiaxis ** 2)
    return bool(ok[0]) if single else ok


def _distance_to_ellipsoid(y: np.ndarray, axes: np.ndarray,
                           reach: float | None = None) -> np.ndarray:
    """Euclidean distance from exterior points y (centered coords) to the
    ellipsoid sum((y_i/axes_i)^2) = 1, by bisection on the projection
    parameter t, the root of phi(t) = sum((axes_i y_i / (t + axes_i^2))^2)
    = 1, until no bracket moves (at most 100 halvings).  Points inside get
    distance 0.

    Every term of phi(t*) = 1 is at most 1, so t* >= axes_i |y_i| - axes_i^2
    for each i, and phi(t) <= |axes y|^2 / (t + min axes^2)^2, so t* <= |axes
    y| - min axes^2.  A bracket starts at these bounds where the rounded phi
    confirms them, phi(lo) > 1 >= phi(hi); else at 0 below and, above, at a
    loose bound doubled until phi confirms it.  The distance at t, |y_i|
    t/(t + axes_i^2) per axis, grows with t, also in rounded arithmetic, so
    d(lo) <= d <= d(hi) for every confirmed bracket.  With a `reach`, a
    point stops bisecting once its bracket decides d <= reach (checked
    every _DECIDE_EVERY halvings, first at the start), and its entry is the
    bracket end's distance that decided it: `d <= reach` is then exact, the
    entry only a bound.
    """
    y = np.atleast_2d(y)
    a2 = axes ** 2
    inside = np.sum((y / axes) ** 2, axis=1) <= 1.0
    d = np.zeros(y.shape[0])
    live = np.flatnonzero(~inside)      # the points still bisected
    if live.size == 0:
        return d
    ye = y[live]

    def phi(ye, t):
        return np.sum((axes * ye / (t[:, None] + a2)) ** 2, axis=1)

    def dist(ye, t):
        return np.linalg.norm(ye - a2 * ye / (t[:, None] + a2), axis=1)

    ay = np.abs(ye) * axes
    lo = np.maximum(np.max(ay - a2, axis=1), 0.0)
    lo[phi(ye, lo) <= 1.0] = 0.0
    hi = np.linalg.norm(ay, axis=1) - np.min(a2)
    grow = phi(ye, hi) > 1.0
    if np.any(grow):
        hi[grow] = np.sqrt(y.shape[1]) * np.max(ay[grow], axis=1) + np.max(a2)
        for _ in range(64):
            grow[grow] = phi(ye[grow], hi[grow]) > 1.0
            if not np.any(grow):
                break
            hi[grow] *= 2.0
    for k in range(100):
        if reach is not None and k % _DECIDE_EVERY == 0:
            d_lo, d_hi = dist(ye, lo), dist(ye, hi)
            within, beyond = d_hi <= reach, d_lo > reach
            d[live[within]] = d_hi[within]
            d[live[beyond]] = d_lo[beyond]
            open_ = ~(within | beyond)
            live, ye, lo, hi = live[open_], ye[open_], lo[open_], hi[open_]
            if live.size == 0:
                return d
        mid = 0.5 * (lo + hi)
        high = phi(ye, mid) > 1.0
        new_lo = np.where(high, mid, lo)
        new_hi = np.where(high, hi, mid)
        # a step that moves no bracket end repeats forever: a fixed point
        if np.array_equal(new_lo, lo) and np.array_equal(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    d[live] = dist(ye, 0.5 * (lo + hi))
    return d


def inner_node_set(grid: HalfSpaceGrid, region: EllipsoidRegion) -> np.ndarray:
    """Sorted indices of grid nodes inside the region or within h/2 of its
    closure.  Raises EmptyRegion when no node qualifies."""
    pts = grid.nodes
    member = in_region(pts, region)
    rho = region.semiaxis
    # Centered, metric-scaled coordinates: ellipsoid semiaxes (rho, rho/sin).
    y = pts.copy()
    y[:, 0] -= region.axial_center
    axes = np.full(grid.dim, rho)
    axes[1:] = rho / region.theta.sin_t
    # Grid nodes have x1 >= 0, so the nearest ellipsoid point is feasible and
    # distance to the clipped closure equals distance to the full ellipsoid.
    # The ellipsoid E is convex, symmetric and contains the ball of radius
    # min(axes), so a point within reach of E lies in (1 + reach/min(axes)) E;
    # only those points are bisected (with a factor-2 rounding margin), the
    # rest stay at distance inf.  The bisection is independent per point.
    reach = 0.5 * grid.h + 1e-12
    near = (np.sum((y / axes) ** 2, axis=1)
            <= (1.0 + 2.0 * reach / np.min(axes)) ** 2)
    dist = np.full(grid.n_nodes, np.inf)
    dist[near] = _distance_to_ellipsoid(y[near], axes, reach)
    keep = member | (dist <= reach)
    idx = np.flatnonzero(keep)
    if idx.size == 0:
        raise EmptyRegion(
            f"no grid node inside or within h/2 of region r={region.r}, kind={region.kind}"
        )
    return idx
