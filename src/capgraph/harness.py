"""Experiment runner: config parsing, data families, experiments, CSV output.

Scenarios reproduce the structure of the flatness and gradient-bound
statements at desk scale: truncated solves over growing ellipsoidal regions
with controlled Dirichlet families, trend assertions instead of limits, and
property audits of the closed-form apparatus.  All randomness flows through
a counter-based Philox generator keyed by the config seed (one spawned child
per level), so identical configs produce bitwise-identical CSV files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .capillary import (AffineCapillarySolution, CapillaryAngle, ScalarField,
                        affine_capillary_solution, area_element,
                        calibration_value, capillary_area_element,
                        capillary_energies, capillary_gauge, conormal,
                        unit_normal)
from .errors import (BadConfig, BadDimension, HypothesisViolation,
                     InvalidParameter, UnresolvedRegion, require_count)
from .estimates import (_angle_ranges, _cos_squared,
                        angle_condition_holds, angle_condition_lower_bound,
                        choose_eps0_array, conormal_stationarity_residual,
                        cutoff_derivative_check, CutoffParams, gradient_bound,
                        height_scale, LinearBound, one_sided_slope_limit)
from .geometry import (EllipsoidRegion, HalfSpaceGrid, RegionKind, _corner_bits,
                       _strides, build_grid, in_region, inner_node_set)
from .solver import ProblemSpec, SolveStatus, SolverConfig, newton_solve

SCENARIOS = (
    "affine-recovery",
    "liouville-linear-growth",
    "liouville-one-sided",
    "gradient-bound-sweep",
    "minimizer-test",
    "conormal-check",
)

# the minimizer test compares energies near roundoff, so it solves tighter
MINIMIZER_SOLVER = SolverConfig(tol_residual=1e-12)
MINIMIZER_EPSILONS = (1e-1, 1e-2, 1e-3)
# trials per batched energy evaluation of the minimizer test: its
# 3 * _MINIMIZER_CHUNK competitors keep the transient near 1 MB on CLI grids,
# where one batch of every trial would cost ten times that
_MINIMIZER_CHUNK = 10
# members of the gradient-bound sweep's boundary-data family per mesh level
_FAMILY_SIZE = 6
# points per chunk of the audit's v >= sin(theta) check: about 1.9 MB in
# flight, whatever n_gradients; 2^16 doubled that and took an audit process's
# peak RSS from 42 to 46 MB (BENCH_audit_threads.json)
_AUDIT_CHUNK = 2 ** 15


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    dim: int = 2
    theta_rad: float = math.pi / 3.0
    r_levels: tuple[float, ...] = (4.0, 8.0, 16.0)
    h_levels: tuple[float, ...] = (0.5, 0.5, 0.5)
    c0: float = 2.0
    perturb_amp: float = 0.1
    perturb_decay: float = 1.0
    L_slope: tuple[float, ...] = ()
    L_offset: float = 0.0
    seed: int = 0
    out_csv: str | None = None
    sin_min: float = 0.05

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise BadConfig(f"unknown scenario '{self.scenario}'")
        if self.dim not in (1, 2):
            raise BadDimension(f"dim must be 1 or 2, got {self.dim}")
        for f in sorted(fields(self), key=lambda f: f.name):
            val = getattr(self, f.name)
            if f.type in ("float", _FLOAT_LIST) and not np.all(np.isfinite(val)):
                raise BadConfig(f"{f.name} must be finite, got {val}")
        if self.seed < 0:
            raise BadConfig(f"seed must be nonnegative, got {self.seed}")
        if self.c0 < 0.0:
            # the growth class |u| <= c0 (1 + |x|) is empty for c0 < 0
            raise BadConfig(f"c0 must be nonnegative, got {self.c0}")
        if not self.r_levels or not self.h_levels:
            raise BadConfig("r_levels and h_levels must be non-empty")
        if list(self.r_levels) != sorted(self.r_levels) or \
                len(set(self.r_levels)) != len(self.r_levels):
            raise BadConfig("r_levels must be strictly increasing")
        if any(r <= 0.0 for r in self.r_levels):
            raise BadConfig("r_levels must be positive")
        if any(h <= 0.0 for h in self.h_levels):
            raise BadConfig("h_levels must be positive")
        if not 0.0 < self.sin_min < 1.0:
            # sin_min <= 0 would switch the degenerate-angle floor off
            raise BadConfig(f"sin_min must lie in (0, 1), got {self.sin_min}")

    @property
    def theta(self) -> CapillaryAngle:
        return CapillaryAngle(self.theta_rad, sin_min=self.sin_min)

    def level_pairs(self) -> tuple[tuple[float, float], ...]:
        """(r, h) per level: a single h broadcasts over all r levels."""
        if len(self.h_levels) == 1:
            return tuple((r, self.h_levels[0]) for r in self.r_levels)
        if len(self.h_levels) == len(self.r_levels):
            return tuple(zip(self.r_levels, self.h_levels))
        raise BadConfig("h_levels must have one entry or one per r level")

    def slope_vector(self) -> np.ndarray:
        if not self.L_slope:
            return np.zeros(self.dim)
        if len(self.L_slope) != self.dim:
            raise BadConfig("L_slope needs one component per dimension")
        return np.asarray(self.L_slope, dtype=float)

    def affine_base(self) -> AffineCapillarySolution:
        """Affine capillary base of the data families: tangential slope from
        L_slope, offset L_offset."""
        return affine_capillary_solution(self.theta, self.slope_vector()[1:],
                                         self.L_offset)


# value parser per ExperimentConfig field annotation (a string, as the module
# postpones the evaluation of annotations); a bad value raises ValueError
_FLOAT_LIST = "tuple[float, ...]"
_PARSERS = {"int": int, "float": float, "str": str, "str | None": str,
            _FLOAT_LIST: lambda v: tuple(float(p) for p in v.split(",") if p.strip())}


def parse_config(text: str) -> ExperimentConfig:
    """Parse a flat `key = value` config; '#' starts a comment.

    Unknown or malformed keys raise BadConfig naming the offending key.
    """
    kinds = {f.name: f.type for f in fields(ExperimentConfig)}
    entries: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise BadConfig(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in kinds:
            raise BadConfig(f"unknown config key '{key}' (line {lineno})")
        if key in entries:
            raise BadConfig(f"duplicate config key '{key}' (line {lineno})")
        try:
            entries[key] = _PARSERS[kinds[key]](val)
        except ValueError:
            raise BadConfig(f"bad value for config key '{key}': {val!r}") from None
    if "scenario" not in entries:
        raise BadConfig("missing required config key 'scenario'")
    try:
        return ExperimentConfig(**entries)
    except (TypeError, BadDimension) as exc:
        raise BadConfig(str(exc)) from None


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# Report rows and CSV emission
# ---------------------------------------------------------------------------

class ReportRow(NamedTuple):
    level: int
    r: float
    h: float
    sup_grad_inner: float
    affine_dev: float
    energy: float
    v_min: float
    newton_iters: int
    status: str


@dataclass(frozen=True)
class GradientBoundFit:
    c1: float
    c2: float
    c3: float
    fit_residual: float
    degenerate: bool


@dataclass(frozen=True)
class ExperimentReport:
    """A run's rows, its verdicts (one CheckResult per check) and the
    details that no row or check holds."""
    rows: tuple[ReportRow, ...]
    fit: GradientBoundFit | None = None
    details: dict = field(default_factory=dict)
    checks: tuple[CheckResult, ...] = ()

    @property
    def worst_status(self) -> str:
        order = {status.value: i for i, status in enumerate(SolveStatus)}
        if not self.rows:
            return "converged"
        return max((row.status for row in self.rows),
                   key=lambda s: order.get(s, len(order)))


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class AngleSweepRow(NamedTuple):
    n: int
    theta: float
    in_U: bool
    threshold: float
    margin: float
    C_theta: float
    script_B: float


class CheckResult(NamedTuple):
    check: str
    value: float
    threshold: float
    passed: bool


# _fmt's branch for each exact type the tables hold; a cell of any other
# type (np.float64, np.bool_, ...) goes through _fmt itself
_CELL_FORMATS = {bool: _fmt, float: repr, int: str, str: str}


def write_csv(rows, path, table) -> None:
    """Write a `schema=1` CSV of `table` rows (a NamedTuple class): the
    header table._fields, then one line per row, each cell by _fmt.  A row
    of another type raises TypeError before the file is opened.

    Each distinct cell object of a column is formatted once: a sweep shares
    one angle, C_theta or threshold object among many rows.  The texts are
    keyed by object identity, not value, because equal values can need
    different text (-0.0 and 0.0; 1, 1.0 and True; np.float64(x) and x).
    One object always has one text, and every id stays unique while `rows`
    holds its cells."""
    rows = list(rows)
    for row in rows:
        if type(row) is not table:
            raise TypeError(f"{type(row).__name__} row in a table of "
                            f"{table.__name__} rows")
    fmt = _CELL_FORMATS.get
    columns = []
    for column in zip(*rows):
        ids = list(map(id, column))
        cells = dict(zip(ids, column))
        text = {k: fmt(type(v), _fmt)(v) for k, v in cells.items()}
        columns.append(map(text.__getitem__, ids))
    lines = ["schema=1", ",".join(table._fields),
             *map(",".join, zip(*columns))]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Data families
# ---------------------------------------------------------------------------

def domain_for_radius(r: float, theta: CapillaryAngle, h: float, dim: int
                      ) -> HalfSpaceGrid:
    """Smallest conforming box containing the outer ellipsoid of radius r,
    plus one margin cell.

    Raises UnresolvedRegion when r < h, and from build_grid
    NonconformingExtent when a cell count overflows to inf or the lattice is
    too large for the solver's indices, and BadDimension for a dimension
    other than 1 or 2.
    """
    if r < h:
        raise UnresolvedRegion(
            f"region radius r={r} is smaller than the mesh width h={h}")
    # float counts, exact integers below 2^53: one that overflows is inf
    # and reaches build_grid as an extent without a node count
    need1 = (1.0 + abs(theta.cos_t)) * r
    m1 = float(np.ceil(need1 / h - 1e-9)) + 1.0
    needp = r / theta.sin_t
    mp = float(np.ceil(needp / h - 1e-9)) + 1.0
    return build_grid(dim, h, m1 * h, mp * h)


def _smooth_bump(rng: np.random.Generator, grid: HalfSpaceGrid):
    """Seeded nonnegative bump of three Gaussian modes, normalized to unit
    max over Dirichlet nodes.

    The bump is tapered to zero at every side face so the data stays
    corner-compatible with the affine base (the wall corners otherwise seed
    a non-decaying local defect, see the geometry corner rule)."""
    dim = grid.dim
    amps = rng.uniform(0.3, 1.0, 3)
    centers = rng.uniform(*grid.box, (3, dim))
    widths = rng.uniform(0.15, 0.4, 3) * max(grid.L1, 2.0 * (grid.Lp or grid.L1))

    def raw(points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0])
        for a, q, s in zip(amps, centers, widths):
            out += a * np.exp(-np.sum((pts - q) ** 2, axis=1) / (2.0 * s * s))
        for axis in range(1, dim):
            out *= np.cos(0.5 * np.pi * pts[:, axis] / grid.Lp) ** 2
        return out

    peak = float(np.max(raw(grid.nodes[grid.dirichlet_indices])))
    scale = 1.0 / peak if peak > 0.0 else 1.0
    return lambda points: scale * raw(points)


def _level_rngs(cfg: ExperimentConfig, count: int):
    children = np.random.SeedSequence(cfg.seed).spawn(count)
    return [np.random.Generator(np.random.Philox(child)) for child in children]


def _family(base, bump, amp: float = 1.0, scale: float = 1.0):
    """Dirichlet data scale * (base + amp * bump) of every harness family:
    an affine capillary base plus a seeded bump."""
    return lambda points: scale * (base(points) + amp * bump(points))


def _first_level(cfg: ExperimentConfig, h: float, amp: float):
    """(grid, data, rng) of a single-family run: the grid of the first region
    radius at mesh width h, the data base + amp * bump on it, and the one
    level RNG, which has drawn the bump."""
    rng = _level_rngs(cfg, 1)[0]
    grid = domain_for_radius(cfg.r_levels[0], cfg.theta, h, cfg.dim)
    return grid, _family(cfg.affine_base(), _smooth_bump(rng, grid), amp), rng


def _solve_level(theta: CapillaryAngle, grid: HalfSpaceGrid, data, level: int,
                 r: float, h: float, idx: np.ndarray | None = None,
                 solver_cfg: SolverConfig | None = None,
                 initial: ScalarField | None = None):
    """Solve one truncated problem with Dirichlet `data` (a callable or the
    values at the grid's Dirichlet nodes; see ProblemSpec.from_boundary_data),
    from `initial` when given (a warm start; see newton_solve), and build its
    report row.

    Both gradient columns come from the solve's discrete gradient
    (SolveReport.gradient) over the inner node set `idx` (default: the
    inner ellipsoid of radius r/2):
    sup_grad_inner is its max norm, affine_dev its infinity-norm deviation
    from the slope of the best-fit capillary affine solution.  Returns the
    solution, the row and the inner gradients.
    """
    sol, rep = newton_solve(ProblemSpec.from_boundary_data(grid, theta, data,
                                                           initial=initial),
                            solver_cfg)
    if idx is None:
        idx = inner_node_set(grid, EllipsoidRegion(0.5 * r, theta, RegionKind.INNER))
    grad = rep.gradient[idx]
    pts = grid.nodes[idx]
    design = np.hstack([pts, np.ones((pts.shape[0], 1))])
    coef, *_ = np.linalg.lstsq(design, sol.values[idx], rcond=None)
    fit = affine_capillary_solution(theta, coef[1:grid.dim], float(coef[-1]))
    row = ReportRow(level=level, r=float(r), h=float(h),
                    sup_grad_inner=float(np.max(np.linalg.norm(grad, axis=1))),
                    affine_dev=float(np.max(np.abs(grad - fit.slope))),
                    energy=rep.energy, v_min=rep.v_min,
                    newton_iters=rep.iterations, status=rep.status.value)
    return sol, row, grad


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _interpolate(u: ScalarField, grid: HalfSpaceGrid) -> ScalarField:
    """u interpolated multilinearly onto the nodes of a lattice of the same
    box: each node's source cell and its fraction across the cell per axis,
    then the weighted sum over the cell's 2^dim corners."""
    src = u.grid
    lo, hi = src.box
    n = np.asarray(src.shape)
    # the clip absorbs the rounding of the linspace ends; a node on the far
    # end of an axis lies in its last cell, at fraction 1
    t = (np.clip(grid.nodes, lo, hi) - lo) / src.h
    cell = np.minimum(t.astype(np.intp), n - 2)
    frac = t - cell
    strides = _strides(src.shape)
    low = cell @ strides
    out = np.zeros(grid.n_nodes)
    for bits in _corner_bits(src.dim):
        weight = np.prod(np.where(bits, frac, 1.0 - frac), axis=1)
        out += weight * u.values[low + bits @ strides]
    return ScalarField(grid, out)


def run_solve_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Single truncated solve at the first (r, h) level of the configured
    data family; affine-recovery uses the unperturbed affine trace."""
    r, h = cfg.r_levels[0], cfg.h_levels[0]
    amp = 0.0 if cfg.scenario == "affine-recovery" else \
        cfg.perturb_amp * r ** (-cfg.perturb_decay)
    grid, data, _ = _first_level(cfg, h, amp)
    _, row, _ = _solve_level(cfg.theta, grid, data, 0, r, h)
    return ExperimentReport(rows=(row,))


def run_liouville_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Truncated solves over growing regions with decaying boundary
    perturbations; checks the affine-deviation trend.

    linear-growth mode: affine trace (tangential slope from L_slope) plus a
    signed bump of amplitude perturb_amp * r^(-perturb_decay).
    one-sided mode: the affine trace with L's tangential slope and offset,
    which stays on the side of L that the angle requires (|L| is at most
    one_sided_slope_limit < |cot(theta)|), plus a bump on that side;
    one_sided_gap measures the interior gradient against its slope.
    """
    if cfg.scenario not in ("liouville-linear-growth", "liouville-one-sided"):
        raise BadConfig(f"scenario {cfg.scenario!r} is not a liouville mode")
    theta = cfg.theta
    one_sided = cfg.scenario == "liouville-one-sided"
    base = cfg.affine_base()
    sign = 1.0
    if one_sided:
        bound = LinearBound(tuple(cfg.slope_vector().tolist()), cfg.L_offset)
        bound.check_slope(theta)
        sign = -1.0 if theta.cos_t > 0.0 else 1.0

    pairs = cfg.level_pairs()
    rows = []
    rngs = _level_rngs(cfg, len(pairs))
    one_sided_gap = None
    for level, (r, h) in enumerate(pairs):
        grid = domain_for_radius(r, theta, h, cfg.dim)
        amp = cfg.perturb_amp * r ** (-cfg.perturb_decay)
        data = _family(base, _smooth_bump(rngs[level], grid), sign * amp)
        dpts = grid.nodes[grid.dirichlet_indices]
        dvals = data(dpts)
        if one_sided:
            # sign < 0: u <= L required; sign > 0: u >= L required
            if np.any(sign * (dvals - bound(dpts)) < -1e-12):
                raise HypothesisViolation("data crosses the one-sided bound")
        else:
            growth = cfg.c0 * (1.0 + np.linalg.norm(dpts, axis=1))
            if np.any(np.abs(dvals) > growth):
                raise HypothesisViolation(
                    "data leaves the linear growth class |u| <= c0 (1 + |x|)")

        _, row, grad = _solve_level(theta, grid, dvals, level, r, h)
        rows.append(row)
        if one_sided:
            one_sided_gap = float(np.max(np.linalg.norm(grad - base.slope, axis=1)))

    devs = [row.affine_dev for row in rows]
    # the largest rise of a deviation above 1.1 times the one before, over
    # the deviations above roundoff (1e-9); a NaN takes no part
    rise = float(np.fmax.reduce([b - 1.1 * a for a, b in zip(devs, devs[1:])
                                 if b > 1e-9], initial=-np.inf))
    details = {} if one_sided_gap is None else {"one_sided_gap": one_sided_gap}
    return ExperimentReport(rows=tuple(rows), details=details, checks=(
        CheckResult("affine_dev_trend", rise, 0.0, rise <= 0.0),))


def _one_radius(cfg: ExperimentConfig) -> float:
    """The one region radius of a run at a fixed radius (the refinement
    scenarios and the minimizer test), which would otherwise read the first
    of r_levels and drop the rest without a word."""
    if len(cfg.r_levels) != 1:
        default = (", the default when the config gives none"
                   if cfg.r_levels == ExperimentConfig.r_levels else "")
        raise BadConfig(f"scenario {cfg.scenario!r} takes one region radius, "
                        f"got r_levels {cfg.r_levels}{default}")
    return cfg.r_levels[0]


def _require_halvings(h_levels) -> None:
    """bound_drift and conormal_decay are rates per mesh halving, so each
    h after the first must be exactly half the one before (exact in binary
    for 0.2, 0.1, 0.05 as for 0.5, 0.25)."""
    if any(fine * 2.0 != coarse for coarse, fine in zip(h_levels, h_levels[1:])):
        raise BadConfig(f"h_levels must halve at each level, got {h_levels}")


def run_gradient_bound_sweep(cfg: ExperimentConfig) -> ExperimentReport:
    """Fit the exponential gradient bound over a boundary-data family.

    At fixed region radius, family member k scales the whole data shape
    (affine trace plus bump) by c0 * (k+1)/K * r, K = _FAMILY_SIZE, staying
    in the linear growth class while sweeping the wall gradient well past
    the angle floor |cot(theta)|.  _bound_fit fits the bound to the
    measured sup|Du| over the inner region at every mesh level, and the
    check bound_drift holds its drift per halving to 20%; when any member's
    solve did not converge, no fit is made (fit None) and no drift is
    checked.

    The members of a level are solved by continuation along the equally
    spaced scales: member k > 0 starts from the secant 2 u_{k-1} - u_{k-2}
    through the two members before it (u_{-1} = 0, the scale-0 member), as
    long as every earlier member of the level converged; otherwise it
    starts cold.
    """
    if cfg.scenario != "gradient-bound-sweep":
        raise BadConfig(f"scenario {cfg.scenario!r} is not gradient-bound-sweep")
    _require_halvings(cfg.h_levels)
    theta = cfg.theta
    r = _one_radius(cfg)
    base = cfg.affine_base()
    rngs = _level_rngs(cfg, len(cfg.h_levels))

    rows = []
    members = []
    for li, h in enumerate(cfg.h_levels):
        grid = domain_for_radius(r, theta, h, cfg.dim)
        bump = _smooth_bump(rngs[li], grid)
        inner_idx = inner_node_set(grid, EllipsoidRegion(r, theta, RegionKind.INNER))
        ratios, sups = [], []
        path = [np.zeros(grid.n_nodes)]     # u_{-1}, then the converged members
        for k in range(_FAMILY_SIZE):
            start = None
            if k > 0 and len(path) == k + 1:    # every earlier member converged
                # the difference first: 2 u_{k-1} alone may overflow where
                # the secant does not
                start = ScalarField(grid, path[-1] + (path[-1] - path[-2]))
            data = _family(base, bump, scale=cfg.c0 * (k + 1) / _FAMILY_SIZE * r)
            sol, row, _ = _solve_level(theta, grid, data, len(rows), r, h, inner_idx,
                                       initial=start)
            if row.status == SolveStatus.CONVERGED.value:
                path.append(sol.values)
            rows.append(row)
            ratios.append(height_scale(sol, EllipsoidRegion(r, theta)) / r)
            sups.append(row.sup_grad_inner)
        members.append(tuple(zip(ratios, sups)))
    details = {"members": tuple(members)}
    if any(row.status != SolveStatus.CONVERGED.value for row in rows):
        # constants fitted to unsolved members would describe their starts
        return ExperimentReport(rows=tuple(rows), details=details)

    fit, drift = _bound_fit(members, r, theta)
    # a NaN drift (one level) passes
    return ExperimentReport(rows=tuple(rows), fit=fit, details=details, checks=(
        CheckResult("bound_drift", drift, 0.2, not drift > 0.2),))


def _bound_fit(members, r: float, theta: CapillaryAngle
               ) -> tuple[GradientBoundFit, float]:
    """Fit y = log(sup / gradient_bound(M, r, theta, 0, 0, 0)) by least
    squares on (1, M/r, (M/r)^2) at every mesh level of `members` (per
    level, the family's (M/r, sup|Du|) pairs) as one array program.  A level
    whose M/r is constant (std below 1e-9) is fitted on the first column
    alone and is degenerate (c2 = c3 = 0, rms 0).  c1 is shifted by the
    largest residual log(sup / gradient_bound(M, r, theta, c)), so the bound
    dominates every member.  Returns the last level's fit and the largest
    relative drift of the constants per halving (NaN for one level)."""
    ratio, sup = np.moveaxis(np.asarray(members, dtype=float), -1, 0)
    m = ratio * r
    y = np.log(sup / gradient_bound(m, r, theta, 0.0, 0.0, 0.0))
    varying = np.std(ratio, axis=1) >= 1e-9
    used = (np.arange(3) == 0) | varying[:, None]       # (levels, 3) columns
    design = np.where(used[:, None], ratio[..., None] ** np.arange(3), 0.0)
    coef = np.where(used, (np.linalg.pinv(design) @ y[..., None])[..., 0], 0.0)
    resid = np.log(sup / gradient_bound(m, r, theta, *coef.T[..., None]))
    coef[:, 0] += np.max(resid, axis=1)
    rms = np.where(varying, np.sqrt(np.mean(resid ** 2, axis=1)), 0.0)
    steps = np.abs(np.diff(coef, axis=0)) / np.maximum(np.abs(coef[:-1]), 1e-2)
    drift = float(np.max(steps)) if steps.size else float("nan")
    c1, c2, c3 = coef[-1].tolist()
    return GradientBoundFit(c1=c1, c2=c2, c3=c3, fit_residual=float(rms[-1]),
                            degenerate=not varying[-1]), drift


def _log_slopes(log_eps: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Least-squares slope of log(gain) against log_eps, one per row of
    gains; the columns are added in order, so a row's slope does not depend
    on the other rows."""
    x = log_eps - log_eps.mean()
    with np.errstate(divide="ignore", invalid="ignore"):   # a gain <= 0
        y = np.log(gains)
    return sum(x[k] * y[:, k] for k in range(x.size)) / np.dot(x, x)


def run_minimizer_test(cfg: ExperimentConfig, trials: int = 100
                       ) -> ExperimentReport:
    """Competitor test of the minimizing property of a solved field.

    Random perturbations vanish on Dirichlet nodes (free on the wall).  Two
    checks: no competitor's energy gain falls below -1e-10 (roundoff), and
    the least slope of log(gain) against log(amplitude) is at least 1.9
    (the quadratic model).  A run whose solve did not converge makes no
    trial and no check.  The trials run in chunks of _MINIMIZER_CHUNK, each
    one draw of its perturbations and one batched energy evaluation.  The
    first competitor to undercut the energy, in trial order, is kept for
    replay as details["offender"]: its trial, amplitude and perturbation.
    """
    if cfg.scenario != "minimizer-test":
        raise BadConfig(f"scenario {cfg.scenario!r} is not minimizer-test")
    require_count("trials", trials)
    theta = cfg.theta
    r, h = _one_radius(cfg), cfg.h_levels[0]
    grid, data, rng = _first_level(cfg, h, cfg.perturb_amp)
    sol, row, _ = _solve_level(theta, grid, data, 0, r, h,
                               solver_cfg=MINIMIZER_SOLVER)
    if row.status != SolveStatus.CONVERGED.value:
        return ExperimentReport(rows=(row,), details={"trials": 0})

    free = grid.free_indices
    eps = np.asarray(MINIMIZER_EPSILONS)
    gains, details = [], {"trials": trials}
    for first in range(0, trials, _MINIMIZER_CHUNK):
        n = min(_MINIMIZER_CHUNK, trials - first)
        w = np.zeros((n, grid.n_nodes))
        # one draw of n rows continues the stream as n draws of one row do
        w[:, free] = rng.standard_normal((n, free.size))
        w /= np.max(np.abs(w), axis=1, keepdims=True)
        competitors = sol.values + eps[:, None] * w[:, None, :]    # (trial, eps)
        gains.append(capillary_energies(grid, competitors, theta) - row.energy)
        bad = np.argwhere(gains[-1] < -1e-10)
        if bad.size and "offender" not in details:
            t, e = bad[0]
            details["offender"] = {"trial": first + int(t),
                                   "epsilon": MINIMIZER_EPSILONS[e],
                                   "perturbation": w[t].copy()}
    gains = np.concatenate(gains)
    # the least gain, a NaN taking no part
    low = float(np.fmin.reduce(gains, axis=None, initial=np.inf))
    slope = float(np.min(_log_slopes(np.log(eps), gains)))
    return ExperimentReport(rows=(row,), details=details, checks=(
        CheckResult("energy_gain", low, -1e-10, low >= -1e-10),
        CheckResult("quadratic_slope", slope, 1.9, slope >= 1.9)))


def run_conormal_check(cfg: ExperimentConfig) -> ExperimentReport:
    """Solve one problem at each mesh level and track the decay of the
    conormal stationarity residual along the wall.

    Nested iteration: a level after the first starts from the previous
    level's solution, interpolated onto its grid (the box is the same at
    every level), when that solve converged.  The check conormal_decay
    holds the residual's decay per halving to at least 1.8.
    """
    if cfg.scenario != "conormal-check":
        raise BadConfig(f"scenario {cfg.scenario!r} is not conormal-check")
    _require_halvings(cfg.h_levels)
    theta = cfg.theta
    r = _one_radius(cfg)
    probe, data, _ = _first_level(cfg, max(cfg.h_levels), cfg.perturb_amp)
    # fixed physical margin: the Dirichlet-wins corner rule commits a local
    # error at the corner-adjacent wall nodes that does not decay
    margin = 2.0 * max(cfg.h_levels)
    rows, residuals = [], []
    coarser = None
    for level, h in enumerate(cfg.h_levels):
        # identical box across levels (conforming to the coarsest mesh), so
        # refinement compares discretizations of one continuous problem
        grid = build_grid(cfg.dim, h, probe.L1, probe.Lp)
        start = None if coarser is None else _interpolate(coarser, grid)
        sol, row, _ = _solve_level(theta, grid, data, level, r, h, initial=start)
        converged = row.status == SolveStatus.CONVERGED.value
        coarser = sol if converged else None
        rows.append(row)
        # an unsolved level has no residual (NaN, which fails every
        # comparison of the decay check, so it takes no part in it)
        residuals.append(conormal_stationarity_residual(sol, theta, corner_margin=margin)
                         if converged else math.nan)
    ratios = tuple(a / b if b else math.inf for a, b in zip(residuals, residuals[1:]))
    # the least decay ratio; a residual at roundoff (an exactly affine 1D
    # solution) need not decay, and a NaN takes no part
    decay = float(np.fmin.reduce([ratio for coarse, ratio in zip(residuals, ratios)
                                  if coarse >= 1e-12], initial=np.inf))
    details = {"residuals": tuple(residuals), "ratios": ratios}
    return ExperimentReport(rows=tuple(rows), details=details, checks=(
        CheckResult("conormal_decay", decay, 1.8, decay >= 1.8),))


def run_angle_sweep(n_list, theta_grid, sin_min: float = 0.05) -> list[AngleSweepRow]:
    """Tabulate the admissibility threshold, margin, slope limit, and the
    lower-bound constant at the midpoint splitting parameter (at eps0 = 0
    when none is admissible): a numpy float64 where an end of the admissible
    interval was bisected, a float otherwise.

    Each angle is validated and its slope limit and cos^2 computed once;
    the other columns come as (n, theta) arrays from one call of each
    library function over the column of dimensions.  A dimension that is
    not an integer (4.5, nan) raises InvalidParameter.
    """
    n_list = list(n_list)
    if not all(float(n).is_integer() for n in n_list):
        raise InvalidParameter(f"dimensions must be integers, got {n_list}")
    dims = [int(n) for n in n_list]
    angles = [CapillaryAngle(float(t), sin_min=sin_min) for t in theta_grid]
    if not dims or not angles:
        return []
    thetas = np.array([angle.theta for angle in angles])
    column = np.array(dims)[:, None]
    thr, margin, in_u = _angle_ranges(dims, _cos_squared(thetas))
    eps_mid, bisected = choose_eps0_array(column, thetas)
    script_b = angle_condition_lower_bound(column, thetas, np.nan_to_num(eps_mid))
    c_theta = [one_sided_slope_limit(angle) for angle in angles]
    theta_vals = thetas.tolist()
    return [AngleSweepRow(n, t, ok, thr_n, mg, c, np.float64(b) if flag else b)
            for n, thr_n, in_n, margin_n, b_n, flag_n in zip(
                dims, thr[:, 0].tolist(), in_u.tolist(), margin.tolist(),
                script_b.tolist(), bisected.tolist())
            for t, ok, mg, c, b, flag in zip(theta_vals, in_n, margin_n, c_theta,
                                             b_n, flag_n)]


# ---------------------------------------------------------------------------
# Property audit (no solves)
# ---------------------------------------------------------------------------

# the audit's angles: uniform over the angles whose sine clears the 0.05
# floor of CapillaryAngle
_ANGLE_LO = math.asin(0.05) + 1e-9
_AUDIT_ANGLES = (_ANGLE_LO, math.pi - _ANGLE_LO)


def _sample_angles(rng, count):
    return rng.uniform(*_AUDIT_ANGLES, count)


def _uniform_into(gen: np.random.Generator, out: np.ndarray, lo: float,
                  hi: float) -> np.ndarray:
    """gen.uniform(lo, hi, out.shape) written into the C-contiguous `out`:
    lo + (hi - lo) u from the same doubles u, bit for bit."""
    gen.random(out=out)
    out *= hi - lo
    out += lo
    return out


def _philox_at(state, offset: int) -> np.random.Generator:
    """A generator on a copy of the Philox `state`, moved `offset` doubles
    along its stream; the state must be at a counter boundary, as a freshly
    seeded one is (four doubles per counter step)."""
    gen = np.random.Philox()
    gen.state = state
    gen.advance(int(offset) // 4)    # advance overflows on a numpy int
    gen.random_raw(int(offset) % 4)
    return np.random.Generator(gen)


def _v_margin(state, n_gradients: int) -> float:
    """min of v - sin(theta) over the n_gradients points of the audit's
    v >= sin(theta) check, streamed in chunks of _AUDIT_CHUNK: point i takes
    double i of the stream at `state` as its angle and doubles
    n_gradients + 2i, n_gradients + 2i + 1 as its gradient; NaN when v is
    NaN at one.

    v is evaluated at every point, but sin(theta) only where the point can
    still set the margin.  np.sin never exceeds 1 and rounded subtraction
    is monotone, so v - 1 <= v - sin(theta) in floating point too.  A point
    whose v - 1 lies above the margin so far, or above v - sin(theta) at the
    chunk's point of least v - 1 (itself kept), cannot lower the minimum; a
    NaN point is always kept.  The margin is the one over every point, bit
    for bit, as np.sin gives a gathered angle the bits it gives it in the
    whole chunk."""
    size = min(_AUDIT_CHUNK, n_gradients)
    theta_buf, low_buf, grad_buf = np.empty(size), np.empty(size), np.empty((size, 2))
    angles = _philox_at(state, 0)
    grads = _philox_at(state, n_gradients)
    margin = np.inf
    for first in range(0, n_gradients, _AUDIT_CHUNK):
        count = min(_AUDIT_CHUNK, n_gradients - first)
        thetas = _uniform_into(angles, theta_buf[:count], *_AUDIT_ANGLES)
        g = _uniform_into(grads, grad_buf[:count], -30.0, 30.0)
        v = capillary_area_element(g, thetas)
        low = np.subtract(v, 1.0, out=low_buf[:count])
        j = int(np.argmin(low))
        # low > NaN and NaN > bound are false: a NaN is kept either way, so
        # min may drop one here
        bound = min(margin, float(v[j] - np.sin(thetas[j])))
        keep = np.flatnonzero(~(low > bound))
        margin = float(np.minimum(margin, np.min(
            v[keep] - np.sin(thetas[keep]), initial=np.inf)))
    return margin


def _closed_form_checks(rng, seed: int, cutoff_draws: int, cutoff_samples: int
                        ) -> list[CheckResult]:
    """The audit's checks after the v check, in order, drawing from rng."""
    checks = []

    # gauge-energy identity F(nu) W = v
    thetas = _sample_angles(rng, 10_000)
    g = rng.uniform(-10.0, 10.0, (10_000, 2))
    worst = float(np.max(np.abs(capillary_gauge(unit_normal(g), thetas) * area_element(g)
                                - capillary_area_element(g, thetas))))
    checks.append(CheckResult("gauge_energy_identity", worst, 1e-12,
                              worst <= 1e-12))

    # frame orthogonality and unit norms
    g = rng.uniform(-10.0, 10.0, (10_000, 2))
    nu = unit_normal(g)
    mu = conormal(g)
    worst = float(np.max([
        np.max(np.abs(np.linalg.norm(nu, axis=1) - 1.0)),
        np.max(np.abs(np.linalg.norm(mu, axis=1) - 1.0)),
        np.max(np.abs(np.sum(nu * mu, axis=1))),
    ]))
    checks.append(CheckResult("frame_orthogonality", worst, 1e-12,
                              worst <= 1e-12))

    # calibration inequality against the gauge
    worst = -np.inf
    for _ in range(10):
        angle = CapillaryAngle(float(_sample_angles(rng, 1)[0]))
        g = rng.uniform(-5.0, 5.0, (1000, 2))
        npl = rng.standard_normal((1000, 3))
        npl /= np.linalg.norm(npl, axis=1)[:, None]
        cal = calibration_value(g, npl, angle)
        gauge = capillary_gauge(npl, angle)
        worst = float(np.maximum(worst, np.max(cal - gauge)))
    checks.append(CheckResult("calibration_inequality", worst, 1e-12,
                              worst <= 1e-12))

    # cut-off identities: each check makes its own generator from seed + draw
    worst_grad, worst_bdry, worst_inner = -np.inf, -np.inf, -np.inf
    for draw in range(cutoff_draws):
        angle = CapillaryAngle(float(_sample_angles(rng, 1)[0]))
        r = float(np.exp(rng.uniform(np.log(0.5), np.log(8.0))))
        rep = cutoff_derivative_check(CutoffParams(r=r, theta=angle, dim=2),
                                      cutoff_samples, seed=seed + draw)
        worst_grad = float(np.maximum(worst_grad, rep.max_gradient_violation))
        worst_bdry = float(np.maximum(worst_bdry, rep.max_boundary_residual))
        worst_inner = float(np.maximum(worst_inner,
                                       rep.inner_lower_bound - rep.min_weight_inner))
    checks.append(CheckResult("cutoff_gradient_bound", worst_grad, 1e-12,
                              worst_grad <= 1e-12))
    checks.append(CheckResult("cutoff_boundary_identity", worst_bdry, 1e-12,
                              worst_bdry <= 1e-12))
    checks.append(CheckResult("cutoff_inner_floor", worst_inner, 1e-12,
                              worst_inner <= 1e-12))

    # coefficient equivalences over the (theta, n, eps0) grid, one call per
    # n and function on a column of angles against the eps0 row; then the
    # sign at eps0 = 0 against the admissible range, for every n >= 3 at once
    disagreements = 0
    theta_grid = np.linspace(*_AUDIT_ANGLES, 50)
    eps_grid = np.linspace(0.05, 0.95, 10)
    for n in range(2, 9):
        lb = angle_condition_lower_bound(n, theta_grid[:, None], eps_grid)
        disagreements += int(np.count_nonzero(
            (lb > 0.0) != angle_condition_holds(n, theta_grid[:, None], eps_grid)))
    dims = range(3, 9)
    at_zero = angle_condition_lower_bound(np.array(dims)[:, None], theta_grid, 0.0) > 0.0
    _, _, in_range = _angle_ranges(dims, _cos_squared(theta_grid))
    disagreements += int(np.count_nonzero(at_zero != in_range))
    checks.append(CheckResult("coefficient_equivalences", float(disagreements),
                              0.0, disagreements == 0))

    # region inclusion: inner membership implies outer membership
    bad = 0
    for _ in range(5):
        angle = CapillaryAngle(float(_sample_angles(rng, 1)[0]))
        r = float(np.exp(rng.uniform(np.log(0.5), np.log(8.0))))
        pts = rng.uniform(-2.0 * r, 2.0 * r, (20_000, 2))
        pts[:, 0] = np.abs(pts[:, 0])
        inner = in_region(pts, EllipsoidRegion(r, angle, RegionKind.INNER))
        outer = in_region(pts, EllipsoidRegion(r, angle, RegionKind.OUTER))
        bad += int(np.count_nonzero(inner & ~outer))
    checks.append(CheckResult("region_inclusion", float(bad), 0.0, bad == 0))
    return checks


def run_audit(seed: int = 0, n_gradients: int = 1_000_000,
              cutoff_draws: int = 20, cutoff_samples: int = 10_000
              ) -> list[CheckResult]:
    """Property battery over the closed-form apparatus; returns one
    CheckResult per invariant, v_lower_bound_margin first.

    One worker thread runs the v >= sin(theta) check (_v_margin) from
    start to end, while the calling thread runs every other check in order
    (_closed_form_checks).  The v check's chunk buffers do not depend on
    n_gradients, and every check draws the same numbers as one full-size
    draw would.  The worker is joined before this returns, also when the
    calling thread raises, and a worker's exception re-raises here.
    """
    for name, count in (("n_gradients", n_gradients), ("cutoff_draws", cutoff_draws),
                        ("cutoff_samples", cutoff_samples)):
        require_count(name, count)
    from concurrent.futures import ThreadPoolExecutor    # ~6 ms, at first use

    # pointwise lower bound of the capillary area element: the angles are the
    # stream's first n_gradients doubles and the gradients the next
    # 2 n_gradients; rng goes on after the last gradient
    start = np.random.Philox(np.random.SeedSequence(seed)).state
    rng = _philox_at(start, 3 * n_gradients)
    with ThreadPoolExecutor(max_workers=1) as pool:
        worker = pool.submit(_v_margin, start, n_gradients)
        checks = _closed_form_checks(rng, seed, cutoff_draws, cutoff_samples)
        margin = worker.result()
    return [CheckResult("v_lower_bound_margin", margin, -1e-12,
                        margin >= -1e-12)] + checks
