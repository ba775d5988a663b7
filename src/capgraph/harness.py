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

import numpy as np

from .capillary import (AffineCapillarySolution, CapillaryAngle, ScalarField,
                        affine_capillary_solution, area_element,
                        calibration_value, capillary_area_element,
                        capillary_energies, capillary_gauge, conormal,
                        unit_normal)
from .errors import (AngleOutOfRange, BadConfig, HypothesisViolation,
                     InvariantViolation, OutOfExtent, StationarityViolation,
                     UnresolvedRegion, require_count)
from .estimates import (_cos_squared, admissible_angle_range,
                        angle_condition_holds, angle_condition_lower_bound,
                        angle_threshold, choose_eps0_array,
                        conormal_stationarity_residual,
                        cutoff_derivative_check, CutoffParams, height_scale,
                        one_sided_slope_limit)
from .geometry import (EllipsoidRegion, HalfSpaceGrid, RegionKind, _corner_bits,
                       _strides, build_grid, in_region, inner_node_set)
from .solver import (ProblemSpec, SolveStatus, SolverConfig, _gradient_vectors,
                     newton_solve)

SCENARIOS = (
    "affine-recovery",
    "liouville-linear-growth",
    "liouville-one-sided",
    "gradient-bound-sweep",
    "angle-sweep",
    "minimizer-test",
    "conormal-check",
)

# CSV headers of ReportRow, AngleSweepRow and CheckResult, in field order
# (the audit's `check` column holds CheckResult.name)
REPORT_COLUMNS = ("level", "r", "h", "sup_grad_inner", "affine_dev", "energy",
                  "v_min", "newton_iters", "status")
ANGLE_SWEEP_COLUMNS = ("n", "theta", "in_U", "threshold", "margin", "C_theta",
                       "script_B")
AUDIT_COLUMNS = ("check", "value", "threshold", "passed")

# the minimizer test compares energies near roundoff, so it solves tighter
MINIMIZER_SOLVER = SolverConfig(tol_residual=1e-12)
MINIMIZER_EPSILONS = (1e-1, 1e-2, 1e-3)
# trials per batched energy evaluation of the minimizer test: its
# 3 * _MINIMIZER_CHUNK competitors keep the transient near 1 MB on CLI grids,
# where one batch of every trial would cost ten times that
_MINIMIZER_CHUNK = 10
# points per chunk of each share of the audit's v >= sin(theta) check: about
# 1.9 MB per share in flight, 3.7 MB for the two, whatever n_gradients; 2^16
# per share doubled that and took an audit process's peak RSS from 42 to 46 MB
# (BENCH_audit_threads.json)
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
    strict_angle_range: bool = False
    sin_min: float = 0.05

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise BadConfig(f"unknown scenario '{self.scenario}'")
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
# postpones the evaluation of annotations); a bad value raises ValueError or
# KeyError
_FLOAT_LIST = "tuple[float, ...]"
_PARSERS = {"bool": lambda v: {"true": True, "false": False}[v.lower()],
            "int": int, "float": float, "str": str, "str | None": str,
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
        except (ValueError, KeyError):
            raise BadConfig(f"bad value for config key '{key}': {val!r}") from None
    if "scenario" not in entries:
        raise BadConfig("missing required config key 'scenario'")
    try:
        return ExperimentConfig(**entries)
    except TypeError as exc:
        raise BadConfig(str(exc)) from None


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


# ---------------------------------------------------------------------------
# Report rows and CSV emission
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
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
    per_level: tuple[tuple[float, float, float], ...] = ()
    stability: float = float("nan")   # max relative drift per mesh halving


@dataclass(frozen=True)
class ExperimentReport:
    scenario: str
    rows: tuple[ReportRow, ...]
    fit: GradientBoundFit | None = None
    details: dict = field(default_factory=dict)

    @property
    def worst_status(self) -> str:
        order = {status.value: i for i, status in enumerate(SolveStatus)}
        if not self.rows:
            return "converged"
        return max((row.status for row in self.rows),
                   key=lambda s: order.get(s, len(order)))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass(frozen=True)
class AngleSweepRow:
    n: int
    theta: float
    in_U: bool
    threshold: float
    margin: float
    C_theta: float
    script_B: float


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool


def write_csv(rows, path, columns) -> None:
    """Write a `schema=1` CSV: the header `columns`, then one line per row
    holding its dataclass fields in declaration order."""
    lines = ["schema=1", ",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(getattr(row, f.name)) for f in fields(row)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Data families
# ---------------------------------------------------------------------------

def domain_for_radius(r: float, theta: CapillaryAngle, h: float, dim: int
                      ) -> HalfSpaceGrid:
    """Smallest conforming box containing the outer ellipsoid of radius r,
    plus one margin cell.

    Raises UnresolvedRegion when r < h and BadDimension (from build_grid)
    for a dimension other than 1 or 2.
    """
    if r < h:
        raise UnresolvedRegion(
            f"region radius r={r} is smaller than the mesh width h={h}")
    need1 = (1.0 + abs(theta.cos_t)) * r
    m1 = int(np.ceil(need1 / h - 1e-9)) + 1
    needp = r / theta.sin_t
    mp = int(np.ceil(needp / h - 1e-9)) + 1
    return build_grid(dim, h, m1 * h, mp * h)


def _smooth_bump(rng: np.random.Generator, grid: HalfSpaceGrid, n_modes: int = 3):
    """Seeded nonnegative bump, normalized to unit max over Dirichlet nodes.

    The bump is tapered to zero at every side face so the data stays
    corner-compatible with the affine base (the wall corners otherwise seed
    a non-decaying local defect, see the geometry corner rule)."""
    dim = grid.dim
    amps = rng.uniform(0.3, 1.0, n_modes)
    centers = rng.uniform(*grid.box, (n_modes, dim))
    widths = rng.uniform(0.15, 0.4, n_modes) * max(grid.L1, 2.0 * (grid.Lp or grid.L1))

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
    """Solve one truncated problem, from `initial` when given (a warm start;
    see newton_solve), and build its report row.

    Both gradient columns come from one discrete gradient over the inner
    node set `idx` (default: the inner ellipsoid of radius r/2):
    sup_grad_inner is its max norm, affine_dev its infinity-norm deviation
    from the slope of the best-fit capillary affine solution.  Returns the
    solution, the row and the inner gradients.
    """
    sol, rep = newton_solve(ProblemSpec.from_boundary_data(grid, theta, data,
                                                           initial=initial),
                            solver_cfg)
    if idx is None:
        idx = inner_node_set(grid, EllipsoidRegion(0.5 * r, theta, RegionKind.INNER))
    grad = _gradient_vectors(sol, theta)[idx]
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

def blow_down(u: ScalarField, R: float, target_grid: HalfSpaceGrid | None = None
              ) -> ScalarField:
    """Rescale x -> u(Rx)/R.

    Without a target grid the source lattice is rescaled exactly (nodes map
    onto nodes); with one, values are interpolated multilinearly on the
    source lattice (the point's cell and its fraction across the cell per
    axis, then the weighted sum over the cell's 2^dim corners), and queries
    outside the source extent raise OutOfExtent.
    """
    if R < 1.0:
        raise ValueError(f"blow-down scale must be >= 1, got {R}")
    src = u.grid
    if target_grid is None:
        tg = build_grid(src.dim, src.h / R, *map(float, src.box[1] / R))
        return ScalarField(tg, u.values / R)
    pts = target_grid.nodes * R
    lo, hi = src.box
    slack = 1e-9 * max(1.0, src.L1)
    if np.any(pts < lo - slack) or np.any(pts > hi + slack):
        raise OutOfExtent("rescaled query points leave the source extent")
    n = np.asarray(src.shape)
    t = (np.clip(pts, lo, hi) - lo) / src.h
    cell = np.minimum(t.astype(np.intp), n - 2)
    frac = t - cell
    strides = _strides(src.shape)
    low = cell @ strides
    out = np.zeros(pts.shape[0])
    for bits in _corner_bits(src.dim):
        weight = np.prod(np.where(bits, frac, 1.0 - frac), axis=1)
        out += weight * u.values[low + bits @ strides]
    return ScalarField(target_grid, out / R)


def run_solve_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Single truncated solve at the first (r, h) level of the configured
    data family; affine-recovery uses the unperturbed affine trace."""
    r, h = cfg.r_levels[0], cfg.h_levels[0]
    amp = 0.0 if cfg.scenario == "affine-recovery" else \
        cfg.perturb_amp * r ** (-cfg.perturb_decay)
    grid, data, _ = _first_level(cfg, h, amp)
    _, row, _ = _solve_level(cfg.theta, grid, data, 0, r, h)
    return ExperimentReport(scenario=cfg.scenario, rows=(row,))


def run_liouville_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Truncated solves over growing regions with decaying boundary
    perturbations; asserts the affine-deviation trend.

    linear-growth mode: affine trace (tangential slope from L_slope) plus a
    signed bump of amplitude perturb_amp * r^(-perturb_decay).
    one-sided mode: data stays on one side of the linear bound L (above or
    below according to the angle), and the interior gradient is driven to
    the symmetric slope.
    """
    if cfg.scenario not in ("liouville-linear-growth", "liouville-one-sided"):
        raise BadConfig(f"scenario {cfg.scenario!r} is not a liouville mode")
    theta = cfg.theta
    one_sided = cfg.scenario == "liouville-one-sided"
    slope = cfg.slope_vector()
    if one_sided:
        limit = one_sided_slope_limit(theta)
        if float(np.linalg.norm(slope)) > limit + 1e-15:
            raise HypothesisViolation(
                f"|DL|={np.linalg.norm(slope):.3e} exceeds the one-sided slope "
                f"limit {limit:.3e}")
        base = affine_capillary_solution(theta, np.zeros(cfg.dim - 1), cfg.L_offset)
        sign = -1.0 if theta.cos_t > 0.0 else 1.0
    else:
        base = cfg.affine_base()
        sign = 1.0

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
            bound_vals = dpts @ slope + cfg.L_offset
            # sign < 0: u <= L required; sign > 0: u >= L required
            if np.any(sign * (dvals - bound_vals) < -1e-12):
                raise HypothesisViolation("data crosses the one-sided bound")
        else:
            growth = cfg.c0 * (1.0 + np.linalg.norm(dpts, axis=1))
            if np.any(np.abs(dvals) > growth):
                raise HypothesisViolation(
                    "data leaves the linear growth class |u| <= c0 (1 + |x|)")

        _, row, grad = _solve_level(theta, grid, data, level, r, h)
        rows.append(row)
        if one_sided:
            target = np.zeros(cfg.dim)
            target[0] = -theta.cot_t
            one_sided_gap = float(np.max(np.linalg.norm(grad - target, axis=1)))

    devs = [row.affine_dev for row in rows]
    for a, b in zip(devs, devs[1:]):
        if b > 1.1 * a and b > 1e-9:
            raise InvariantViolation(
                f"affine deviation failed to decrease: {a:.3e} -> {b:.3e}")
    details = {"affine_devs": tuple(devs)}
    if one_sided_gap is not None:
        details["one_sided_gap"] = one_sided_gap
    return ExperimentReport(scenario=cfg.scenario, rows=tuple(rows),
                            details=details)


def run_gradient_bound_sweep(cfg: ExperimentConfig, family_size: int = 6
                             ) -> ExperimentReport:
    """Fit the exponential gradient bound over a boundary-data family.

    At fixed region radius, family member k scales the whole data shape
    (affine trace plus bump) by c0 * (k+1)/K * r, staying in the linear
    growth class while sweeping the wall gradient well past the angle floor
    |cot(theta)|.  Measured sup|Du| over the inner region is regressed on
    (1, M/r, (M/r)^2); the intercept is shifted so the fitted bound
    dominates every measurement.  The fit is repeated per mesh level and
    its drift per halving reported.  When any member's solve did not
    converge, no fit is made (fit None) and no drift is checked.

    The members of a level are solved by continuation along the equally
    spaced scales: member k > 0 starts from the secant 2 u_{k-1} - u_{k-2}
    through the two members before it (u_{-1} = 0, the scale-0 member), as
    long as every earlier member of the level converged; otherwise it
    starts cold.
    """
    if cfg.scenario != "gradient-bound-sweep":
        raise BadConfig(f"scenario {cfg.scenario!r} is not gradient-bound-sweep")
    theta = cfg.theta
    if cfg.strict_angle_range:
        res = admissible_angle_range(max(cfg.dim, 2), theta)
        if not res.in_range:
            raise AngleOutOfRange(
                f"cos^2(theta)={theta.cos_t ** 2:.4f} outside the admissible "
                f"range for n={cfg.dim} (threshold {res.threshold:.4f})")
    r = cfg.r_levels[0]
    base = cfg.affine_base()
    one_minus = 1.0 - abs(theta.cos_t)
    rngs = _level_rngs(cfg, len(cfg.h_levels))

    rows = []
    members = []
    for li, h in enumerate(cfg.h_levels):
        grid = domain_for_radius(r, theta, h, cfg.dim)
        bump = _smooth_bump(rngs[li], grid)
        inner_idx = inner_node_set(grid, EllipsoidRegion(r, theta, RegionKind.INNER))
        ratios, sups = [], []
        path = [np.zeros(grid.n_nodes)]     # u_{-1}, then the converged members
        for k in range(family_size):
            start = None
            if k > 0 and len(path) == k + 1:    # every earlier member converged
                # the difference first: 2 u_{k-1} alone may overflow where
                # the secant does not
                start = ScalarField(grid, path[-1] + (path[-1] - path[-2]))
            data = _family(base, bump, scale=cfg.c0 * (k + 1) / family_size * r)
            sol, row, _ = _solve_level(theta, grid, data, len(rows), r, h, inner_idx,
                                       initial=start)
            if row.status == SolveStatus.CONVERGED.value:
                path.append(sol.values)
            rows.append(row)
            ratios.append(height_scale(sol, EllipsoidRegion(r, theta)) / r)
            sups.append(row.sup_grad_inner)
        members.append(tuple(zip(ratios, sups)))
    details = {"family_size": family_size, "members": tuple(members)}
    if any(row.status != SolveStatus.CONVERGED.value for row in rows):
        # constants fitted to unsolved members would describe their starts
        return ExperimentReport(scenario=cfg.scenario, rows=tuple(rows),
                                details=details)

    fits = []
    for level in members:
        m, sups = (np.asarray(column) for column in zip(*level))
        y = np.log(sups * one_minus)
        if float(np.std(m)) < 1e-9:
            fits.append((float(np.max(y)), 0.0, 0.0, 0.0, True))
        else:
            design = np.stack([np.ones_like(m), m, m * m], axis=1)
            coef, *_ = np.linalg.lstsq(design, y, rcond=None)
            resid = y - design @ coef
            coef = coef.copy()
            coef[0] += max(0.0, float(np.max(resid)))   # one-sided validity
            fits.append((float(coef[0]), float(coef[1]), float(coef[2]),
                         float(np.sqrt(np.mean(resid ** 2))), False))

    drift = float("nan")
    if len(fits) > 1:
        drifts = []
        for (a, b) in zip(fits, fits[1:]):
            num = np.abs(np.asarray(b[:3]) - np.asarray(a[:3]))
            den = np.maximum(np.abs(np.asarray(a[:3])), 1e-2)
            drifts.append(float(np.max(num / den)))
        drift = max(drifts)
        if drift > 0.2:
            raise InvariantViolation(
                f"fitted bound constants drifted {drift:.1%} per mesh halving "
                f"(limit 20%)")
    last = fits[-1]
    fit = GradientBoundFit(c1=last[0], c2=last[1], c3=last[2],
                           fit_residual=last[3], degenerate=last[4],
                           per_level=tuple(f[:3] for f in fits),
                           stability=drift)
    return ExperimentReport(scenario=cfg.scenario, rows=tuple(rows), fit=fit,
                            details=details)


def _log_slopes(log_eps: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Least-squares slope of log(gain) against log_eps, one per row of
    gains; the columns are added in order, so a row's slope does not depend
    on the other rows."""
    x = log_eps - log_eps.mean()
    y = np.log(gains)
    return sum(x[k] * y[:, k] for k in range(x.size)) / np.dot(x, x)


def run_minimizer_test(cfg: ExperimentConfig, trials: int = 100
                       ) -> ExperimentReport:
    """Competitor test of the minimizing property of a solved field.

    Random perturbations vanish on Dirichlet nodes (free on the wall); the
    energy must not drop below the solution energy beyond roundoff, and the
    energy increment must follow the quadratic model in the amplitude.
    The trials run in chunks of _MINIMIZER_CHUNK, each one draw of its
    perturbations and one batched energy evaluation; a StationarityViolation
    names the first offending trial and amplitude, in trial order.
    """
    if cfg.scenario != "minimizer-test":
        raise BadConfig(f"scenario {cfg.scenario!r} is not minimizer-test")
    require_count("trials", trials)
    theta = cfg.theta
    r, h = cfg.r_levels[0], cfg.h_levels[0]
    grid, data, rng = _first_level(cfg, h, cfg.perturb_amp)
    sol, row, _ = _solve_level(theta, grid, data, 0, r, h,
                               solver_cfg=MINIMIZER_SOLVER)
    if row.status != SolveStatus.CONVERGED.value:
        return ExperimentReport(scenario=cfg.scenario, rows=(row,),
                                details={"trials": 0})

    free = grid.free_indices
    eps = np.asarray(MINIMIZER_EPSILONS)
    slopes, max_drop = [], 0.0
    for first in range(0, trials, _MINIMIZER_CHUNK):
        n = min(_MINIMIZER_CHUNK, trials - first)
        w = np.zeros((n, grid.n_nodes))
        # one draw of n rows continues the stream as n draws of one row do
        w[:, free] = rng.standard_normal((n, free.size))
        w /= np.max(np.abs(w), axis=1, keepdims=True)
        competitors = sol.values + eps[:, None] * w[:, None, :]    # (trial, eps)
        gains = capillary_energies(grid, competitors, theta) - row.energy
        bad = np.argwhere(gains < -1e-10)
        if bad.size:
            t, e = bad[0]
            raise StationarityViolation(
                f"trial {first + t}: competitor lowered the energy by {-gains[t, e]:.3e}",
                perturbation=w[t], epsilon=MINIMIZER_EPSILONS[e])
        max_drop = min(max_drop, float(gains.min()))
        slopes.append(_log_slopes(np.log(eps), gains))
    details = {"trials": trials,
               "min_quadratic_slope": float(np.min(np.concatenate(slopes))),
               "max_energy_drop": float(-max_drop)}
    return ExperimentReport(scenario=cfg.scenario, rows=(row,), details=details)


def run_conormal_check(cfg: ExperimentConfig) -> ExperimentReport:
    """Solve one problem at each mesh level and track the decay of the
    conormal stationarity residual along the wall.

    Nested iteration: a level after the first starts from the previous
    level's solution, interpolated onto its grid (the box is the same at
    every level), when that solve converged.
    """
    if cfg.scenario != "conormal-check":
        raise BadConfig(f"scenario {cfg.scenario!r} is not conormal-check")
    theta = cfg.theta
    r = cfg.r_levels[0]
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
        start = None if coarser is None else blow_down(coarser, 1.0, grid)
        sol, row, _ = _solve_level(theta, grid, data, level, r, h, initial=start)
        coarser = sol if row.status == SolveStatus.CONVERGED.value else None
        rows.append(row)
        residuals.append(conormal_stationarity_residual(sol, theta,
                                                        corner_margin=margin))
    ratios = tuple(a / b if b else math.inf for a, b in zip(residuals, residuals[1:]))
    for coarse, ratio in zip(residuals, ratios):
        # a residual at roundoff (an exactly affine 1D solution) need not decay
        if coarse >= 1e-12 and ratio < 1.8:
            raise InvariantViolation(
                f"conormal residual decayed by {ratio:.2f} < 1.8 per halving")
    return ExperimentReport(scenario=cfg.scenario, rows=tuple(rows),
                            details={"residuals": tuple(residuals),
                                     "ratios": ratios,
                                     "corner_margin": margin})


def run_angle_sweep(n_list, theta_grid, sin_min: float = 0.05) -> list[AngleSweepRow]:
    """Tabulate the admissibility threshold, margin, slope limit, and the
    lower-bound constant at the midpoint splitting parameter (at eps0 = 0
    when none is admissible): a numpy float64 where an end of the admissible
    interval was bisected, a float otherwise."""
    thetas = np.array([float(t) for t in theta_grid])
    angles = [CapillaryAngle(t, sin_min=sin_min) for t in thetas.tolist()]
    rows = []
    for n in map(int, n_list):
        ranges = [admissible_angle_range(n, angle) for angle in angles]
        eps_mid, bisected = choose_eps0_array(n, thetas)
        script_b = angle_condition_lower_bound(n, thetas, np.nan_to_num(eps_mid))
        for angle, res, b, flag in zip(angles, ranges, script_b, bisected):
            rows.append(AngleSweepRow(
                n=n, theta=angle.theta, in_U=res.in_range,
                threshold=res.threshold, margin=res.margin,
                C_theta=one_sided_slope_limit(angle),
                script_B=b if flag else float(b)))
    return rows


# ---------------------------------------------------------------------------
# Property audit (no solves)
# ---------------------------------------------------------------------------

def _sample_angles(rng, count, sin_min=0.05):
    lo = math.asin(sin_min) + 1e-9
    return rng.uniform(lo, math.pi - lo, count)


def _philox_at(state, offset: int) -> np.random.Generator:
    """A generator on a copy of the Philox `state`, moved `offset` doubles
    along its stream; the state must be at a counter boundary, as a freshly
    seeded one is (four doubles per counter step)."""
    gen = np.random.Philox()
    gen.state = state
    gen.advance(int(offset) // 4)    # advance overflows on a numpy int
    gen.random_raw(int(offset) % 4)
    return np.random.Generator(gen)


def _v_margin(state, n_gradients: int, lo: int, hi: int) -> float:
    """min of v - sin(theta) over points [lo, hi) of the audit's
    v >= sin(theta) check, streamed in chunks of _AUDIT_CHUNK: point i takes
    double i of the stream at `state` as its angle and doubles
    n_gradients + 2i, n_gradients + 2i + 1 as its gradient; inf when empty."""
    angles = _philox_at(state, lo)
    grads = _philox_at(state, n_gradients + 2 * lo)
    margin = np.inf
    for first in range(lo, hi, _AUDIT_CHUNK):
        count = min(_AUDIT_CHUNK, hi - first)
        thetas = _sample_angles(angles, count)
        v = capillary_area_element(grads.uniform(-30.0, 30.0, (count, 2)), thetas)
        margin = min(margin, float(np.min(v - np.sin(thetas))))
    return margin


def _run_shares(fn, shares) -> list:
    """[fn(*args) for args in shares], the first share in the calling thread
    and the others on one worker thread, which is joined before this
    returns, also when a share raises; its exception re-raises here."""
    from concurrent.futures import ThreadPoolExecutor    # ~6 ms, at first use
    with ThreadPoolExecutor(max_workers=1) as worker:
        rest = [worker.submit(fn, *args) for args in shares[1:]]
        return [fn(*shares[0])] + [future.result() for future in rest]


def run_audit(seed: int = 0, n_gradients: int = 1_000_000,
              cutoff_draws: int = 20, cutoff_samples: int = 10_000
              ) -> list[CheckResult]:
    """Property battery over the closed-form apparatus; returns one
    CheckResult per invariant.

    The v >= sin(theta) check and the cut-off draws each run as two shares,
    one in the calling thread and one on a worker thread; each result is the
    min or max over both shares, so it does not depend on the split.  Each
    share of the v check streams its points in chunks of _AUDIT_CHUNK, so
    the memory in flight is two chunks whatever n_gradients; every check
    draws the same numbers as one full-size draw would.
    """
    for name, count in (("n_gradients", n_gradients), ("cutoff_draws", cutoff_draws),
                        ("cutoff_samples", cutoff_samples)):
        require_count(name, count)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    checks = []

    # pointwise lower bound of the capillary area element: the angles are the
    # stream's first n_gradients doubles and the gradients the next
    # 2 n_gradients; each share reads its span of both, and rng then goes on
    # after the last gradient
    start = rng.bit_generator.state
    mid = n_gradients // 2
    margin = min(_run_shares(_v_margin, [(start, n_gradients, 0, mid),
                                         (start, n_gradients, mid, n_gradients)]))
    rng.bit_generator.state = _philox_at(start, 3 * n_gradients).bit_generator.state
    checks.append(CheckResult("v_lower_bound_margin", margin, -1e-12,
                              margin >= -1e-12))

    # gauge-energy identity F(nu) W = v
    m = 10_000
    thetas = _sample_angles(rng, m)
    grads = rng.uniform(-10.0, 10.0, (m, 2))
    worst = 0.0
    for i in range(0, m, 2000):
        sl = slice(i, i + 2000)
        g = grads[sl]
        gauge = capillary_gauge(unit_normal(g), thetas[sl])
        vv = capillary_area_element(g, thetas[sl])
        worst = max(worst, float(np.max(np.abs(gauge * area_element(g) - vv))))
    checks.append(CheckResult("gauge_energy_identity", worst, 1e-12,
                              worst <= 1e-12))

    # frame orthogonality and unit norms
    g = rng.uniform(-10.0, 10.0, (10_000, 2))
    nu = unit_normal(g)
    mu = conormal(g)
    worst = max(
        float(np.max(np.abs(np.linalg.norm(nu, axis=1) - 1.0))),
        float(np.max(np.abs(np.linalg.norm(mu, axis=1) - 1.0))),
        float(np.max(np.abs(np.sum(nu * mu, axis=1)))),
    )
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
        worst = max(worst, float(np.max(cal - gauge)))
    checks.append(CheckResult("calibration_inequality", worst, 1e-12,
                              worst <= 1e-12))

    # cut-off identities: every (angle, r) is drawn first, in draw order;
    # each check makes its own generator from seed + draw
    draws = [(CapillaryAngle(float(_sample_angles(rng, 1)[0])),
              float(np.exp(rng.uniform(np.log(0.5), np.log(8.0)))))
             for _ in range(cutoff_draws)]

    def cutoff_share(lo, hi):
        return [cutoff_derivative_check(CutoffParams(r=r, theta=angle, dim=2),
                                        cutoff_samples, seed=seed + draw)
                for draw, (angle, r) in enumerate(draws[lo:hi], lo)]

    half = (cutoff_draws + 1) // 2
    head, tail = _run_shares(cutoff_share, [(0, half), (half, cutoff_draws)])
    worst_grad, worst_bdry, worst_inner = -np.inf, -np.inf, -np.inf
    for rep in head + tail:
        worst_grad = max(worst_grad, rep.max_gradient_violation)
        worst_bdry = max(worst_bdry, rep.max_boundary_residual)
        worst_inner = max(worst_inner, rep.inner_lower_bound - rep.min_weight_inner)
    checks.append(CheckResult("cutoff_gradient_bound", worst_grad, 1e-12,
                              worst_grad <= 1e-12))
    checks.append(CheckResult("cutoff_boundary_identity", worst_bdry, 1e-12,
                              worst_bdry <= 1e-12))
    checks.append(CheckResult("cutoff_inner_floor", worst_inner, 1e-12,
                              worst_inner <= 1e-12))

    # coefficient equivalences over the (theta, n, eps0) grid, one call per
    # n and function on a column of angles against the eps0 row
    disagreements = 0
    lo = math.asin(0.05) + 1e-9
    theta_grid = np.linspace(lo, math.pi - lo, 50)
    eps_grid = np.linspace(0.05, 0.95, 10)
    cos2 = _cos_squared(theta_grid)
    for n in range(2, 9):
        lb = angle_condition_lower_bound(n, theta_grid[:, None], eps_grid)
        disagreements += int(np.count_nonzero(
            (lb > 0.0) != angle_condition_holds(n, theta_grid[:, None], eps_grid)))
        if n >= 3:
            at_zero = angle_condition_lower_bound(n, theta_grid, 0.0) > 0.0
            disagreements += int(np.count_nonzero(
                at_zero != (cos2 < angle_threshold(n))))
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
