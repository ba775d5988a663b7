"""The benchmark's workloads and the cases each one runs.

Each workload is a closed loop in one process with one client: a pass runs
the workload's cases in order, and each case starts only after the previous
one has returned.  A case returns what the checks need (exit code, solver
statuses, the bytes it wrote, values to compare with the reference) and its
time.  Inputs depend only on the seed.
"""

from __future__ import annotations

import io
import math
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from capgraph import capillary, cli, geometry, harness, solver

from tracing import patch_everywhere

THETA_RAD = math.pi / 3.0
LADDER_WIDTHS = (0.05, 0.025, 0.0125)
LADDER_SAMPLE_H = 0.2        # reference values are kept on this sub-lattice


@dataclass
class CaseRun:
    """What one execution of a case returned."""

    seconds: float                   # time of the case, checks excluded
    exit_code: int
    statuses: tuple[str, ...]        # solver statuses the case reported
    output: bytes                    # compared byte for byte between passes
    table: dict                      # values compared with the reference
    solves: tuple[float, ...] = ()   # time of each newton_solve call, in order
    steps: tuple[int, ...] = ()      # Newton steps of each newton_solve call

    def rung(self, index: int | None) -> float:
        """A ladder rung: one of the case's solves, or the whole case."""
        return self.seconds if index is None else self.solves[index]

    def rung_steps(self, index: int | None) -> int | None:
        """Newton steps of a solve rung; None for a whole-case rung."""
        return None if index is None else self.steps[index]


# ---------------------------------------------------------------------------
# mesh-ladder
# ---------------------------------------------------------------------------

def ladder_data(theta):
    """Dirichlet data of the 2D self-reference mesh-convergence problem:
    an affine capillary solution with tangential slope 0.2 plus a Gaussian
    bump tapered to zero at the side faces."""
    aff = capillary.affine_capillary_solution(theta, (0.2,), 0.0)

    def data(pts):
        taper = np.cos(0.5 * np.pi * pts[:, 1]) ** 2
        return aff(pts) + 0.25 * np.exp(-((pts[:, 0] - 0.4) ** 2 +
                                          pts[:, 1] ** 2)) * taper
    return data


class LadderSolve:
    """Build the grid on [0, 1] x [-1, 1] at mesh width h and solve it."""

    def __init__(self, h: float):
        self.h = h
        self.name = f"solve-h{h:g}"

    def build(self):
        theta = capillary.CapillaryAngle(THETA_RAD)
        grid = geometry.build_grid(2, self.h, 1.0, 1.0)
        return solver.ProblemSpec.from_boundary_data(grid, theta, ladder_data(theta))

    def run(self, recorder=None) -> CaseRun:
        t0 = time.perf_counter()
        spec = self.build()
        t1 = time.perf_counter()
        sol, rep = solver.newton_solve(spec, solver.SolverConfig(tol_residual=1e-12))
        t2 = time.perf_counter()
        stride = round(LADDER_SAMPLE_H / self.h)
        samples = sol.lattice()[::stride, ::stride].ravel()
        return CaseRun(seconds=t2 - t0, exit_code=0,
                       statuses=(rep.status.value,),
                       output=sol.values.tobytes(),
                       table={"u_samples": samples.tolist(),
                              "energy": [rep.energy]},
                       solves=(t2 - t1,), steps=(rep.iterations,))


class MeshLadder:
    """One 2D newton_solve per mesh width; 861, 3,321 and 13,041 nodes."""

    name = "mesh-ladder"
    seeded = False     # the ladder's inputs do not depend on the seed
    # (case, solve index) of the coarse and the fine rung: h = 0.025, 0.0125
    ladder = (("solve-h0.025", 0), ("solve-h0.0125", 0))

    def __init__(self, workdir: Path, seed: int):
        self.cases = [LadderSolve(h) for h in LADDER_WIDTHS]

    def write_inputs(self) -> None:
        pass

    def set_up(self) -> None:
        for case in self.cases:
            case.build()


# ---------------------------------------------------------------------------
# cli-scenarios and closed-forms: in-process CLI calls
# ---------------------------------------------------------------------------

def _csv_table(data: bytes) -> dict:
    """Columns of a capgraph CSV by header name; newton_iters is left out
    because a correct solver change may change iteration counts."""
    lines = data.decode("utf-8").splitlines()
    if len(lines) < 2:
        return {}
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return {col: [row[i] if i < len(row) else "" for row in rows]
            for i, col in enumerate(header) if col != "newton_iters"}


class CliCase:
    """One `capgraph` command run in process through `cli_main`, timing each
    `newton_solve` call it makes."""

    def __init__(self, name: str, argv: list[str], out: Path):
        self.name = name
        self.span = f"cli.{argv[0]}"
        self.argv = argv + ["--out", str(out)]
        self.out = out

    def run(self, recorder=None) -> CaseRun:
        self.out.unlink(missing_ok=True)
        sink = io.StringIO()
        solve_times: list[float] = []
        solve_steps: list[int] = []
        with (redirect_stdout(sink), redirect_stderr(sink),
              SolveTimer(solve_times, solve_steps)):
            with recorder.span(self.span) if recorder else nullcontext():
                t0 = time.perf_counter()
                code = cli.cli_main(self.argv)
                seconds = time.perf_counter() - t0
        output = self.out.read_bytes() if self.out.exists() else b""
        table = _csv_table(output)
        return CaseRun(seconds=seconds, exit_code=code,
                       statuses=tuple(table.get("status", ())),
                       output=output, table=table, solves=tuple(solve_times),
                       steps=tuple(solve_steps))


class SolveTimer:
    """Append the duration and the Newton step count of every capgraph
    `newton_solve` call to two lists."""

    def __init__(self, times: list[float], steps: list[int]):
        self.times = times
        self.steps = steps
        self.undo = None

    def _wrap(self, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.times.append(time.perf_counter() - t0)
            self.steps.append(getattr(result[1], "iterations", 0))
            return result
        return timed

    def __enter__(self):
        self.undo = patch_everywhere("solver", "newton_solve", self._wrap)
        if self.undo is None:
            raise RuntimeError("capgraph.solver.newton_solve is absent; "
                               "solves cannot be timed")
        return self

    def __exit__(self, *exc):
        self.undo()
        return False


def _config_text(seed: int, **keys) -> str:
    lines = [f"theta_rad = {THETA_RAD!r}", f"seed = {seed}"]
    lines += [f"{key} = {value}" for key, value in keys.items()]
    return "\n".join(lines) + "\n"


# name, subcommand, config keys
CLI_CONFIGS = (
    ("solve", "solve",
     dict(scenario="liouville-linear-growth", r_levels="8.0", h_levels="0.25",
          L_slope="0.0, 0.2")),
    ("liouville", "liouville",
     dict(scenario="liouville-linear-growth", r_levels="4.0, 8.0, 16.0",
          h_levels="0.5", L_slope="0.0, 0.2", perturb_amp="0.1",
          perturb_decay="1.0")),
    ("liouville-one-sided", "liouville",
     dict(scenario="liouville-one-sided", r_levels="4.0, 8.0, 16.0",
          h_levels="0.5", L_slope="0.0, 0.0")),
    ("report", "report",
     dict(scenario="gradient-bound-sweep", r_levels="4.0", h_levels="0.5, 0.25",
          c0="2.0")),
    ("verify-conormal", "verify",
     dict(scenario="conormal-check", r_levels="1.0", h_levels="0.2, 0.1, 0.05",
          perturb_amp="0.3")),
    ("verify-minimizer", "verify",
     dict(scenario="minimizer-test", r_levels="2.0", h_levels="0.25")),
)


class CliScenarios:
    """The user-facing subcommands over six configs; 23 small solves."""

    name = "cli-scenarios"
    seeded = True
    # r = 8 at h = 0.5 (the liouville case's second level, 1,066 nodes) and
    # at h = 0.25 (the solve case, 3,850 nodes); their bumps come from
    # different seed streams, so their Newton step counts may differ
    ladder = (("liouville", 1), ("solve", 0))

    def __init__(self, workdir: Path, seed: int):
        self.seed = seed
        self.configs = {name: workdir / f"{name}.cfg" for name, _, _ in CLI_CONFIGS}
        self.cases = [
            CliCase(name, [command, "--config", str(self.configs[name])],
                    workdir / f"{name}.csv")
            for name, command, _ in CLI_CONFIGS]

    def write_inputs(self) -> None:
        for name, _, keys in CLI_CONFIGS:
            self.configs[name].write_text(_config_text(self.seed, **keys),
                                          encoding="utf-8")

    def set_up(self) -> None:
        for path in self.configs.values():
            cfg = harness.load_config(path)
            if len(cfg.h_levels) in (1, len(cfg.r_levels)):
                pairs = cfg.level_pairs()
            else:
                pairs = [(cfg.r_levels[0], h) for h in cfg.h_levels]
            for r, h in pairs:
                harness.domain_for_radius(r, cfg.theta, h, cfg.dim)


class ClosedForms:
    """The solve-free commands: the audit battery and two angle sweeps, the
    second at half the angle step of the first."""

    name = "closed-forms"
    seeded = True
    # no solves: the rungs are the two sweeps, at 45 and 90 angle steps
    ladder = (("sweep-45", None), ("sweep-90", None))

    def __init__(self, workdir: Path, seed: int):
        dims = "2,3,4,5,6,7,8"
        self.cases = [
            CliCase("audit", ["audit", "--seed", str(seed)], workdir / "audit.csv"),
            CliCase("sweep-45", ["sweep", "--n", dims, "--theta-steps", "45"],
                    workdir / "sweep-45.csv"),
            CliCase("sweep-90", ["sweep", "--n", dims, "--theta-steps", "90"],
                    workdir / "sweep-90.csv"),
        ]

    def write_inputs(self) -> None:
        pass

    def set_up(self) -> None:
        pass


WORKLOADS = {cls.name: cls for cls in (MeshLadder, CliScenarios, ClosedForms)}
