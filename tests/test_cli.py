"""CLI subcommands, exit codes, and CSV artifacts."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capgraph import BadConfig, LinearSolveFailure, cli, geometry, harness, solver
from capgraph.cli import _build_parser, cli_main
from capgraph.harness import SCENARIOS, ReportRow

SRC = Path(__file__).resolve().parents[1] / "src"

BASE_CFG = """
scenario = affine-recovery
dim = 2
theta_rad = 1.0471975511965976
r_levels = 2.0
h_levels = 0.25
L_slope = 0.0, 0.3
L_offset = 0.5
seed = 11
"""

LIOUVILLE_CFG = """
scenario = liouville-linear-growth
theta_rad = 1.0471975511965976
r_levels = 2.0, 4.0
h_levels = 0.5
L_slope = 0.0, 0.2
seed = 7
"""

CONORMAL_CFG = """
scenario = conormal-check
theta_rad = 1.0471975511965976
r_levels = 1.0
h_levels = 0.2, 0.1
perturb_amp = 0.3
seed = 3
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_solve_subcommand(tmp_path, capsys):
    cfg = _write(tmp_path, "base.cfg", BASE_CFG)
    out = tmp_path / "solve.csv"
    assert cli_main(["solve", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "schema=1"
    assert len(lines) == 3    # schema, header, one row
    assert lines[2].endswith("converged")


def test_liouville_subcommand(tmp_path):
    cfg = _write(tmp_path, "liouville.cfg", LIOUVILLE_CFG)
    out = tmp_path / "liouville.csv"
    assert cli_main(["liouville", "--config", cfg, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4


def test_verify_conormal_subcommand(tmp_path):
    cfg = _write(tmp_path, "conormal.cfg", CONORMAL_CFG)
    out = tmp_path / "verify.csv"
    assert cli_main(["verify", "--config", cfg, "--out", str(out)]) == 0


def test_report_subcommand_prints_fit(tmp_path, capsys):
    cfg = _write(tmp_path, "bound.cfg", """
scenario = gradient-bound-sweep
theta_rad = 1.0471975511965976
r_levels = 2.0
h_levels = 0.5
c0 = 2.0
seed = 4
""")
    out = tmp_path / "report.csv"
    assert cli_main(["report", "--config", cfg, "--out", str(out)]) == 0
    assert "bound fit" in capsys.readouterr().out
    assert out.exists()


def test_stdout_states_each_fact_once(tmp_path, capsys):
    # the rows summary alone prints each level's affine deviation, and the
    # bound_drift check line alone prints the drift per halving
    cfg = _write(tmp_path, "liouville.cfg", LIOUVILLE_CFG)
    out = tmp_path / "liouville.csv"
    assert cli_main(["liouville", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    column = ReportRow._fields.index("affine_dev")
    devs = [float(line.split(",")[column]) for line in out.read_text().splitlines()[2:]]
    assert len(devs) == 2
    assert all(stdout.count(f"{dev:.3e}") == 1 for dev in devs)

    keys = {case[0]: case[2] for case in SCENARIO_CSVS}["report"]
    cfg = _write(tmp_path, "report.cfg",
                 f"theta_rad = {math.pi / 3.0!r}\nseed = 0\n" + keys)
    assert cli_main(["report", "--config", cfg,
                     "--out", str(tmp_path / "report.csv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    drift = [line for line in lines if "drift" in line]
    assert len(drift) == 1 and drift[0].startswith("  PASS bound_drift: value=")
    value = float(drift[0].split("value=")[1].split()[0])
    others = "\n".join(line for line in lines if line is not drift[0])
    assert f"{value:.3e}" not in others and f"{value:.3f}" not in others


def test_sweep_row_count(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--n", "4", "--theta-steps", "90",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 92    # schema + header + 90 rows


def test_audit_subcommand(tmp_path, capsys):
    out = tmp_path / "audit.csv"
    assert cli_main(["audit", "--seed", "0", "--out", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "PASS" in captured and "FAIL" not in captured


def test_closed_form_csvs_keep_their_pinned_bytes(tmp_path, capsys):
    # sha256 of the seed-0 audit and of the 45-step sweep over n = 2..8 as
    # written before the closed forms ran as array programs, and of the
    # 90-step sweep as written before the sweep ran as one program over every
    # dimension; a numpy or libm whose cos or pow rounds differently would
    # move them too
    digests = {
        "audit": "6425b697460b3e5f594809e25d591cff311e16b251fca9776c4122ca84b753b9",
        "sweep": "6ab80498fa43c98760e8b80361b765b2c2aad810be79f4ca07d88b9974758130",
        "sweep-90": "687c53c9048227730caee30f8b84019e9eaf55f1e94b50282742c29109d0b544",
    }
    for name, argv in (("audit", ["audit", "--seed", "0"]),
                       ("sweep", ["sweep", "--n", "2,3,4,5,6,7,8",
                                  "--theta-steps", "45"]),
                       ("sweep-90", ["sweep", "--n", "2,3,4,5,6,7,8",
                                     "--theta-steps", "90"])):
        out = tmp_path / f"{name}.csv"
        assert cli_main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[name]


# the six configs of the benchmark's cli-scenarios workload at seed 0: name,
# subcommand, config lines after theta_rad and seed, sha256 of the CSV
SCENARIO_CSVS = (
    ("solve", "solve",
     "scenario = liouville-linear-growth\nr_levels = 8.0\nh_levels = 0.25\n"
     "L_slope = 0.0, 0.2\n",
     "740b61a71b4a46c554a333c715aab359255e83a36b087fc351ce7a651cfd1910"),
    ("liouville", "liouville",
     "scenario = liouville-linear-growth\nr_levels = 4.0, 8.0, 16.0\n"
     "h_levels = 0.5\nL_slope = 0.0, 0.2\nperturb_amp = 0.1\n"
     "perturb_decay = 1.0\n",
     "4faccd5699bf9dc9d8c3772e895269c2fbb57d9bdcb1d2afdfe7cf50a3a667aa"),
    ("liouville-one-sided", "liouville",
     "scenario = liouville-one-sided\nr_levels = 4.0, 8.0, 16.0\n"
     "h_levels = 0.5\nL_slope = 0.0, 0.0\n",
     "f4c2ae46d9f5c78d394ac778a65fe395285d7880fc035be89a151cd0b90e1236"),
    ("report", "report",
     "scenario = gradient-bound-sweep\nr_levels = 4.0\nh_levels = 0.5, 0.25\n"
     "c0 = 2.0\n",
     "80bc08c36774db6aa12c378fc42b7bc095008e170c6e5b624d46ace245e6e628"),
    ("verify-conormal", "verify",
     "scenario = conormal-check\nr_levels = 1.0\nh_levels = 0.2, 0.1, 0.05\n"
     "perturb_amp = 0.3\n",
     "ffd52f1d3f5f6daef65394af3f7be9818cd91963620a174fca91c87f822a83ec"),
    ("verify-minimizer", "verify",
     "scenario = minimizer-test\nr_levels = 2.0\nh_levels = 0.25\n",
     "1558898a3a62cf7e68fddd7981bfdd79a1ba1a41bede994ad6b9d6915328ff0a"),
)


@pytest.mark.parametrize("name, command, keys, digest", SCENARIO_CSVS,
                         ids=[case[0] for case in SCENARIO_CSVS])
def test_solver_csvs_keep_their_pinned_bytes(tmp_path, capsys, name, command,
                                             keys, digest):
    # sha256 as written before the lift became the first step of the Newton
    # loop; a change in the last bit of any solve moves them, where a
    # relative tolerance on the values would not
    cfg = _write(tmp_path, f"{name}.cfg",
                 f"theta_rad = {math.pi / 3.0!r}\nseed = 0\n" + keys)
    out = tmp_path / f"{name}.csv"
    assert cli_main([command, "--config", cfg, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_unknown_subcommand_is_usage_error():
    assert cli_main(["frobnicate"]) == 3
    assert cli_main([]) == 3


COMMANDS = ("solve", "verify", "liouville", "report", "sweep", "audit")


def _full_parser_run(argv, capsys):
    """(exit code, stdout, stderr) of parsing argv with every subcommand's
    parser added, as the parser of argv's own command must read."""
    try:
        _build_parser().parse_args(argv)
        code = None
    except SystemExit as exc:
        code = exc.code
    return (code,) + tuple(capsys.readouterr())


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_parser_reads_as_the_full_parser(tmp_path, capsys, command):
    # help, a bad argument of the subcommand's own parser, and an unknown
    # one, which the main parser reports under its usage line
    own, config = {"sweep": (["--theta-steps", "0"], []),
                   "audit": (["--seed", "-1"], [])}.get(
        command, ([], ["--config", str(tmp_path / "none.cfg")]))
    for argv, code, usage in (([command, "--help"], 0, command),
                              ([command] + own, 3, command),
                              ([command] + config + ["--bogus"], 3, "[-h]")):
        expected = _full_parser_run(argv, capsys)
        assert expected[0] == (code and 2)     # argparse's usage error
        assert cli_main(argv) == code
        assert tuple(capsys.readouterr()) == expected[1:]
        assert "".join(expected[1:]).startswith(f"usage: capgraph {usage} ")
    assert "{solve,verify,liouville,report,sweep,audit}" in expected[2]


@pytest.mark.parametrize("argv,code", [(["--help"], 0), (["-h", "solve"], 0),
                                       ([], 3), (["frobnicate"], 3)])
def test_the_parser_without_a_command_lists_all_six(capsys, argv, code):
    expected = _full_parser_run(argv, capsys)
    assert cli_main(argv) == code
    assert tuple(capsys.readouterr()) == expected[1:]
    assert all(name in "".join(expected[1:]) for name in COMMANDS)


def test_malformed_config_names_key(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "scenario = affine-recovery\nwidget = 1\n")
    assert cli_main(["solve", "--config", cfg]) == 3
    assert "widget" in capsys.readouterr().err
    assert cli_main(["solve", "--config", str(tmp_path / "missing.cfg")]) == 3


@pytest.mark.parametrize("key, value", [
    ("perturb_amp", "nan"),
    ("seed", "-1"),
    ("r_levels", "nan"),
    ("r_levels", "2.0, inf"),
    ("h_levels", "inf"),
    ("c0", "nan"),
    ("theta_rad", "nan"),
    ("L_slope", "0.0, nan"),
])
def test_bad_config_value_is_exit_3_not_a_traceback(tmp_path, capsys, key, value):
    lines = [line for line in LIOUVILLE_CFG.splitlines()
             if not line.startswith(key + " ")]
    cfg = _write(tmp_path, "bad.cfg", "\n".join(lines + [f"{key} = {value}"]))
    assert cli_main(["liouville", "--config", cfg,
                     "--out", str(tmp_path / "bad.csv")]) == 3
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("dim", "3", "dim must be 1 or 2"),
    ("dim", "-1", "dim must be 1 or 2"),
    ("r_levels", "0.1", "smaller than the mesh width"),   # h_levels = 0.5
    # caught from the node counts, before any array is built
    ("h_levels", "1e-300", "too many nodes for int32 indices"),
    ("r_levels", "1e308", "L1=inf is not a positive integer multiple"),
])
def test_unsupported_grid_is_exit_3_not_a_traceback(tmp_path, capsys, key,
                                                    value, message):
    lines = [line for line in LIOUVILLE_CFG.splitlines()
             if not line.startswith(key + " ") and not line.startswith("L_slope")]
    cfg = _write(tmp_path, "bad.cfg", "\n".join(lines + [f"{key} = {value}"]))
    assert cli_main(["liouville", "--config", cfg,
                     "--out", str(tmp_path / "bad.csv")]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize("r_levels", ["0", "0.0, 2.0"])
def test_a_zero_region_radius_is_exit_3_not_a_traceback(tmp_path, capsys, r_levels):
    # solve takes the first radius to the power -perturb_decay
    lines = [line for line in LIOUVILLE_CFG.splitlines()
             if not line.startswith("r_levels ")]
    cfg = _write(tmp_path, "bad.cfg", "\n".join(lines + [f"r_levels = {r_levels}"]))
    out = tmp_path / "bad.csv"
    assert cli_main(["solve", "--config", cfg, "--out", str(out)]) == 3
    assert "r_levels must be positive" in capsys.readouterr().err
    assert not out.exists()


REPORT_CFG = """
scenario = gradient-bound-sweep
r_levels = 2.0
h_levels = 0.5
c0 = 0.0
seed = 2
"""


@pytest.mark.parametrize("value", ["true", "false"])
def test_a_config_that_sets_strict_angle_range_is_exit_3(tmp_path, capsys, value):
    # the key is gone: the angle restriction starts at n = 4, where no grid
    # is built, so it could only ever turn bad input into exit 1
    cfg = _write(tmp_path, "strict.cfg", REPORT_CFG + f"strict_angle_range = {value}\n")
    out = tmp_path / "report.csv"
    assert cli_main(["report", "--config", cfg, "--out", str(out)]) == 3
    assert "unknown config key 'strict_angle_range'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("extra", ["", "strict_angle_range = true\n"])
def test_a_steep_angle_in_dimension_4_is_exit_3(tmp_path, capsys, extra):
    # cos^2(0.2456) = 0.94 lies above the n = 4 threshold 15/16, but a
    # dimension above 2 is bad input before any angle range is read
    cfg = _write(tmp_path, "steep.cfg",
                 REPORT_CFG + "dim = 4\ntheta_rad = 0.2456\n" + extra)
    out = tmp_path / "report.csv"
    assert cli_main(["report", "--config", cfg, "--out", str(out)]) == 3
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_hypothesis_violation_maps_to_exit_1(tmp_path):
    cfg = _write(tmp_path, "onesided.cfg", """
scenario = liouville-one-sided
theta_rad = 1.0471975511965976
r_levels = 2.0
h_levels = 0.5
L_slope = 0.5, 0.0
seed = 1
""")
    assert cli_main(["liouville", "--config", cfg]) == 1


def test_a_failed_check_exits_1_and_keeps_the_csv(tmp_path, capsys):
    # the report family at c0 = 0.5 drifts 169% per halving: the run exits
    # 1, and its CSV still holds the 12 solves, with the failed record on
    # stdout and named on stderr
    cfg = _write(tmp_path, "drift.cfg", """
scenario = gradient-bound-sweep
theta_rad = 1.0471975511965976
r_levels = 4.0
h_levels = 0.5, 0.25
c0 = 0.5
seed = 0
""")
    out = tmp_path / "report.csv"
    assert cli_main(["report", "--config", cfg, "--out", str(out)]) == 1
    lines = out.read_text().splitlines()
    assert lines[:2] == ["schema=1", ",".join(ReportRow._fields)]
    assert len(lines) == 14 and all(row.endswith(",converged") for row in lines[2:])
    stdout, stderr = capsys.readouterr()
    assert "  FAIL bound_drift: value=1.689e+00 threshold=2.000e-01\n" in stdout
    assert stderr == "invariant violation: failed bound_drift\n"


@pytest.mark.parametrize("slope, code", [(1.9, 0), (1.8999999999999997, 1)])
def test_verify_minimizer_exits_1_on_a_slope_below_1_9(tmp_path, capsys, monkeypatch,
                                                       slope, code):
    # the quadratic-model gate is the run's quadratic_slope record
    monkeypatch.setattr(harness, "_log_slopes", lambda log_eps, gains:
                        np.full(gains.shape[0], slope))
    cfg = _write(tmp_path, "minimizer.cfg", """
scenario = minimizer-test
theta_rad = 1.0471975511965976
r_levels = 1.5
h_levels = 0.25
seed = 0
""")
    out = tmp_path / "verify.csv"
    assert cli_main(["verify", "--config", cfg, "--out", str(out)]) == code
    assert len(out.read_text().splitlines()) == 3
    stdout = capsys.readouterr().out
    assert "  PASS energy_gain: " in stdout
    tag = "FAIL" if code else "PASS"
    assert f"  {tag} quadratic_slope: value={slope:.3e} threshold=1.900e+00\n" in stdout


def test_console_entry_point_runs(tmp_path):
    cfg = _write(tmp_path, "base.cfg", BASE_CFG)
    proc = _run_python(["-m", "capgraph.cli", "solve", "--config", cfg,
                        "--out", str(tmp_path / "o.csv")])
    assert proc.returncode == 0
    assert "wrote" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["sweep", "--n", "0"],
    ["sweep", "--n", "x"],
    ["sweep", "--theta-steps", "-3"],
    ["sweep", "--theta-steps", "0"],
    ["sweep", "--sin-min", "2"],
    ["audit", "--seed", "-1"],
])
def test_invalid_argument_is_exit_3_not_a_traceback(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    assert cli_main(argv + ["--out", str(out)]) == 3
    assert argv[1] in capsys.readouterr().err
    assert not out.exists()


def test_negative_c0_is_exit_3(tmp_path, capsys):
    cfg = _write(tmp_path, "bound.cfg", """
scenario = gradient-bound-sweep
r_levels = 2.0
h_levels = 0.5
c0 = -1.0
""")
    out = tmp_path / "report.csv"
    assert cli_main(["report", "--config", cfg, "--out", str(out)]) == 3
    assert "c0 must be nonnegative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sin_min", ["0", "-1"])
def test_sin_min_outside_the_unit_interval_is_exit_3(tmp_path, capsys, sin_min):
    cfg = _write(tmp_path, "bad.cfg", LIOUVILLE_CFG + f"sin_min = {sin_min}\n")
    out = tmp_path / "bad.csv"
    assert cli_main(["liouville", "--config", cfg, "--out", str(out)]) == 3
    assert "sin_min must lie in (0, 1)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "liouville"])
def test_linear_failure_writes_the_csv_and_exits_2(tmp_path, capsys, monkeypatch,
                                                   command):
    def breakdown(*args):
        raise LinearSolveFailure("conjugate gradient breakdown (matrix not SPD?)")

    monkeypatch.setattr(solver, "_pcg", breakdown)
    cfg = _write(tmp_path, "liouville.cfg", LIOUVILLE_CFG)
    out = tmp_path / "out.csv"
    assert cli_main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "solver status: linear_failure" in capsys.readouterr().err
    rows = out.read_text().splitlines()[2:]
    assert rows and all(row.endswith(",0,linear_failure") for row in rows)


def test_a_lattice_over_the_memory_budget_is_exit_3_before_any_array(
        tmp_path, capsys, monkeypatch):
    # r = 4 at h = 1e-3: 58.6 million nodes, whose scratch slab alone would
    # be 15.3 GiB; the grid's counts reject it before numpy is asked
    def no_array(*args, **kwargs):
        raise AssertionError("the lattice was built")

    monkeypatch.setattr(geometry.np, "linspace", no_array)
    lines = [line for line in BASE_CFG.splitlines()
             if not line.startswith(("r_levels ", "h_levels "))]
    cfg = _write(tmp_path, "huge.cfg", "\n".join(lines + ["r_levels = 4.0",
                                                          "h_levels = 1e-3"]))
    out = tmp_path / "solve.csv"
    assert cli_main(["solve", "--config", cfg, "--out", str(out)]) == 3
    assert "GiB budget" in capsys.readouterr().err
    assert not out.exists()


def test_running_out_of_memory_is_exit_3(tmp_path, capsys, monkeypatch):
    # a lattice within the solver's indices may still not fit in memory
    def exhausted(cfg):
        raise MemoryError("Unable to allocate 15.3 GiB")

    monkeypatch.setattr(cli, "run_solve_experiment", exhausted)
    cfg = _write(tmp_path, "base.cfg", BASE_CFG)
    out = tmp_path / "solve.csv"
    assert cli_main(["solve", "--config", cfg, "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 15.3 GiB\n"
    assert not out.exists()


def _run_python(args):
    """A fresh interpreter with the checkout's sources on its path."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env)


def test_report_of_an_unsolved_family_skips_the_fit(tmp_path):
    # c0 = 1e300 overflows every member's start, so all 12 solves end as
    # linear_failure; a subprocess keeps their overflow warnings out of
    # this process's warnings-as-errors filter
    cfg = _write(tmp_path, "overflow.cfg", """
scenario = gradient-bound-sweep
theta_rad = 1.0471975511965976
r_levels = 2.0
h_levels = 0.5, 0.25
c0 = 1e300
seed = 4
""")
    out = tmp_path / "report.csv"
    proc = _run_python(["-W", "ignore", "-m", "capgraph.cli", "report",
                        "--config", cfg, "--out", str(out)])
    assert proc.returncode == 2
    assert "bound fit skipped: a family member did not converge" in proc.stdout
    assert "C1=" not in proc.stdout
    assert "solver status: linear_failure" in proc.stderr
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 12 and all(row.endswith(",linear_failure") for row in rows)


@pytest.mark.parametrize("edit", ["perturb_amp = 1e200", "L_offset = 1e308"])
def test_verify_conormal_of_an_unsolved_level_exits_2(tmp_path, edit):
    # the overflowing data end every level as linear_failure, whose state
    # has no finite gradient: the levels get no residual and the command
    # exits through the solver status; a subprocess keeps the overflow
    # warnings out of this process's warnings-as-errors filter
    lines = [line for line in CONORMAL_CFG.splitlines()
             if not line.startswith(edit.split()[0] + " ")]
    cfg = _write(tmp_path, "overflow.cfg", "\n".join(lines + [edit]))
    out = tmp_path / "verify.csv"
    proc = _run_python(["-W", "ignore", "-m", "capgraph.cli", "verify",
                        "--config", cfg, "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert "conormal residuals: nan, nan" in proc.stdout
    assert "solver status: linear_failure" in proc.stderr
    rows = out.read_text().splitlines()[2:]
    assert len(rows) == 2 and all(row.endswith(",linear_failure") for row in rows)


_SCIPY_PROBE = """
import sys
from capgraph.cli import cli_main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out, cfg = sys.argv[1:]
assert not scipy_modules(), scipy_modules()
assert cli_main(["audit", "--seed", "0", "--out", out + "/audit.csv"]) == 0
assert cli_main(["sweep", "--n", "2,4", "--theta-steps", "9",
                 "--out", out + "/sweep.csv"]) == 0
assert not scipy_modules(), scipy_modules()
assert cli_main(["solve", "--config", cfg, "--out", out + "/solve.csv"]) == 0
assert "scipy.sparse" in sys.modules
"""


def test_solve_free_commands_start_without_scipy(tmp_path):
    # scipy.sparse loads at the first sparse matrix: the first Newton step
    # (the perturbed data rule out the affine start's zero-step solve)
    cfg = _write(tmp_path, "liouville.cfg", LIOUVILLE_CFG)
    proc = _run_python(["-c", _SCIPY_PROBE, str(tmp_path), cfg])
    assert proc.returncode == 0, proc.stderr


_JACOBIAN_PROBE = """
import sys
import numpy as np
import capgraph

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

grid = capgraph.build_grid(2, 0.25, 1.0, 1.0)
spec = capgraph.ProblemSpec(grid=grid, theta=capgraph.CapillaryAngle(np.pi / 3),
                            dirichlet=np.zeros(grid.dirichlet_indices.size))
vals = np.random.default_rng(0).uniform(size=grid.n_nodes)
system = capgraph.assemble_jacobian(capgraph.ScalarField(grid, vals), spec)
assert system.matrix[2] == grid.free_indices.size == system.rhs.size
assert not scipy_modules(), scipy_modules()
"""


def test_assemble_jacobian_leaves_scipy_unloaded():
    # the public Jacobian is plain DIA arrays: no scipy matrix is built
    proc = _run_python(["-c", _JACOBIAN_PROBE])
    assert proc.returncode == 0, proc.stderr


_FUTURES_PROBE = """
import sys
import capgraph.cli
from capgraph.harness import run_audit

assert "concurrent.futures" not in sys.modules
run_audit(0, 10, cutoff_draws=1, cutoff_samples=10)
assert "concurrent.futures" in sys.modules
"""


def test_cli_start_leaves_the_audit_worker_pool_unloaded():
    # the audit imports its worker pool at first use, so start-up stays
    # numpy-only
    proc = _run_python(["-c", _FUTURES_PROBE])
    assert proc.returncode == 0, proc.stderr


_INTERPOLATE_PROBE = """
import sys
from capgraph.cli import cli_main

out, cfg = sys.argv[1:]
assert cli_main(["verify", "--config", cfg, "--out", out]) == 0
assert "scipy.interpolate" not in sys.modules
"""


def test_nested_iteration_interpolates_without_scipy_interpolate(tmp_path):
    # conormal-check starts each finer mesh from the coarser solution,
    # interpolated by harness._interpolate in numpy alone
    cfg = _write(tmp_path, "conormal.cfg", CONORMAL_CFG)
    proc = _run_python(["-c", _INTERPOLATE_PROBE, str(tmp_path / "verify.csv"), cfg])
    assert proc.returncode == 0, proc.stderr


_CONFIG_COMMANDS = {"solve": ("affine-recovery", "liouville-linear-growth"),
                    "liouville": ("liouville-linear-growth", "liouville-one-sided"),
                    "report": ("gradient-bound-sweep",),
                    "verify": ("minimizer-test", "conormal-check")}

# one edit that makes any config invalid: bad values, r < h, a lattice
# without a finite node count or too large for the solver's indices, an
# unknown key (a retired one too), a line without '=' and a dimension other
# than 1 or 2
_INVALID_EDITS = (("h_levels", "-0.5"), ("c0", "-1.0"), ("seed", "-1"),
                  ("sin_min", "1.5"), ("r_levels", "2.0, 1.0"), ("r_levels", "0.1"),
                  ("h_levels", "1e-300"), ("r_levels", "1e308"),
                  ("theta_rad", "nan"), ("perturb_amp", "inf"), ("dim", "3"),
                  ("scenario", "no-such-scenario"), ("no_such_key", "1"),
                  ("strict_angle_range", "false"), ("no equals sign", None))


@st.composite
def _small_configs(draw, command):
    """Config lines whose grids stay below about 700 nodes (r <= 2,
    h >= 0.25, sin(theta) >= 0.47) and whose data stay moderate."""
    dim = draw(st.sampled_from([1, 2]))
    entries = {
        "scenario": draw(st.sampled_from(_CONFIG_COMMANDS[command])
                         | st.sampled_from(SCENARIOS)),
        "dim": dim,
        "theta_rad": draw(st.floats(0.5, math.pi - 0.5)),
        "r_levels": draw(st.sampled_from([(1.0,), (2.0,), (1.0, 2.0)])),
        "h_levels": draw(st.lists(st.sampled_from([0.5, 0.25]), min_size=1,
                                  max_size=2)),
        "c0": draw(st.floats(0.0, 4.0)),
        "perturb_amp": draw(st.floats(0.0, 0.5)),
        "perturb_decay": draw(st.floats(0.0, 2.0)),
        "L_slope": draw(st.lists(st.floats(-0.5, 0.5), min_size=dim, max_size=dim)),
        "L_offset": draw(st.floats(-1.0, 1.0)),
        "seed": draw(st.integers(0, 20)),
    }
    lines = {key: ", ".join(map(repr, val)) if isinstance(val, (tuple, list))
             else str(val) for key, val in entries.items()}
    edit = draw(st.none() | st.sampled_from(_INVALID_EDITS))
    if edit is not None:
        lines[edit[0]] = edit[1]
    text = "\n".join(key if val is None else f"{key} = {val}"
                     for key, val in lines.items())
    return text, edit is not None


@pytest.mark.parametrize("command", sorted(_CONFIG_COMMANDS))
def test_config_commands_exit_code_property(tmp_path, command):
    @settings(max_examples=15)
    @given(case=_small_configs(command))
    def check(case):
        text, invalid = case
        cfg = _write(tmp_path, "fuzz.cfg", text)
        code = cli_main([command, "--config", cfg,
                         "--out", str(tmp_path / "fuzz.csv")])
        assert code in (0, 1, 2, 3)
        if invalid:
            assert code == 3

    check()


# each runner and the scenarios it serves
_RUNNERS = ((harness.run_liouville_experiment, _CONFIG_COMMANDS["liouville"]),
            (harness.run_gradient_bound_sweep, _CONFIG_COMMANDS["report"]),
            (harness.run_minimizer_test, ("minimizer-test",)),
            (harness.run_conormal_check, ("conormal-check",)))


def test_a_scenario_a_command_does_not_serve_is_exit_3(tmp_path, capsys):
    # each config command rejects a scenario it does not serve before any
    # solve or CSV, naming the scenario; solve serves every scenario, and
    # the retired angle-sweep is no scenario at all
    cases = [(command, scenario) for command, served in _CONFIG_COMMANDS.items()
             if command != "solve" for scenario in SCENARIOS if scenario not in served]
    cases += [(command, "angle-sweep") for command in _CONFIG_COMMANDS]
    out = tmp_path / "out.csv"
    for command, scenario in cases:
        cfg = _write(tmp_path, "wrong.cfg",
                     f"scenario = {scenario}\nr_levels = 2.0\nh_levels = 0.5\n")
        assert cli_main([command, "--config", cfg, "--out", str(out)]) == 3, \
            (command, scenario)
        assert f"'{scenario}'" in capsys.readouterr().err
        assert not out.exists()

    # and each runner called directly raises BadConfig
    for runner, served in _RUNNERS:
        for scenario in [name for name in SCENARIOS if name not in served]:
            cfg = harness.ExperimentConfig(scenario=scenario, r_levels=(2.0,),
                                           h_levels=(0.5,))
            with pytest.raises(BadConfig, match=f"'{scenario}'"):
                runner(cfg)


# refinement configs whose h does not halve at every level: a coarsening,
# a repeat, a doubling and a third of the step
_NOT_HALVING = (("report", "gradient-bound-sweep", (4.0,), (0.25, 0.5)),
                ("verify", "conormal-check", (1.0,), (0.2, 0.2)),
                ("verify", "conormal-check", (1.0,), (0.1, 0.2)),
                ("verify", "conormal-check", (1.0,), (0.2, 0.1, 0.033)))
_REFINEMENT_RUNNERS = {"report": harness.run_gradient_bound_sweep,
                       "verify": harness.run_conormal_check}


def test_refinement_h_levels_must_halve(tmp_path, capsys, monkeypatch):
    # bound_drift and conormal_decay are rates per mesh halving: any other
    # step is exit 3, raised before a grid is built, with no CSV
    def no_grid(*args, **kwargs):
        raise AssertionError("a grid was built")

    for name in ("build_grid", "domain_for_radius", "_first_level"):
        monkeypatch.setattr(harness, name, no_grid)
    out = tmp_path / "out.csv"
    for command, scenario, r_levels, h_levels in _NOT_HALVING:
        cfg = _write(tmp_path, "steps.cfg",
                     f"scenario = {scenario}\nr_levels = {r_levels[0]}\n"
                     f"h_levels = {', '.join(map(str, h_levels))}\nc0 = 2.0\n")
        assert cli_main([command, "--config", cfg, "--out", str(out)]) == 3, h_levels
        assert "h_levels must halve at each level" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(BadConfig, match="h_levels must halve at each level"):
            _REFINEMENT_RUNNERS[command](harness.ExperimentConfig(
                scenario=scenario, r_levels=r_levels, h_levels=h_levels))


@pytest.mark.parametrize("theta_rad", ["1.0471975511965976", "1.5707963267948966"])
def test_verify_conormal_1d_roundoff_residuals_pass(tmp_path, theta_rad):
    # the 1D solution is exactly affine: its residuals sit at roundoff (at
    # pi/2 exactly zero) and need not decay under refinement
    cfg = _write(tmp_path, "conormal1d.cfg", f"""
scenario = conormal-check
dim = 1
theta_rad = {theta_rad}
r_levels = 1.0
h_levels = 0.2, 0.1, 0.05
perturb_amp = 0.3
seed = 0
""")
    out = tmp_path / "verify.csv"
    assert cli_main(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 5    # schema, header, 3 rows


_JUNK = st.sampled_from(["", "x", "nan", "1.5", "2,,", " ", "1e999"])


def _int_list(low):
    return st.lists(st.integers(low, 9), min_size=1, max_size=3).map(
        lambda ns: ",".join(map(str, ns)))


# each argument draws from a valid range, a wider range and junk text, so
# that valid and invalid argv both occur often
@settings(max_examples=80, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(dims=st.one_of(_int_list(2), _int_list(-2), _JUNK),
       steps=st.one_of(st.integers(1, 30), st.integers(-3, 30), _JUNK),
       sin_min=st.one_of(st.floats(0.01, 0.99), st.floats(-1.0, 2.0),
                         st.just(math.nan), _JUNK))
def test_sweep_arguments_exit_code_property(tmp_path, dims, steps, sin_min):
    argv = ["sweep", "--n", dims, "--theta-steps", str(steps),
            "--sin-min", str(sin_min), "--out", str(tmp_path / "sweep.csv")]
    try:
        n_list = [int(part) for part in dims.split(",") if part.strip()]
        valid = (bool(n_list) and min(n_list) >= 2 and int(steps) >= 1
                 and 0.0 < float(sin_min) < 1.0)
    except ValueError:
        valid = False
    code = cli_main(argv)
    assert code in (0, 1, 2, 3)
    if not valid:
        assert code == 3


@settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(max_value=-1))
def test_negative_audit_seed_property(tmp_path, seed):
    out = tmp_path / "audit.csv"
    assert cli_main(["audit", "--seed", str(seed), "--out", str(out)]) == 3
    assert not out.exists()
