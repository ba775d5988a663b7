"""CLI subcommands, exit codes, and CSV artifacts."""

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capgraph import LinearSolveFailure, solver
from capgraph.cli import cli_main
from capgraph.harness import SCENARIOS

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
    # written before the closed forms ran as array programs; a numpy or libm
    # whose cos or pow rounds differently would move them too
    digests = {
        "audit": "6425b697460b3e5f594809e25d591cff311e16b251fca9776c4122ca84b753b9",
        "sweep": "6ab80498fa43c98760e8b80361b765b2c2aad810be79f4ca07d88b9974758130",
    }
    for name, argv in (("audit", ["audit", "--seed", "0"]),
                       ("sweep", ["sweep", "--n", "2,3,4,5,6,7,8",
                                  "--theta-steps", "45"])):
        out = tmp_path / f"{name}.csv"
        assert cli_main(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digests[name]


def test_unknown_subcommand_is_usage_error():
    assert cli_main(["frobnicate"]) == 3
    assert cli_main([]) == 3


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
    ("r_levels", "0.1", "smaller than the mesh width"),   # h_levels = 0.5
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
    def breakdown(system, cfg=None):
        raise LinearSolveFailure("conjugate gradient breakdown (matrix not SPD?)")

    monkeypatch.setattr(solver, "linear_solve", breakdown)
    cfg = _write(tmp_path, "liouville.cfg", LIOUVILLE_CFG)
    out = tmp_path / "out.csv"
    assert cli_main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "solver status: linear_failure" in capsys.readouterr().err
    rows = out.read_text().splitlines()[2:]
    assert rows and all(row.endswith(",0,linear_failure") for row in rows)


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
    # interpolated by blow_down in numpy alone
    cfg = _write(tmp_path, "conormal.cfg", CONORMAL_CFG)
    proc = _run_python(["-c", _INTERPOLATE_PROBE, str(tmp_path / "verify.csv"), cfg])
    assert proc.returncode == 0, proc.stderr


_CONFIG_COMMANDS = {"solve": ("affine-recovery", "liouville-linear-growth"),
                    "liouville": ("liouville-linear-growth", "liouville-one-sided"),
                    "report": ("gradient-bound-sweep",),
                    "verify": ("minimizer-test", "conormal-check")}

# one edit that makes any config invalid: bad values, r < h, an unknown
# key, a line without '=' and a dimension other than 1 or 2
_INVALID_EDITS = (("h_levels", "-0.5"), ("c0", "-1.0"), ("seed", "-1"),
                  ("sin_min", "1.5"), ("r_levels", "2.0, 1.0"), ("r_levels", "0.1"),
                  ("theta_rad", "nan"), ("perturb_amp", "inf"), ("dim", "3"),
                  ("scenario", "no-such-scenario"), ("no_such_key", "1"),
                  ("no equals sign", None))


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
        "strict_angle_range": draw(st.booleans()),
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
