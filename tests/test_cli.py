"""CLI subcommands, exit codes, and CSV artifacts."""

import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capgraph.cli import cli_main

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
    proc = subprocess.run(
        [sys.executable, "-m", "capgraph.cli", "solve", "--config", cfg,
         "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True)
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
