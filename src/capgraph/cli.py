"""Command-line entry point.

Subcommands: solve, verify, sweep, liouville, audit, report.  Each run
ends in _finish: it writes the CSV artifact, prints a PASS or FAIL line per
check of the run and returns the exit code: 1 when a check failed, else 2
when a solve did not converge, else 0.  Data outside a scenario's
hypothesis, or a solve that breaks v >= sin(theta), exit 1, and a bad
configuration or usage exits 3, before any CSV is written.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import (BadConfig, CapillaryLabError, HypothesisViolation,
                     InvariantViolation)
from .harness import (AngleSweepRow, CheckResult, ReportRow, load_config,
                      run_angle_sweep, run_audit, run_conormal_check,
                      run_gradient_bound_sweep, run_liouville_experiment,
                      run_minimizer_test, run_solve_experiment, write_csv)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_NONCONVERGED = 2
EXIT_BADCONFIG = 3


def _checked(convert, ok, rule):
    """argparse type: convert the text and require ok(value); anything else
    is a usage error (exit 3) naming the rule."""
    def parse(text):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
    return parse


# the subcommands, in the order `capgraph --help` lists them
_COMMANDS = ("solve", "verify", "liouville", "report", "sweep", "audit")


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The `capgraph` parser for the arguments argv.  Where argv[0] names a
    subcommand, only that subcommand's parser is added: its help and errors
    read as with all six, as the usage line still names every subcommand.
    Otherwise all six are added, so help and errors list them."""
    wanted = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    parser = argparse.ArgumentParser(
        prog="capgraph",
        description="Capillary minimal graph laboratory on truncated half-spaces")
    # argparse names a subparsers action by its metavar where it has one,
    # so only the one-subparser parser, which cannot reach those messages,
    # gets the choice list of the usage line
    sub = parser.add_subparsers(dest="command", required=True, metavar=(
        None if wanted is _COMMANDS else "{" + ",".join(_COMMANDS) + "}"))

    def with_config(name, help_text):
        if name in wanted:
            cmd = sub.add_parser(name, help=help_text)
            cmd.add_argument("--config", required=True, help="flat key=value config file")
            cmd.add_argument("--out", default=None, help="CSV output path override")

    with_config("solve", "single truncated solve at the first (r, h) level")
    with_config("verify", "minimizer-test or conormal-check scenario")
    with_config("liouville", "flatness trend experiment over growing regions")
    with_config("report", "gradient-bound sweep with fitted constants")

    if "sweep" in wanted:
        sweep = sub.add_parser("sweep", help="angle range and constants table")
        sweep.add_argument("--n", default="4", help="comma list of dimensions",
                           type=_checked(lambda text: [int(p) for p in text.split(",")
                                                       if p.strip()],
                                         lambda ns: ns and min(ns) >= 2,
                                         "a comma list of integers >= 2"))
        sweep.add_argument("--theta-steps", default=90,
                           type=_checked(int, lambda k: k >= 1, "an integer >= 1"))
        sweep.add_argument("--sin-min", default=0.05,
                           type=_checked(float, lambda x: 0.0 < x < 1.0,
                                         "a number in (0, 1)"))
        sweep.add_argument("--out", default="angle_sweep.csv")

    if "audit" in wanted:
        audit = sub.add_parser("audit", help="property battery over the closed forms")
        audit.add_argument("--seed", default=0,
                           type=_checked(int, lambda k: k >= 0, "an integer >= 0"))
        audit.add_argument("--out", default="audit.csv")
    return parser


def _rows_summary(report) -> str:
    lines = []
    for row in report.rows:
        lines.append(
            f"  level {row.level}: r={row.r:g} h={row.h:g} "
            f"sup|Du|={row.sup_grad_inner:.6g} affine_dev={row.affine_dev:.3e} "
            f"v_min={row.v_min:.6g} iters={row.newton_iters} {row.status}")
    return "\n".join(lines)


def _finish(rows, table, out_path, checks=(), status="converged") -> int:
    """Write the CSV of `table` rows, print each check and the path, and
    return the exit code: 1 when a check failed, else 2 when the status is
    not converged."""
    write_csv(rows, out_path, table)
    for res in checks:
        print(f"  {'PASS' if res.passed else 'FAIL'} {res.check}: "
              f"value={res.value:.3e} threshold={res.threshold:.3e}")
    print(f"wrote {out_path}")
    if failed := [res.check for res in checks if not res.passed]:
        print(f"invariant violation: failed {', '.join(failed)}", file=sys.stderr)
        return EXIT_INVARIANT
    if status != "converged":
        print(f"solver status: {status}", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def _dispatch(args) -> int:
    if args.command == "sweep":
        lo = math.asin(args.sin_min) + 1e-9
        thetas = np.linspace(lo, math.pi - lo, args.theta_steps)
        rows = run_angle_sweep(args.n, thetas, sin_min=args.sin_min)
        print(f"angle sweep: {len(rows)} rows over n={args.n}")
        return _finish(rows, AngleSweepRow, args.out)

    if args.command == "audit":
        results = run_audit(seed=args.seed)
        return _finish(results, CheckResult, args.out, results)

    cfg = load_config(args.config)
    out = args.out or cfg.out_csv or f"{args.command}.csv"
    if args.command == "solve":
        report = run_solve_experiment(cfg)
    elif args.command == "liouville":
        report = run_liouville_experiment(cfg)
        if "one_sided_gap" in report.details:
            print(f"one-sided gradient gap at largest level: "
                  f"{report.details['one_sided_gap']:.3e}")
    elif args.command == "report":
        report = run_gradient_bound_sweep(cfg)
        fit = report.fit
        if fit is None:
            print("bound fit skipped: a family member did not converge")
        elif fit.degenerate:
            print("bound fit degenerate (constant M/r family): "
                  f"C1={fit.c1:.6g}, C2=C3=0")
        else:
            print(f"bound fit: C1={fit.c1:.6g} C2={fit.c2:.6g} C3={fit.c3:.6g} "
                  f"rms={fit.fit_residual:.3e}")
    elif cfg.scenario == "minimizer-test":      # verify, as are the two below
        report = run_minimizer_test(cfg)
        print(f"minimizer trials: {report.details['trials']}")
    elif cfg.scenario == "conormal-check":
        report = run_conormal_check(cfg)
        res = ", ".join(f"{x:.3e}" for x in report.details["residuals"])
        rat = ", ".join(f"{x:.2f}" for x in report.details["ratios"])
        print(f"conormal residuals: {res}")
        print(f"decay ratios per halving: {rat}")
    else:
        raise BadConfig(
            f"verify expects scenario minimizer-test or conormal-check, "
            f"got '{cfg.scenario}'")
    print(_rows_summary(report))
    return _finish(report.rows, ReportRow, out, report.checks,
                   report.worst_status)


def cli_main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_BADCONFIG
    try:
        return _dispatch(args)
    except (BadConfig, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADCONFIG
    except MemoryError as exc:
        # a config whose lattice fits the indices but not the memory
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_BADCONFIG
    except (InvariantViolation, HypothesisViolation) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except CapillaryLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADCONFIG


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
