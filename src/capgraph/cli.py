"""Command-line entry point.

Subcommands: solve, verify, sweep, liouville, audit, report.  Each run
writes a CSV artifact plus a human-readable summary on stdout.  Exit codes:
0 success, 1 invariant violation, 2 non-convergence, 3 bad configuration
or usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .errors import (AngleOutOfRange, BadConfig, CapillaryLabError,
                     HypothesisViolation, InvariantViolation,
                     LinearSolveFailure)
from .harness import (ANGLE_SWEEP_COLUMNS, AUDIT_COLUMNS, REPORT_COLUMNS,
                      load_config, run_angle_sweep, run_audit,
                      run_conormal_check, run_gradient_bound_sweep,
                      run_liouville_experiment, run_minimizer_test,
                      run_solve_experiment, write_csv)

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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capgraph",
        description="Capillary minimal graph laboratory on truncated half-spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(name, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="flat key=value config file")
        cmd.add_argument("--out", default=None, help="CSV output path override")
        return cmd

    with_config("solve", "single truncated solve at the first (r, h) level")
    with_config("verify", "minimizer-test or conormal-check scenario")
    with_config("liouville", "flatness trend experiment over growing regions")
    with_config("report", "gradient-bound sweep with fitted constants")

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


def _finish(report, out_path) -> int:
    write_csv(report.rows, out_path, REPORT_COLUMNS)
    print(_rows_summary(report))
    print(f"wrote {out_path}")
    if report.worst_status != "converged":
        print(f"solver status: {report.worst_status}", file=sys.stderr)
        return EXIT_NONCONVERGED
    return EXIT_OK


def _dispatch(args) -> int:
    if args.command == "sweep":
        lo = math.asin(args.sin_min) + 1e-9
        thetas = np.linspace(lo, math.pi - lo, args.theta_steps)
        rows = run_angle_sweep(args.n, thetas, sin_min=args.sin_min)
        write_csv(rows, args.out, ANGLE_SWEEP_COLUMNS)
        print(f"angle sweep: {len(rows)} rows over n={args.n}")
        print(f"wrote {args.out}")
        return EXIT_OK

    if args.command == "audit":
        results = run_audit(seed=args.seed)
        write_csv(results, args.out, AUDIT_COLUMNS)
        failed = 0
        for res in results:
            tag = "PASS" if res.passed else "FAIL"
            print(f"  {tag} {res.name}: value={res.value:.3e} "
                  f"threshold={res.threshold:.3e}")
            failed += not res.passed
        print(f"wrote {args.out}")
        return EXIT_OK if failed == 0 else EXIT_INVARIANT

    cfg = load_config(args.config)
    out = args.out or cfg.out_csv or f"{args.command}.csv"

    if args.command == "solve":
        report = run_solve_experiment(cfg)
        return _finish(report, out)

    if args.command == "liouville":
        report = run_liouville_experiment(cfg)
        print(f"affine deviations: "
              f"{', '.join(f'{d:.3e}' for d in report.details['affine_devs'])}")
        if "one_sided_gap" in report.details:
            print(f"one-sided gradient gap at largest level: "
                  f"{report.details['one_sided_gap']:.3e}")
        return _finish(report, out)

    if args.command == "report":
        report = run_gradient_bound_sweep(cfg)
        fit = report.fit
        if fit.degenerate:
            print("bound fit degenerate (constant M/r family): "
                  f"C1={fit.c1:.6g}, C2=C3=0")
        else:
            print(f"bound fit: C1={fit.c1:.6g} C2={fit.c2:.6g} C3={fit.c3:.6g} "
                  f"rms={fit.fit_residual:.3e} drift/halving={fit.stability:.3f}")
        return _finish(report, out)

    if args.command == "verify":
        if cfg.scenario == "minimizer-test":
            report = run_minimizer_test(cfg)
            slope = report.details.get("min_quadratic_slope", float("nan"))
            print(f"minimizer trials: {report.details.get('trials', 0)}, "
                  f"min quadratic slope {slope:.3f}")
            code = _finish(report, out)
            if code == EXIT_OK and not (slope >= 1.9):
                print("quadratic model slope below 1.9", file=sys.stderr)
                return EXIT_INVARIANT
            return code
        if cfg.scenario == "conormal-check":
            report = run_conormal_check(cfg)
            res = ", ".join(f"{x:.3e}" for x in report.details["residuals"])
            rat = ", ".join(f"{x:.2f}" for x in report.details["ratios"])
            print(f"conormal residuals: {res}")
            print(f"decay ratios per halving: {rat}")
            return _finish(report, out)
        raise BadConfig(
            f"verify expects scenario minimizer-test or conormal-check, "
            f"got '{cfg.scenario}'")

    raise BadConfig(f"unknown subcommand {args.command!r}")


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_BADCONFIG
    try:
        return _dispatch(args)
    except (BadConfig, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADCONFIG
    except (InvariantViolation, HypothesisViolation, AngleOutOfRange) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except LinearSolveFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except CapillaryLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BADCONFIG


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
