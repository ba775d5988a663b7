"""Benchmark of the capgraph package: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mesh-ladder --seed 0 --seconds 25 --trace 0

With `--trace 0` it prints the end-to-end metrics: set-up time over fresh
processes, then untraced passes of the workload for `--seconds` seconds.
Times are reported at a fixed machine speed (see calibration.py); each
time line also gives the median as measured.
With `--trace 1` it alternates untraced and traced passes and prints the
per-layer metrics from the traced ones.  Every case of every pass is
checked.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  Spans of a traced run are written to
`.perfbench_work/<workload>-<seed>/trace.json`.

The exit code is 0 whenever a result line is printed, also when a case
failed its checks: failures are reported by the result's `correct` and
`failed` fields and by `FAIL` lines.  A nonzero exit code means that there
is no result, for instance because the checkout has no capgraph sources.
"""

from __future__ import annotations

import bootstrap  # noqa: F401  first: pins BLAS threads before numpy loads

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

SETUP_STARTS = 11          # fresh processes per set-up measurement
MIN_PASSES = 3             # measured passes of each kind, whatever --seconds says
SPLIT = ("solver.newton_solve", "solver.linear_solve")
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "finest_solve_s": "s",
                    "growth_per_halving": "ratio", "peak_rss_mb": "MB"}


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def measure_setup(workload: str, seed: int, cal) -> tuple[list[float], list[float]]:
    """Seconds from starting a fresh interpreter until it reports ready, as
    measured and at the calibration's reference speed."""
    cmd = [sys.executable, str(bootstrap.ROOT / "perfbench" / "setup_probe.py"),
           "--workload", workload, "--seed", str(seed)]
    raw, scaled = [], []
    before = cal.measure()
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            seconds = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        after = cal.measure()
        raw.append(seconds)
        scaled.append(seconds * cal.scale(before, after))
        before = after
    return raw, scaled


def run_pass(workload, checker, pass_index: int, recorder=None):
    """One pass over the workload's cases; returns the wall seconds, the
    coarse and fine ladder rung times and their Newton step counts."""
    gc.collect()
    runs = {}
    for case in workload.cases:
        if recorder is not None:
            recorder.case = f"{pass_index}:{case.name}"
        runs[case.name] = case.run(recorder)
        checker.check(pass_index, case.name, runs[case.name])
    wall = sum(run.seconds for run in runs.values())
    rungs = [runs[case].rung(index) for case, index in workload.ladder]
    steps = [runs[case].rung_steps(index) for case, index in workload.ladder]
    return wall, rungs, steps


def conditions(args, untraced: int, traced: int, cal) -> dict:
    import numpy
    import scipy
    from calibration import REFERENCE_S
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": bootstrap.thread_settings(),
        "untraced_passes": untraced, "traced_passes": traced,
        "setup_starts": SETUP_STARTS if args.trace == 0 else 0,
        "calibration_reference_s": REFERENCE_S,
        "calibration_median_s": summary(cal.samples)[0],
    }


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(bootstrap.ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT,
                             env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def print_metric(name: str, values: list[float], unit: str, raw=None) -> float:
    median, q1, q3 = summary(values)
    line = (f"  {name:<44} {median:12.6g} {unit:<6} "
            f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")
    if raw is not None:
        line += f"; as measured {summary(raw)[0]:.6g} {unit}"
    print(line)
    return median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mesh-ladder", "cli-scenarios", "closed-forms"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    try:
        bootstrap.use_checkout_sources()
    except bootstrap.MissingSources as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import calibration
    import checks
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](
        bootstrap.work_dir(args.workload, args.seed), args.seed)
    workload.write_inputs()
    cal = calibration.Calibration()
    setup_raw, setup = (measure_setup(args.workload, args.seed, cal)
                        if args.trace == 0 else ([], []))
    workload.set_up()
    checker = checks.Checker(args.workload, check_reference=(
        not workload.seeded or args.seed == checks.REFERENCE_SEED))

    _, _, rung_steps = run_pass(workload, checker, 0)   # warm-up, first output bytes
    # untraced passes: wall and fine rung as measured, then wall, coarse
    # and fine rung at the reference speed
    untraced, traced_walls, layer_runs, passes_spans, split = [], [], [], [], {}
    absent: set[str] = set()
    start = time.perf_counter()
    index = 0
    before = cal.measure()
    while (time.perf_counter() - start < args.seconds or len(untraced) < MIN_PASSES
           or (args.trace and len(traced_walls) < MIN_PASSES)):
        index += 1
        if args.trace and index % 2 == 0:
            recorder = tracing.Recorder()
            with tracing.traced(recorder, absent):
                wall, _, _ = run_pass(workload, checker, index, recorder)
        else:
            recorder = None
            wall, (coarse, fine), _ = run_pass(workload, checker, index)
        after = cal.measure()
        factor = cal.scale(before, after)
        before = after
        if recorder is None:
            untraced.append((wall, fine, wall * factor, coarse * factor, fine * factor))
            continue
        traced_walls.append(wall * factor)
        layer = tracing.layer_metrics(recorder)
        for name, (_, _, unit) in tracing.LAYER_METRICS.items():
            if unit == "s":
                layer[name] *= factor
        layer_runs.append(layer)
        passes_spans.append(tracing.spans_as_json(recorder.spans))
        split = tracing.case_split(recorder, SPLIT)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(untraced)} untraced and {len(traced_walls)} traced passes "
          f"after one warm-up pass")
    print(f"  times are seconds at the reference speed of calibration.py "
          f"(kernel {calibration.REFERENCE_S:g} s there, median "
          f"{summary(cal.samples)[0]:.6g} s over {len(cal.samples)} runs here)")
    if None not in rung_steps:
        (coarse_case, _), (fine_case, _) = workload.ladder
        print(f"  ladder rungs {coarse_case} and {fine_case}: "
              f"{rung_steps[0]} and {rung_steps[1]} Newton steps")
    raw_walls, raw_fine, walls, coarse, fine = (list(col) for col in zip(*untraced))
    metrics = {}
    if args.trace == 0:
        metrics["setup_s"] = print_metric("setup_s", setup, "s", setup_raw)
        metrics["wall_s"] = print_metric("wall_s", walls, "s", raw_walls)
        metrics["finest_solve_s"] = print_metric("finest_solve_s", fine, "s", raw_fine)
        # the two rungs of one pass ran seconds apart, so their ratio is
        # taken per pass before the median
        metrics["growth_per_halving"] = print_metric(
            "growth_per_halving", [f / c for c, f in zip(coarse, fine)], "ratio")
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"  {'peak_rss_mb':<44} {metrics['peak_rss_mb']:12.6g} MB")
        units = END_TO_END_UNITS
    else:
        for name, (_, _, unit) in tracing.LAYER_METRICS.items():
            metrics[name] = print_metric(name, [run[name] for run in layer_runs], unit)
        metrics[tracing.OVERHEAD] = summary(traced_walls)[0] / summary(walls)[0] - 1.0
        print(f"  {tracing.OVERHEAD:<44} {metrics[tracing.OVERHEAD]:12.6g} ratio "
              f"(traced wall {summary(traced_walls)[0]:.6g} s, "
              f"untraced wall {summary(walls)[0]:.6g} s)")
        units = {name: unit for name, (_, _, unit) in tracing.LAYER_METRICS.items()}
        units[tracing.OVERHEAD] = "ratio"
        for name in sorted(absent):
            print(f"  absent: {name} (no such function; its metrics read 0)")
        if split:
            print("solve split of the last traced pass, by case:")
        for case, seconds in split.items():
            newton, linear = seconds.values()
            share = f"{linear / newton:.0%}" if newton > 0 else "-"
            print(f"  {case.split(':', 1)[1]:<22} newton_solve {newton:.4g} s, "
                  f"linear_solve {linear:.4g} s ({share})")

    run_conditions = conditions(args, len(untraced), len(traced_walls), cal)
    if args.trace:
        trace_file = bootstrap.work_dir(args.workload, args.seed) / "trace.json"
        trace_file.write_text(json.dumps({
            "conditions": run_conditions, "absent": sorted(absent),
            "span_fields": ["name", "start", "end", "parent", "case"],
            "passes": passes_spans}), encoding="utf-8")
        print(f"spans written to {trace_file}")
    for problem in checker.problems[:20]:
        print(f"FAIL {problem}")
    print(f"fail_ratio {checker.failed}/{checker.attempted} cases")
    print("conditions: " + json.dumps(run_conditions))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
