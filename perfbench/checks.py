"""Output checks that decide whether a case failed.

A case fails when it returns a nonzero exit code, reports a solver status
other than `converged`, writes bytes that differ from its first pass in the
same run, or (on the reference seed) gives values outside the reference
tolerance.  The tolerance sits between solver roundoff and discretisation
error, so a correct change to the solver still passes; see README.md.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"
REFERENCE_SEED = 0
RTOL = 1e-6
ATOL = 1e-9


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def _close(got, ref) -> bool:
    try:
        a, b = float(got), float(ref)
    except (TypeError, ValueError):
        return got == ref
    if a == b:
        return True
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= ATOL + RTOL * abs(b)


def compare_table(got: dict, ref: dict) -> list[str]:
    """Differences between a case's values and its reference values."""
    if sorted(got) != sorted(ref):
        return [f"columns {sorted(got)} differ from the reference {sorted(ref)}"]
    problems = []
    for key, ref_values in ref.items():
        values = got[key]
        if len(values) != len(ref_values):
            problems.append(f"{key}: {len(values)} values, reference has "
                            f"{len(ref_values)}")
            continue
        for i, (a, b) in enumerate(zip(values, ref_values)):
            if not _close(a, b):
                problems.append(f"{key}[{i}] = {a}, reference {b}")
                break
    return problems


class Checker:
    """Checks every run of every case of one workload and counts failures."""

    def __init__(self, workload: str, check_reference: bool):
        self.reference = load_reference()["workloads"][workload] \
            if check_reference else None
        self.first_output: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, pass_index: int, case: str, run) -> None:
        problems = []
        if run.exit_code != 0:
            problems.append(f"exit code {run.exit_code}")
        bad = [s for s in run.statuses if s != "converged"]
        if bad:
            problems.append(f"status {bad[0]}")
        first = self.first_output.setdefault(case, run.output)
        if run.output != first:
            problems.append("output bytes differ from the first pass")
        if self.reference is not None:
            problems += compare_table(run.table, self.reference[case])
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"pass {pass_index} {case}: {p}" for p in problems]
