"""Span recorder for the traced run and the per-layer metrics built from it.

A traced pass wraps public capgraph functions by name.  The wrapper goes on
every capgraph module attribute that holds the original function, because
the modules import each other's functions by name (`capgraph.solver` calls
its own `linear_solve` and the `quadrant_gradients` it imported from
`capgraph.capillary`).  Spans stay in memory; the caller writes them out
when the run ends.  Private functions are not wrapped, so their time shows
as self time of the public function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Defining module -> public functions wrapped in a traced pass.
WRAPPED = {
    "harness": ("load_config", "run_solve_experiment", "run_liouville_experiment",
                "run_gradient_bound_sweep", "run_minimizer_test",
                "run_conormal_check", "run_angle_sweep", "run_audit",
                "write_report_csv", "write_angle_sweep_csv", "write_audit_csv"),
    "solver": ("newton_solve", "linear_solve", "discrete_gradient"),
    "capillary": ("quadrant_gradients", "capillary_energy",
                  "capillary_area_element"),
    "geometry": ("build_grid", "inner_node_set", "in_region"),
    "estimates": ("choose_eps0", "cutoff_derivative_check",
                  "angle_condition_lower_bound", "conormal_stationarity_residual"),
}

# Spans the benchmark itself opens around each in-process CLI command.
CLI_SPANS = tuple(f"cli.{cmd}" for cmd in
                  ("solve", "liouville", "report", "verify", "audit", "sweep"))
# Span around work a hook does after a wrapped call returns; it is nobody's
# self time.
PROBE = "trace.probe"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int      # index of the enclosing span, -1 at the root
    case: str        # the benchmark case that was running


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.case = ""
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.case))
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)


def patch_everywhere(module: str, name: str, make_wrapper):
    """Replace `capgraph.<module>.<name>` by `make_wrapper(original)` in every
    loaded capgraph module that holds it.  Returns a function that restores
    the originals, or None when the name is absent."""
    original = getattr(importlib.import_module(f"capgraph.{module}"), name, None)
    if original is None:
        return None
    wrapper = make_wrapper(original)
    holders = [mod for key, mod in list(sys.modules.items())
               if (key == "capgraph" or key.startswith("capgraph."))
               and getattr(mod, name, None) is original]
    for mod in holders:
        setattr(mod, name, wrapper)

    def undo():
        for mod in holders:
            setattr(mod, name, original)
    return undo


# ---------------------------------------------------------------------------
# Hooks: counts taken after a wrapped call returns
# ---------------------------------------------------------------------------

def _after_linear_solve(rec: Recorder, args, kwargs, result) -> None:
    system = args[0] if args else kwargs.get("system")
    matrix = getattr(system, "matrix", None)
    rhs = getattr(system, "rhs", None)
    if matrix is None or rhs is None:
        return
    rec.counters["solver.linear_solve.unknowns"] += matrix.shape[0]
    rec.counters["solver.linear_solve.nnz"] += getattr(matrix, "nnz", 0)
    # bytes of the stored CSR arrays, computed from their sizes
    rec.counters["solver.linear_solve.matrix_bytes"] += sum(
        getattr(matrix, part).nbytes for part in ("data", "indices", "indptr")
        if hasattr(matrix, part))
    bnorm = float(np.linalg.norm(rhs))
    if bnorm > 0.0:
        rel = float(np.linalg.norm(rhs - matrix @ result)) / bnorm
        key = "solver.linear_solve.rel_residual_max"
        rec.maxima[key] = max(rec.maxima[key], rel)


def _after_newton_solve(rec: Recorder, args, kwargs, result) -> None:
    report = result[1] if isinstance(result, tuple) and len(result) > 1 else None
    rec.counters["solver.newton_iters"] += getattr(report, "iterations", 0)


def _after_write_csv(rec: Recorder, args, kwargs, result) -> None:
    path = args[1] if len(args) > 1 else kwargs.get("path")
    if path is not None and os.path.exists(path):
        rec.counters["harness.write_csv.bytes"] += os.path.getsize(path)


HOOKS = {
    "solver.linear_solve": _after_linear_solve,
    "solver.newton_solve": _after_newton_solve,
    "harness.write_report_csv": _after_write_csv,
    "harness.write_angle_sweep_csv": _after_write_csv,
    "harness.write_audit_csv": _after_write_csv,
}


def _traced(fn, name: str, rec: Recorder, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if hook is not None:
            with rec.span(PROBE):
                hook(rec, args, kwargs, result)
        return result
    return wrapper


@contextmanager
def traced(rec: Recorder, absent: set[str]):
    """Wrap every name in WRAPPED for the duration of the block, recording
    into `rec`; names the program no longer has are added to `absent`."""
    undos = []
    try:
        for module, names in WRAPPED.items():
            for name in names:
                span_name = f"{module}.{name}"
                undo = patch_everywhere(
                    module, name, lambda fn, s=span_name:
                    _traced(fn, s, rec, HOOKS.get(s)))
                if undo is None:
                    absent.add(span_name)
                else:
                    undos.append(undo)
        yield rec
    finally:
        for undo in reversed(undos):
            undo()


# ---------------------------------------------------------------------------
# Self times and per-layer metrics
# ---------------------------------------------------------------------------

def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [span.end - span.start - _covered(children[i], span.start, span.end)
            for i, span in enumerate(spans)]


def _names(module: str) -> tuple[str, ...]:
    return tuple(f"{module}.{name}" for name in WRAPPED[module])


HARNESS_RUNS = tuple(n for n in _names("harness") if n.startswith("harness.run_"))
HARNESS_WRITERS = tuple(n for n in _names("harness") if n.startswith("harness.write_"))

# metric -> (kind, span names or counter key, unit)
#   s:      seconds in the spans, a span inside another of the set not counted twice
#   self_s: seconds in the spans minus their child spans
#   calls:  number of spans
#   count / max: sum / maximum of a counter recorded by a hook
LAYER_METRICS = {
    **{f"{name}.s": ("s", (name,), "s") for name in CLI_SPANS},
    "cli.self_s": ("self_s", CLI_SPANS, "s"),
    "harness.run.s": ("s", HARNESS_RUNS, "s"),
    "harness.self_s": ("self_s", _names("harness"), "s"),
    "harness.load_config.s": ("s", ("harness.load_config",), "s"),
    "harness.write_csv.s": ("s", HARNESS_WRITERS, "s"),
    "harness.write_csv.bytes": ("count", "harness.write_csv.bytes", "B"),
    "solver.newton_solve.calls": ("calls", ("solver.newton_solve",), "count"),
    "solver.newton_solve.s": ("s", ("solver.newton_solve",), "s"),
    "solver.newton_solve.self_s": ("self_s", ("solver.newton_solve",), "s"),
    "solver.newton_iters": ("count", "solver.newton_iters", "count"),
    "solver.linear_solve.calls": ("calls", ("solver.linear_solve",), "count"),
    "solver.linear_solve.s": ("s", ("solver.linear_solve",), "s"),
    "solver.linear_solve.unknowns": ("count", "solver.linear_solve.unknowns", "count"),
    "solver.linear_solve.nnz": ("count", "solver.linear_solve.nnz", "count"),
    "solver.linear_solve.matrix_bytes": ("count", "solver.linear_solve.matrix_bytes", "B"),
    "solver.linear_solve.rel_residual_max": (
        "max", "solver.linear_solve.rel_residual_max", "ratio"),
    "solver.discrete_gradient.calls": ("calls", ("solver.discrete_gradient",), "count"),
    "solver.discrete_gradient.s": ("s", ("solver.discrete_gradient",), "s"),
    "capillary.quadrant_gradients.calls": (
        "calls", ("capillary.quadrant_gradients",), "count"),
    "capillary.quadrant_gradients.s": ("s", ("capillary.quadrant_gradients",), "s"),
    "capillary.capillary_energy.calls": ("calls", ("capillary.capillary_energy",), "count"),
    "capillary.capillary_energy.s": ("s", ("capillary.capillary_energy",), "s"),
    "capillary.capillary_area_element.s": (
        "s", ("capillary.capillary_area_element",), "s"),
    "geometry.build_grid.calls": ("calls", ("geometry.build_grid",), "count"),
    "geometry.build_grid.s": ("s", ("geometry.build_grid",), "s"),
    "geometry.inner_node_set.calls": ("calls", ("geometry.inner_node_set",), "count"),
    "geometry.inner_node_set.s": ("s", ("geometry.inner_node_set",), "s"),
    "geometry.in_region.s": ("s", ("geometry.in_region",), "s"),
    "estimates.choose_eps0.calls": ("calls", ("estimates.choose_eps0",), "count"),
    "estimates.choose_eps0.s": ("s", ("estimates.choose_eps0",), "s"),
    "estimates.cutoff_derivative_check.s": (
        "s", ("estimates.cutoff_derivative_check",), "s"),
    "estimates.angle_condition_lower_bound.calls": (
        "calls", ("estimates.angle_condition_lower_bound",), "count"),
    "estimates.conormal_stationarity_residual.s": (
        "s", ("estimates.conormal_stationarity_residual",), "s"),
}
OVERHEAD = "trace.overhead_ratio"


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    spans = rec.spans
    own = self_times(spans)
    out = {}
    for metric, (kind, source, _unit) in LAYER_METRICS.items():
        if kind == "count":
            out[metric] = float(rec.counters.get(source, 0.0))
            continue
        if kind == "max":
            out[metric] = float(rec.maxima.get(source, 0.0))
            continue
        names = set(source)
        picked = [i for i, span in enumerate(spans) if span.name in names]
        if kind == "calls":
            out[metric] = float(len(picked))
        elif kind == "self_s":
            out[metric] = sum(own[i] for i in picked)
        else:
            out[metric] = sum(spans[i].end - spans[i].start for i in picked
                              if not _inside_same_set(spans, i, names))
    return out


def case_split(rec: Recorder, names: tuple[str, ...]) -> dict[str, dict[str, float]]:
    """Seconds in each of the named spans, per benchmark case."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: dict.fromkeys(names, 0.0))
    for i, span in enumerate(rec.spans):
        if span.name in names and not _inside_same_set(rec.spans, i, {span.name}):
            out[span.case][span.name] += span.end - span.start
    return dict(out)


def _inside_same_set(spans: list[Span], index: int, names: set[str]) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def spans_as_json(spans: list[Span]) -> list[list]:
    return [[s.name, s.start, s.end, s.parent, s.case] for s in spans]
