"""Tests of the benchmark itself: span self times and shortened runs.

Run from the root of the checkout:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from tracing import Recorder, Span  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tree() -> Recorder:
    """cli.report [0, 10] holding harness.run_gradient_bound_sweep [1, 9],
    which holds two solves and a CSV write; a probe sits inside the first
    solve, and a second solve nests inside the first one's interval."""
    rec = Recorder()
    rec.spans = [
        Span("cli.report", 0.0, 10.0, -1, "c"),
        Span("harness.run_gradient_bound_sweep", 1.0, 9.0, 0, "c"),
        Span("solver.newton_solve", 2.0, 6.0, 1, "c"),
        Span("solver.linear_solve", 2.5, 4.0, 2, "c"),
        Span("trace.probe", 4.0, 4.5, 2, "c"),
        Span("solver.newton_solve", 4.5, 5.5, 2, "c"),
        Span("solver.newton_solve", 7.0, 8.0, 1, "c"),
        Span("harness.write_report_csv", 9.2, 9.7, 0, "c"),
    ]
    rec.counters["solver.newton_iters"] = 7
    return rec


def test_self_times_of_a_hand_built_tree():
    own = tracing.self_times(_tree().spans)
    assert own == pytest.approx([10 - 8 - 0.5, 8 - 4 - 1, 4 - 1.5 - 0.5 - 1,
                                 1.5, 0.5, 1.0, 1.0, 0.5])


def test_overlapping_and_overhanging_children_are_counted_once():
    spans = [Span("a", 0.0, 4.0, -1, ""), Span("b", 1.0, 3.0, 0, ""),
             Span("c", 2.0, 5.0, 0, "")]
    assert tracing.self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_of_a_hand_built_tree():
    m = tracing.layer_metrics(_tree())
    assert m["cli.report.s"] == pytest.approx(10.0)
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["harness.run.s"] == pytest.approx(8.0)
    assert m["harness.self_s"] == pytest.approx(3.0 + 0.5)
    assert m["harness.write_csv.s"] == pytest.approx(0.5)
    assert m["solver.newton_solve.calls"] == 3
    # the solve nested in another solve is not counted twice
    assert m["solver.newton_solve.s"] == pytest.approx(5.0)
    assert m["solver.newton_solve.self_s"] == pytest.approx(1.0 + 1.0 + 1.0)
    assert m["solver.linear_solve.s"] == pytest.approx(1.5)
    assert m["solver.newton_iters"] == 7
    assert m["estimates.choose_eps0.calls"] == 0


def test_traced_restores_the_originals_and_reports_absent_names(monkeypatch):
    import bootstrap
    bootstrap.use_checkout_sources()
    import capgraph.harness
    import capgraph.solver
    original = capgraph.solver.linear_solve
    monkeypatch.setitem(tracing.WRAPPED, "solver",
                        tracing.WRAPPED["solver"] + ("no_such_function",))
    absent = set()
    with tracing.traced(Recorder(), absent):
        assert capgraph.solver.linear_solve is not original
        assert capgraph.harness.newton_solve is capgraph.solver.newton_solve
    assert capgraph.solver.linear_solve is original
    assert absent == {"solver.no_such_function"}


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_prints_every_named_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        assert name in proc.stdout.rsplit("\n", 2)[0]
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "closed-forms", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
