"""Tests of the solve benchmark itself: span self time, the per-solve check,
and the metric names it prints against ``BENCHMARK.json``.

Run from the repository root with ``python3 -m pytest perfbench``.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cells import WORKLOADS, cells, check
from spans import Tracer, layer_totals, self_times

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))
from nlkaczmarz import SolverReport, Status  # noqa: E402


def test_self_time_of_nested_spans():
    # root [0,100] holds a [10,40] and b [50,60]; a holds g [20,30]
    start = [0, 10, 20, 50]
    end = [100, 40, 30, 60]
    parent = [-1, 0, 1, 0]
    assert list(self_times(start, end, parent)) == [60, 20, 10, 10]


def test_self_time_counts_overlapping_children_once():
    # children [10,40] and [30,70] overlap on [30,40]; [90,120] is clipped to [90,100]
    start = [0, 10, 30, 90]
    end = [100, 40, 70, 120]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == 100 - 60 - 10


def test_traced_self_times_add_up_to_the_root_span():
    tracer = Tracer()

    def inner():
        return tracer.call("problems.residual", sum, range(1000))

    tracer.call("solvers.run", lambda: [tracer.call("system.residual", inner) for _ in range(3)])
    totals = layer_totals(tracer)
    assert {name: calls for name, (_, calls) in totals.items()} == {
        "solvers.run": 1, "system.residual": 3, "problems.residual": 3}
    assert sum(ns for ns, _ in totals.values()) == tracer.end[0] - tracer.start[0]


def _report(status=Status.CONVERGED, iters=24, residual_sq=5e-7):
    return SolverReport(status, iters, residual_sq)


def test_check_accepts_a_converged_solve_with_the_pinned_count():
    assert check(_report(), 24) is None
    assert check(_report(), None) is None


def test_check_rejects_a_wrong_iteration_count():
    assert "expected 24" in check(_report(iters=25), 24)


@pytest.mark.parametrize("status", [Status.MAX_ITERS, Status.BREAKDOWN])
def test_check_rejects_a_status_other_than_converged(status):
    assert "converged" in check(_report(status=status), 24)


def test_check_rejects_a_residual_at_the_tolerance():
    assert check(_report(residual_sq=1e-6), None) is not None


def test_seed_shifts_only_stochastic_cells():
    for workload in WORKLOADS:
        a, b = cells(workload, 0), cells(workload, 7)
        for x, y in zip(a, b):
            if x.pinned_iters is None:
                assert y.seed == x.seed + 7
            else:
                assert x == y
    assert [c.seed for c in cells("row-stream", 3)][:5] == [3, 4, 5, 6, 7]


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


def _checkout(tmp_path, with_src=True):
    """A copy of what the benchmark runs from: BENCHMARK.json, its paths and src."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    keep = ["src"] if with_src else []
    for rel in BENCHMARK["paths"] + keep:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    return tmp_path


def _bench(checkout, trace, workload="dense-block"):
    cmd = BENCHMARK["command"] + ["--workload", workload, "--seed", "0",
                                  "--seconds", "1", "--trace", str(trace)]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(tmp_path, trace, section):
    done = _bench(_checkout(tmp_path), trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_wrong_pinned_count_fails_the_run(tmp_path):
    checkout = _checkout(tmp_path)
    source = checkout / "perfbench" / "cells.py"
    text = source.read_text()
    assert '("h-equation", 300, "ngabk", 72)' in text
    source.write_text(text.replace('("h-equation", 300, "ngabk", 72)',
                                   '("h-equation", 300, "ngabk", 73)'))
    done = _bench(checkout, 0)
    assert done.returncode == 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1
    assert "expected 73" in done.stderr


def test_fails_without_printing_a_result_when_src_is_missing(tmp_path):
    done = _bench(_checkout(tmp_path, with_src=False), 0)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
