"""The file ``benchmarks/record.py`` writes, one point of the performance
trajectory, on fixed numbers."""
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "record.py"
_SPEC = importlib.util.spec_from_file_location("record", _PATH)
record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(record)

ENV = {"numpy": "2.4.6", "blas_threads": 1, "commit": "8af7844"}
WORKLOADS = {"sparse-scale": {"pass_ms.p50": 19.5, "iters_total": 570, "solved_frac": 1.0}}


def _row(problem, method, wall_ms, status="converged"):
    return {"problem": problem, "method": method, "n": 50, "wall_ms": wall_ms,
            "status": status, "runs": []}


def test_summary_sums_wall_ms_and_counts_statuses_per_suite_and_method():
    rows = [_row("brown", "nrk", 4000.0, "max_iters"), _row("brown", "nrk", 25.5),
            _row("brown", "rbcnk", 0.75), _row("broyden", "rdcnk", 10.0, "breakdown"),
            _row("brown", "rbcnk", 0.25)]
    out = record.summarize("trial", WORKLOADS, rows, 34.5, ENV, True)
    assert out["label"] == "trial"
    assert (out["commit"], out["uncommitted"], out["environment"]) == ("8af7844", True, ENV)
    assert out["workloads"] == WORKLOADS
    bench = out["bench"]
    assert bench["command"] == "nlkaczmarz bench --suite all --repeats 1"
    assert bench["total_s"] == 34.5
    assert bench["suites"] == {
        "brown": {"wall_ms": 4026.5, "methods": {
            "nrk": {"wall_ms": 4025.5, "status": {"max_iters": 1, "converged": 1}},
            "rbcnk": {"wall_ms": 1.0, "status": {"converged": 2}}}},
        "broyden": {"wall_ms": 10.0, "methods": {
            "rdcnk": {"wall_ms": 10.0, "status": {"breakdown": 1}}}},
    }
    # suites and methods in name order, and the record is plain JSON
    assert list(bench["suites"]) == ["brown", "broyden"]
    assert json.loads(json.dumps(out)) == out


def test_label_must_be_a_plain_name(capsys):
    with pytest.raises(SystemExit):
        record.main(["../elsewhere"])
    assert "the label may hold only" in capsys.readouterr().err
