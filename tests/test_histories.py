"""Every captured solver history pinned bit for bit, and the averaged
methods' iteration counts pinned exactly.

``benchmarks/capture_histories.py check`` runs once, in a fresh interpreter
that pins one BLAS thread before NumPy loads, and compares every cell with
the committed manifest ``benchmarks/histories.json``.  The whole check is
one test, so a NumPy or BLAS other than the recorded one fails it, naming
both; each manifest cell is one more, so a moved history fails by name.  A
change that moves a history on purpose re-records the manifest in the same
commit and names each moved cell, and why, in CHANGES.md.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

from nlkaczmarz import SolverConfig, get_problem, run

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "capture_histories.py"
CELLS = json.loads(SCRIPT.with_name("histories.json").read_text())["cells"]

# (problem, n, method): iterations of the deterministic averaged methods
AVERAGED_COUNTS = {
    ("h-equation", 100, "ngabk"): 66,
    ("h-equation", 100, "mrnabk"): 21,
    ("h-equation", 300, "ngabk"): 72,
    ("h-equation", 300, "mrnabk"): 24,
    ("h-equation", 500, "ngabk"): 78,
    ("h-equation", 500, "mrnabk"): 24,
}


@pytest.fixture(scope="module")
def checked():
    return subprocess.run([sys.executable, str(SCRIPT), "check"], capture_output=True,
                          text=True, timeout=600)


def test_histories_match_the_manifest(checked):
    assert checked.returncode == 0, checked.stdout + checked.stderr


@pytest.mark.parametrize("cell", CELLS,
                         ids=lambda c: c.removesuffix("/default").replace("/", "-"))
def test_history_is_bitwise_unchanged(checked, cell):
    moved = [line for line in checked.stdout.splitlines() if line.startswith(f"{cell}: ")]
    assert not moved, moved


@pytest.mark.parametrize("cell", sorted(AVERAGED_COUNTS), ids=lambda c: "-".join(map(str, c)))
def test_averaged_iteration_count_is_pinned(cell):
    problem, n, method = cell
    prob = get_problem(problem, n)
    report = run(prob.system, prob.x0, SolverConfig(method=method))
    assert report.status.value == "converged"
    assert report.iters == AVERAGED_COUNTS[cell]
