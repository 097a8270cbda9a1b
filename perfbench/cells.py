"""Workloads of the solve benchmark and the check applied to every solve.

A workload is a fixed list of cells (problem, n, method, seed).  Every cell
starts from the problem's default ``x0`` with the default ``SolverConfig``
apart from its method and seed.  Deterministic cells carry the iteration
count pinned at the seed commit, from ``tests/test_acceptance.py`` where it
pins one.  Stochastic cells (NRK and RD-CNK) take their seeds from the
benchmark's ``--seed s`` as s, s+1, ... within each group.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

TOL_SQ = 1e-6  # the default stopping tolerance on ||f||^2

# (problem, n, method, pinned iterations) for a deterministic cell;
# (problem, n, method, None, k) for k stochastic cells seeded s .. s+k-1.
WORKLOADS = {
    # Fully dense H-equation rows: block row access, the dense residual K@x,
    # the averaged direction and the RB-CNK least-squares step do the work.
    "dense-block": (
        ("h-equation", 300, "ngabk", 72),
        ("h-equation", 300, "mrnabk", 24),
        ("h-equation", 500, "ngabk", 78),
        ("h-equation", 500, "mrnabk", 24),
        ("h-equation", 100, "rbcnk", 66),
    ),
    # Thousands of ~40 us single-row iterations: fixed per-call costs of the
    # run loop, the evaluation wrapper and row sampling dominate.
    "row-stream": (
        ("h-equation", 50, "nrk", None, 5),
        ("broyden", 50, "nrk", None, 5),
        ("overdetermined", 500, "nrk", None, 3),
        ("broyden", 50, "rdcnk", None, 2),
    ),
    # Rows with 1-3 nonzeros (or 1 + e_i) materialized dense, and RD-CNK's
    # full m x n Jacobian per iteration: full-Jacobian and block access.
    "sparse-scale": (
        ("broyden", 500, "mrnabk", 33),
        ("broyden", 2000, "mrnabk", 31),
        ("overdetermined", 2000, "mrnabk", 2),
        ("overdetermined", 2000, "ngabk", 2),
        ("overdetermined", 500, "rdcnk", None, 1),
        ("brown", 400, "ngabk", 1),
        ("brown", 400, "rbcnk", 1),
    ),
}


# The yardstick (speed.py) that scales each workload's timed metrics: the one
# whose scaled pass times drifted least over 20 s windows on a 2-vCPU x86-64 VM
# (coefficient of variation across windows, loop vs kaczmarz: dense-block
# 2.2% vs 6.0%, row-stream 5.9% vs 1.5%, sparse-scale 3.9% vs 9.4%; wall
# time 10-13%).
YARDSTICK = {"dense-block": "loop", "row-stream": "kaczmarz", "sparse-scale": "loop"}


@dataclass(frozen=True)
class Cell:
    problem: str
    n: int
    method: str
    seed: int = 0  # the SolverConfig default; only NRK and RD-CNK draw from it
    pinned_iters: Optional[int] = None


def cells(workload: str, seed: int) -> list[Cell]:
    """The cells of ``workload`` with stochastic seeds shifted to ``seed``."""
    out = []
    for problem, n, method, pinned, *count in WORKLOADS[workload]:
        if pinned is not None:
            out.append(Cell(problem, n, method, pinned_iters=pinned))
        else:
            out.extend(Cell(problem, n, method, seed=seed + k) for k in range(count[0]))
    return out


def check(report, expected_iters: Optional[int]) -> Optional[str]:
    """Why a solve's report is wrong, or None when it is correct.

    A correct solve converged below ``TOL_SQ`` and, when an expected count is
    given, took exactly that many iterations.
    """
    if report.status != "converged":
        return f"status {report.status.value}, expected converged"
    if not report.final_residual_sq < TOL_SQ:
        return f"final ||f||^2 {report.final_residual_sq!r} not below {TOL_SQ}"
    if expected_iters is not None and report.iters != expected_iters:
        return f"{report.iters} iterations, expected {expected_iters}"
    return None
