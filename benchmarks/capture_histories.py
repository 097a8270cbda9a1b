"""Record every solver history in a committed manifest, and check against it.

    python benchmarks/capture_histories.py record   # writes benchmarks/histories.json
    python benchmarks/capture_histories.py check    # exits 1 if anything differs

Both run every cell (problem, n, method, seed, x0 spec): a grid of small
sizes, a few starts away from the defaults, and every cell of the solve
benchmark in ``perfbench/cells.py`` (stochastic cells with seeds 0..k-1).
Per cell, keyed ``problem/n/method/seed/x0``, the manifest keeps the status
(``raised`` if the solve raises, with the exception as the message), the
iteration count, ``float.hex()`` of the final ||f||^2, the message and the
first 32 hex digits of the SHA-256 of the history records packed as
``<qdqd`` and then the final ||f||^2, and the evaluation counters
(``residual_evals``, ``row_gradient_evals``, ``jacobian_evals``) of the
cell's solve, which builds its own problem.  It also records the NumPy
version and the BLAS name, version and thread count, read as
``perfbench/run.py`` does.
``check`` prints one line per cell or environment value that differs.

The capture runs with one BLAS thread, as ``perfbench`` does, because the
RB-CNK block solve rounds differently with more than one.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

# perfbench's run pins one BLAS thread when it is imported, so it comes
# before anything that loads NumPy
from run import environment  # noqa: E402
from cells import WORKLOADS, cells as workload_cells  # noqa: E402
from nlkaczmarz import SolverConfig, get_problem, run  # noqa: E402
from nlkaczmarz.cli import _initial_point  # noqa: E402
from nlkaczmarz.solvers import RANDOM_ROW, Method  # noqa: E402

MANIFEST = ROOT / "benchmarks" / "histories.json"
ENVIRONMENT = ("numpy", "blas", "blas_version", "blas_threads")
DETERMINISTIC = tuple(m.value for m in Method if m not in RANDOM_ROW)
STOCHASTIC = tuple(m.value for m in RANDOM_ROW)
SIZES = {"h-equation": (20, 50), "brown": (20, 30, 50), "broyden": (30, 50),
         "overdetermined": (20, 100)}
SEEDS = range(4)
# starts away from each problem's default, including ones that overflow ||f||^2
EXTRA = (
    ("h-equation", 50, "nrk", 0, "const:1e200"),
    ("h-equation", 50, "rdcnk", 0, "const:1e200"),
    ("h-equation", 50, "ngabk", 0, "const:1e200"),
    ("h-equation", 50, "mrnabk", 0, "const:1e200"),
    ("brown", 30, "nrk", 0, "zeros"),
    ("broyden", 50, "nrk", 0, "const:1e160"),
    # RB-CNK at the dense-block benchmark's larger sizes
    ("h-equation", 300, "rbcnk", 0, "default"),
    ("h-equation", 500, "rbcnk", 0, "default"),
    # RB-CNK where the Jacobian is singular at the root: the blocks most
    # likely to leave the Gram solve for lstsq
    ("broyden", 500, "rbcnk", 0, "default"),
    ("broyden", 2000, "rbcnk", 0, "default"),
    # RD-CNK where the H-equation's row norms are the step's largest cost
    ("h-equation", 100, "rdcnk", 0, "default"),
    ("h-equation", 300, "rdcnk", 0, "default"),
    # seeds 0..3 of both seeded methods on the overdetermined n = 500 system,
    # beyond the seeds the benchmark runs
    ("overdetermined", 500, "nrk", 3, "default"),
    ("overdetermined", 500, "rdcnk", 1, "default"),
    ("overdetermined", 500, "rdcnk", 2, "default"),
    ("overdetermined", 500, "rdcnk", 3, "default"),
    # single-row steps far from the default start, where the residual
    # refreshed on the rows a projection touches meets huge or negative x
    ("overdetermined", 100, "nrk", 0, "const:1e100"),
    ("overdetermined", 100, "rdcnk", 0, "const:-7"),
    ("broyden", 30, "rdcnk", 0, "const:1e30"),
    # RD-CNK on systems so small that the row norms refreshed after a
    # projection are clipped at both ends
    ("broyden", 2, "rdcnk", 0, "default"),
    ("broyden", 3, "rdcnk", 0, "default"),
    ("overdetermined", 2, "rdcnk", 0, "default"),
    ("overdetermined", 3, "rdcnk", 0, "default"),
)
MAX_ITERS = 50_000


def benchmark_cells():
    """Every cell of every workload in ``perfbench/cells.py``, seeds from 0."""
    return [(c.problem, c.n, c.method, c.seed, "default")
            for workload in WORKLOADS for c in workload_cells(workload, 0)]


def default_cells():
    cells = []
    for problem, sizes in SIZES.items():
        for n in sizes:
            cells += [(problem, n, m, 0, "default") for m in DETERMINISTIC]
            cells += [(problem, n, m, s, "default") for m in STOCHASTIC for s in SEEDS]
    # a cell listed twice is run once
    return list(dict.fromkeys(cells + list(EXTRA) + benchmark_cells()))


def digest(history, final_residual_sq):
    h = hashlib.sha256()
    for k, r2, block_size, step in history:
        h.update(struct.pack("<qdqd", k, r2, block_size, step))
    h.update(struct.pack("<d", final_residual_sq))
    return h.hexdigest()[:32]


def capture(cells):
    """``{"problem/n/method/seed/x0": entry}`` for every cell, in key order."""
    out = {}
    for problem, n, method, seed, x0 in cells:
        prob = get_problem(problem, n)
        cfg = SolverConfig(method=method, seed=seed, max_iters=MAX_ITERS)
        try:
            r = run(prob.system, _initial_point(x0, prob), cfg)
            status, iters, final, history, message = (
                r.status.value, r.iters, r.final_residual_sq, r.history, r.message)
        except Exception as exc:  # recorded, so a check shows the change of outcome
            status, iters, final, history, message = (
                "raised", 0, float("nan"), [], f"{type(exc).__name__}: {exc}")
        out[f"{problem}/{n}/{method}/{seed}/{x0}"] = {
            "status": status, "iters": iters, "final_residual_sq": final.hex(),
            "message": message, "digest": digest(history, final),
            **vars(prob.system.counters)}
    return dict(sorted(out.items()))


def check(recorded, found) -> int:
    """Print one line per value of ``found`` that differs from ``recorded``;
    1 if any does, else 0."""
    differ = 0
    for key in ENVIRONMENT:
        old, new = recorded["environment"].get(key), found["environment"][key]
        if old != new:
            print(f"environment {key}: recorded {old!r}, found {new!r}")
            differ += 1
    old_cells, new_cells = recorded["cells"], found["cells"]
    for cell in sorted(old_cells.keys() | new_cells.keys()):
        if cell not in new_cells:
            changed = ["no longer captured"]
        elif cell not in old_cells:
            changed = ["not in the manifest"]
        else:
            old, new = old_cells[cell], new_cells[cell]
            changed = [f"{field} {old[field]!r} -> {new[field]!r}"
                       for field in old if old[field] != new[field]]
        if changed:
            print(f"{cell}: {', '.join(changed)}")
            differ += 1
    print(f"{len(new_cells)} cells checked against {MANIFEST.name}, {differ} differences")
    return 1 if differ else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("record", help=f"capture every cell and write {MANIFEST.name}")
    sub.add_parser("check", help=f"capture every cell and compare with {MANIFEST.name}")
    args = parser.parse_args(argv)

    env = environment()
    found = {"environment": {key: env[key] for key in ENVIRONMENT},
             "cells": capture(default_cells())}
    if args.command == "record":
        MANIFEST.write_text(json.dumps(found, indent=2) + "\n")
        print(f"{len(found['cells'])} cells written to {MANIFEST.relative_to(ROOT)}")
        return 0
    return check(json.loads(MANIFEST.read_text()), found)


if __name__ == "__main__":
    raise SystemExit(main())
