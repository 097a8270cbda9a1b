"""Capture solver histories from a checkout and diff two captures bitwise.

A change that claims to leave the algorithm alone can be checked in two
commands: capture with the old source tree, capture with the new one, diff.

    python benchmarks/capture_histories.py capture old.pkl --src /path/to/old/src
    python benchmarks/capture_histories.py capture new.pkl
    python benchmarks/capture_histories.py diff old.pkl new.pkl

``capture`` runs every cell (problem, n, method, seed, x0 spec) and pickles
``{cell: (status, iters, final_residual_sq, history)}``.  A cell whose solve
raises stores ``("raised", 0, nan, [])`` with the exception type and message
in place of the status.  ``--src`` puts a source tree first on the import
path (default: this checkout's ``src``).  ``diff`` compares floats by their
bit patterns, prints one line per cell that changed, naming the first step
that differs, and exits 1 when any cell differs.
"""
from __future__ import annotations

import argparse
import math
import pickle
import struct
import sys
from pathlib import Path

DETERMINISTIC = ("ngabk", "mrnabk", "rbcnk", "newton")
STOCHASTIC = ("nrk", "rdcnk")
SIZES = {"h-equation": (20, 50), "brown": (20, 30, 50), "broyden": (30, 50),
         "overdetermined": (20, 100)}
SEEDS = range(4)
# starts away from each problem's default, including ones that overflow ||f||^2,
# and cells at benchmark sizes
EXTRA = (
    ("h-equation", 50, "nrk", 0, "const:1e200"),
    ("h-equation", 50, "rdcnk", 0, "const:1e200"),
    ("h-equation", 50, "ngabk", 0, "const:1e200"),
    ("brown", 30, "nrk", 0, "zeros"),
    ("broyden", 50, "nrk", 0, "const:1e160"),
    ("overdetermined", 500, "nrk", 0, "default"),
    ("overdetermined", 500, "nrk", 1, "default"),
    # the dense-block benchmark's sizes
    ("h-equation", 300, "ngabk", 0, "default"),
    ("h-equation", 300, "mrnabk", 0, "default"),
    ("h-equation", 300, "rbcnk", 0, "default"),
    ("h-equation", 500, "ngabk", 0, "default"),
    ("h-equation", 500, "mrnabk", 0, "default"),
    ("h-equation", 500, "rbcnk", 0, "default"),
)
MAX_ITERS = 50_000


def default_cells():
    cells = []
    for problem, sizes in SIZES.items():
        for n in sizes:
            cells += [(problem, n, m, 0, "default") for m in DETERMINISTIC]
            cells += [(problem, n, m, s, "default") for m in STOCHASTIC for s in SEEDS]
    return cells + list(EXTRA)


def capture(cells):
    import numpy as np
    from nlkaczmarz import SolverConfig, get_problem, run

    out = {}
    for problem, n, method, seed, x0 in cells:
        prob = get_problem(problem, n)
        if x0 == "default":
            start = prob.x0
        elif x0 == "zeros":
            start = np.zeros(prob.system.n)
        else:
            start = float(x0[len("const:"):]) * np.ones(prob.system.n)
        cfg = SolverConfig(method=method, seed=seed, max_iters=MAX_ITERS)
        try:
            r = run(prob.system, start, cfg)
            out[(problem, n, method, seed, x0)] = (
                r.status.value, r.iters, r.final_residual_sq,
                [(int(k), float(r2), int(b), float(s)) for k, r2, b, s in r.history])
        except Exception as exc:  # recorded, so a diff shows the change of outcome
            out[(problem, n, method, seed, x0)] = (
                f"raised {type(exc).__name__}: {exc}", 0, math.nan, [])
    return out


def _bits(value):
    return struct.pack("<d", value) if isinstance(value, float) else value


def first_difference(a, b):
    """Index of the first history entry that differs bitwise, or None."""
    for i, (ra, rb) in enumerate(zip(a, b)):
        if tuple(map(_bits, ra)) != tuple(map(_bits, rb)):
            return i
    return None if len(a) == len(b) else min(len(a), len(b))


def diff(old, new) -> int:
    changed = 0
    for cell in sorted(old.keys() | new.keys()):
        if cell not in old or cell not in new:
            print(f"{cell}: only in {'new' if cell in new else 'old'} capture")
            changed += 1
            continue
        (s0, k0, f0, h0), (s1, k1, f1, h1) = old[cell], new[cell]
        step = first_difference(h0, h1)
        if s0 == s1 and k0 == k1 and _bits(f0) == _bits(f1) and step is None:
            continue
        changed += 1
        where = "" if step is None else f", history differs from step {step}"
        print(f"{cell}: {s0} after {k0} -> {s1} after {k1}{where}")
    print(f"{len(old.keys() & new.keys())} cells compared, {changed} differ")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("capture", help="run every cell and pickle the outcomes")
    p.add_argument("out")
    p.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    p = sub.add_parser("diff", help="compare two captures bitwise")
    p.add_argument("old")
    p.add_argument("new")
    args = parser.parse_args(argv)

    if args.command == "capture":
        sys.path.insert(0, args.src)
        outcomes = capture(default_cells())
        with open(args.out, "wb") as fh:
            pickle.dump(outcomes, fh)
        print(f"{len(outcomes)} cells written to {args.out}")
        return 0
    with open(args.old, "rb") as fh:
        old = pickle.load(fh)
    with open(args.new, "rb") as fh:
        new = pickle.load(fh)
    return diff(old, new)


if __name__ == "__main__":
    raise SystemExit(main())
