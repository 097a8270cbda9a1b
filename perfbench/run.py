"""Closed-loop solve benchmark for nlkaczmarz.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense-block --seed 1 --seconds 30 --trace 0

One process runs one workload with one client: each solve starts when the
previous one returns.  A pass solves every cell of the workload once
(``cells.py``), and every solve is checked.  ``--trace 0`` measures passes
for ``--seconds`` and reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes for ``--seconds`` and reports the
per-layer split (``spans.py``).  The last line of standard output is the
JSON result; the full record, with the environment, goes to
``.perfbench_out/`` in the checkout.  The exit code is 1 when any solve
fails its check and 2 when the checkout holds no ``src/nlkaczmarz``.

The timed metrics (``pass_ms.*``, ``iters_per_s``, ``setup_s``) are scaled
to a reference CPU speed measured beside every solve and around every
set-up (``speed.py``), because the speed a process gets on a small shared
machine drifts by up to 2x over tens of seconds.  The unscaled wall-time
figures are printed and recorded next to them.
"""
import os

# One BLAS thread, pinned before anything imports NumPy: on two cores the
# default two OpenBLAS threads were both slower and noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Optional  # noqa: E402

from cells import WORKLOADS, YARDSTICK, Cell, cells, check  # noqa: E402
from speed import speed  # noqa: E402
from spans import (MODULE_FUNCTIONS, ROOT_SPAN, STATS_SPAN, SYSTEM_METHODS,  # noqa: E402
                   Tracer, installed, layer_totals)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 3  # set-ups per untraced run: this process plus two fresh interpreters
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

# Layers whose self time and call count are reported per traced pass.
TIMED_LAYERS = (
    ROOT_SPAN,
    *(f"system.{m}" for m in SYSTEM_METHODS),
    *(f"{module}.{attr}" for module, attr in MODULE_FUNCTIONS),
)


@dataclass
class Solve:
    cell: Cell
    system: Any  # nlkaczmarz.NonlinearSystem, imported inside the timed set-up
    x0: Any
    cfg: Any
    expected_iters: Optional[int] = None


class Tally:
    """Solves attempted and failed in this process, with the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, solve, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.errors) < 20:
                c = solve.cell
                self.errors.append(f"{c.problem} n={c.n} {c.method} seed={c.seed}: {reason}")


def set_up(workload, seed, tally):
    """Import the package, build every cell's problem and solve each cell once
    untimed.  Returns the solves and a record of the set-up seconds (wall and
    scaled) and the get_problem milliseconds.  The import counts only on the
    first call in a process, which is the only call the benchmark makes."""
    speed_before = speed("loop")
    t0 = time.perf_counter()
    from nlkaczmarz import SolverConfig, get_problem

    solves = []
    get_problem_ns = 0
    for cell in cells(workload, seed):
        g0 = time.perf_counter_ns()
        prob = get_problem(cell.problem, cell.n)
        get_problem_ns += time.perf_counter_ns() - g0
        solves.append(Solve(cell, prob.system, prob.x0,
                            SolverConfig(method=cell.method, seed=cell.seed),
                            cell.pinned_iters))
    for solve in solves:
        report = solve_once(solve, tally)[0]
        if solve.expected_iters is None:
            # a seeded stochastic cell must repeat its warm-up count exactly
            solve.expected_iters = report.iters
    wall_s = time.perf_counter() - t0
    scaled_s = wall_s * 2 / (1 / speed_before + 1 / speed("loop"))
    return solves, {"wall_s": wall_s, "scaled_s": scaled_s,
                    "get_problem_ms": get_problem_ns / 1e6}


def solve_once(solve, tally, tracer=None):
    """One checked solve with fresh counters; returns (report, ns)."""
    from nlkaczmarz import run

    solve.system.counters.reset()
    if tracer is not None:
        tracer.solve += 1
    t0 = time.perf_counter_ns()
    if tracer is None:
        report = run(solve.system, solve.x0, solve.cfg)
    else:
        report = tracer.call(ROOT_SPAN, run, solve.system, solve.x0, solve.cfg)
    ns = time.perf_counter_ns() - t0
    tally.record(solve, check(report, solve.expected_iters))
    return report, ns


class Passes:
    """Wall and scaled time, iterations and evaluation counters of a series
    of passes."""

    def __init__(self):
        self.ns = []
        self.scaled_ns = []
        self.iters = 0
        self.counters = {"residual_evals": 0, "row_gradient_evals": 0, "jacobian_evals": 0}

    def run_one(self, solves, tally, yardstick, tracer=None):
        pass_ns = 0
        pass_scaled = 0.0
        for solve in solves:
            factor = speed(yardstick)
            report, ns = solve_once(solve, tally, tracer)
            pass_ns += ns
            pass_scaled += ns * factor
            self.iters += report.iters
            for key in self.counters:
                self.counters[key] += getattr(solve.system.counters, key)
        self.ns.append(pass_ns)
        self.scaled_ns.append(pass_scaled)

    def per_pass(self, total):
        return total / len(self.ns)


def tail(samples):
    """(value, percentile, samples beyond) for the highest percentile that
    leaves at least TAIL_BEYOND samples above it (nearest rank); the maximum
    when there are too few samples for that."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def child_set_up(args, tally):
    """Set-up record measured in a fresh interpreter, so the import counts
    again; the child's checked warm-up solves join ``tally``."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--set-up-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    try:
        child = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"set-up process failed ({done.returncode}): {done.stderr.strip()}")
    tally.attempted += child["attempted"]
    tally.failed += child["failed"]
    tally.errors.extend(child["errors"])
    return child["setup"]


def end_to_end(args, solves, tally, setup):
    setups = [setup] + [child_set_up(args, tally) for _ in range(SETUPS - 1)]
    passes = Passes()
    deadline = time.perf_counter() + args.seconds
    while not passes.ns or time.perf_counter() < deadline:
        passes.run_one(solves, tally, YARDSTICK[args.workload])
    pass_ms = [ns / 1e6 for ns in passes.scaled_ns]
    wall_ms = [ns / 1e6 for ns in passes.ns]
    tail_ms, tail_pct, beyond = tail(pass_ms)
    metrics = {
        "pass_ms.p50": (statistics.median(pass_ms), "ms"),
        "pass_ms.tail": (tail_ms, "ms"),
        "iters_per_s": (passes.iters / (sum(passes.scaled_ns) / 1e9), "1/s"),
        "iters_total": (passes.per_pass(passes.iters), "count"),
        "solved_frac": ((tally.attempted - tally.failed) / tally.attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(s["scaled_s"] for s in setups), "s"),
    }
    # (value, unit) pairs are figures printed beside the metrics
    details = {
        "failed_frac": (tally.failed / tally.attempted, "frac"),
        "wall.pass_ms.p50": (statistics.median(wall_ms), "ms"),
        "wall.pass_ms.tail": (tail(wall_ms)[0], "ms"),
        "wall.iters_per_s": (passes.iters / (sum(passes.ns) / 1e9), "1/s"),
        "wall.setup_s": (statistics.median(s["wall_s"] for s in setups), "s"),
        "passes": len(pass_ms),
        "pass_ms.tail.percentile": tail_pct,
        "pass_ms.tail.beyond": beyond,
        "setup_s.samples": [s["scaled_s"] for s in setups],
        "counters_per_pass": {k: passes.per_pass(v) for k, v in passes.counters.items()},
    }
    return metrics, details


def per_layer(args, solves, tally, setup):
    tracer = Tracer()
    plain, traced = Passes(), Passes()
    systems = [s.system for s in solves]
    deadline = time.perf_counter() + args.seconds
    while not traced.ns or time.perf_counter() < deadline:
        plain.run_one(solves, tally, YARDSTICK[args.workload])
        with installed(tracer, systems):
            traced.run_one(solves, tally, YARDSTICK[args.workload], tracer)
        tracer.count_nnz = False

    totals = layer_totals(tracer)
    n = len(traced.ns)

    def self_ms(name):
        return totals.get(name, (0, 0))[0] / 1e6 / n

    def count(name, key):
        return tracer.counts.get(name, {}).get(key, 0)

    metrics = {}
    for name in TIMED_LAYERS:
        metrics[f"{name}.self_ms"] = (self_ms(name), "ms")
        metrics[f"{name}.calls"] = (totals.get(name, (0, 0))[1] / n, "count")
    metrics["system.gradient_rows.rows"] = (count("system.gradient_rows", "rows") / n, "count")
    for method in SYSTEM_METHODS:
        metrics[f"problems.{method}.ms"] = (self_ms(f"problems.{method}"), "ms")
    for name in ("problems.gradient_rows", "problems.jacobian"):
        entries = count(name, "nnz_entries")
        metrics[f"{name}.bytes"] = (count(name, "bytes") / n, "B")
        metrics[f"{name}.nnz_ratio"] = (count(name, "nnz") / entries if entries else 0.0, "frac")
    metrics["kernels.block_direction.bytes"] = (count("kernels.block_direction", "bytes") / n, "B")
    metrics[f"{STATS_SPAN}.self_ms"] = (self_ms(STATS_SPAN), "ms")
    metrics["problems.get_problem.ms"] = (setup["get_problem_ms"], "ms")
    for key, value in traced.counters.items():
        metrics[f"counters.{key}"] = (traced.per_pass(value), "count")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced.scaled_ns) / statistics.median(plain.scaled_ns) - 1.0, "frac")

    traced_ns = sum(traced.ns)
    shares = sorted(((ns / traced_ns, name) for name, (ns, _) in totals.items()), reverse=True)
    details = {
        "passes_traced": n,
        "passes_untraced": len(plain.ns),
        "spans": len(tracer),
        "self_sum_over_traced_wall": sum(ns for ns, _ in totals.values()) / traced_ns,
        "self_share": {name: share for share, name in shares},
    }
    return metrics, details, tracer


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "commit": _commit(),
    }


def _blas_threads(np):
    """Thread count reported by the OpenBLAS bundled with NumPy, or None."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--set-up-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "nlkaczmarz" / "__init__.py").is_file():
        print(f"error: no nlkaczmarz package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tally = Tally()
    solves, setup = set_up(args.workload, args.seed, tally)
    if args.set_up_only:
        print(json.dumps({"setup": setup, "attempted": tally.attempted,
                          "failed": tally.failed, "errors": tally.errors}))
        return 0 if tally.failed == 0 else 1

    tracer = None
    if args.trace:
        metrics, details, tracer = per_layer(args, solves, tally, setup)
    else:
        metrics, details = end_to_end(args, solves, tally, setup)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(),
        "cells": [vars(s.cell) for s in solves],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details, "errors": tally.errors,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"{args.workload}-spans.jsonl.gz")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"solves {tally.attempted}  failed {tally.failed}")
    print("env " + json.dumps(record["env"]))
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    for name, value in details.items():
        if isinstance(value, tuple):
            print(f"  {name:36s} {value[0]:14.6g} {value[1]}")
        else:
            print(f"  {name:36s} {json.dumps(value)}")
    for err in tally.errors:
        print(f"FAILED {err}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
