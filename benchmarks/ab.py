"""Compare two checkouts on one solve-benchmark workload, in alternating pairs.

    python benchmarks/ab.py <parent-dir> <change-dir> --workload row-stream --pairs 10 --seconds 30

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, with the
checkout's own benchmark and source, one run after the other: the parent goes
first in odd pairs and the change in even ones.  Each run's result is the JSON
on the last line it prints; a run that fails, or reports a failed solve, stops
the comparison.  At the end the script prints whether the runs compiled the
package in their set-ups (by ``PYTHONDONTWRITEBYTECODE``, since ``setup_s``
includes the import), then, for each end-to-end metric of ``BENCHMARK.json``,
each side's quartiles and median and the number of pairs in which the change
was better, by the metric's direction; a tie counts for neither side.  Its verdict on the metric is ``gain`` when the change won at
least nine tenths of the pairs and its median is better than the parent's by
more than the parent's quartile distance q3 - q1; ``worse`` when its median
is worse than the parent's by more than the metric's ``bound``, a fraction of
the parent's median; and ``hold`` otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values) -> tuple:
    """(lower quartile, median, upper quartile) of values, inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


class Row(tuple):
    """(metric name, parent's quartiles, change's quartiles, pairs the change
    won), with the change's ``verdict`` on the metric."""

    verdict: str


def summary(parent: list, change: list, metrics: list) -> list:
    """One ``Row`` per end-to-end metric.  ``parent`` and ``change`` hold one
    {metric: value} per run, pair i being (parent[i], change[i]); ``metrics``
    holds the BENCHMARK.json entries, each with its ``name`` and ``better``,
    and the ``bound`` that a ``worse`` verdict needs."""
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        won = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        gained = sign * (qb[1] - qa[1])  # how much better the change's median is
        row = Row((name, qa, qb, won))
        if 10 * won >= 9 * len(a) and gained > qa[2] - qa[0]:
            row.verdict = "gain"
        elif "bound" in metric and -gained > metric["bound"] * abs(qa[1]):
            row.verdict = "worse"
        else:
            row.verdict = "hold"
        rows.append(row)
    return rows


def header(workload: str, pairs: int, seconds: int, seed: int, environ) -> str:
    """The summary's first lines: the comparison, and whether each run's
    set-up compiled the package, which ``setup_s`` then includes.  The runs
    inherit ``environ``; Python writes no bytecode when its
    PYTHONDONTWRITEBYTECODE is a non-empty string."""
    value = environ.get("PYTHONDONTWRITEBYTECODE", "")
    if value:
        compiled = (f"PYTHONDONTWRITEBYTECODE={value}: no run writes bytecode, so every "
                    "set-up compiles the package unless the checkout holds it already")
    else:
        compiled = ("PYTHONDONTWRITEBYTECODE unset: each checkout's first run writes "
                    "bytecode, and the later set-ups read it instead of compiling")
    return (f"{workload}, {pairs} pairs of {seconds} s, seed {seed}; "
            f"quartiles as q1 / median / q3\n{compiled}; setup_s includes any compile")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """{metric: value} of one untraced benchmark run in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if result is None or not result["correct"]:
        raise SystemExit(f"{checkout}: benchmark run failed ({done.returncode})\n"
                         f"{done.stderr.strip()}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    sides = {"parent": [], "change": []}
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            sides[side].append(run_once(getattr(args, side), args.workload, args.seed,
                                        args.seconds))
        first = metrics[0]["name"]
        print(f"pair {pair + 1}/{args.pairs} ({order[0]} first): {first} "
              f"{sides['parent'][-1][first]:.6g} -> {sides['change'][-1][first]:.6g}",
              flush=True)

    print(header(args.workload, args.pairs, args.seconds, args.seed, os.environ))
    print(f"{'metric':16s} {'parent':>36s} {'change':>36s}  won    verdict")
    for row in summary(sides["parent"], sides["change"], metrics):
        name, a, b, won = row
        print(f"{name:16s} {' / '.join(f'{v:10.6g}' for v in a)} "
              f"{' / '.join(f'{v:10.6g}' for v in b)}  {won:2d}/{args.pairs:<2d}  {row.verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
