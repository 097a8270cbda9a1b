"""Record one point of the performance trajectory in ``BENCH_<label>.json``.

    python benchmarks/record.py <label>

Runs ``perfbench/run.py --trace 0`` once on each workload of
``BENCHMARK.json``, for its ``run_seconds`` with seed 7, and then
``nlkaczmarz bench --suite all --repeats 1``, both with one BLAS thread,
and writes ``BENCH_<label>.json`` at the root of the checkout.  The file
holds each workload's end-to-end metrics, the bench command's total wall
time, each suite's summed ``wall_ms`` and, per method, its summed
``wall_ms`` and the count of cells that ended in each status, the
environment read by ``perfbench/run.py``'s ``environment()``, and the
commit with whether tracked files differed from it.  A perfbench run that
fails or reports a failed solve, or a bench command that exits with an
error, stops the script before it writes.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = 7
BENCH = ["bench", "--suite", "all", "--repeats", "1"]


def summarize(label: str, workloads: dict, rows: list, bench_s: float, env: dict,
              uncommitted) -> dict:
    """The content of ``BENCH_<label>.json``: ``workloads`` holds {workload:
    {metric: value}}, ``rows`` the bench command's JSON rows, each with its
    ``problem``, ``method``, ``wall_ms`` and ``status``, ``bench_s`` the
    bench command's wall time in seconds, ``env`` the environment, with its
    ``commit``, and ``uncommitted`` whether tracked files differed from that
    commit (None outside a git checkout)."""
    suites = {}
    for row in sorted(rows, key=lambda r: (r["problem"], r["method"])):
        suite = suites.setdefault(row["problem"], {"wall_ms": 0.0, "methods": {}})
        method = suite["methods"].setdefault(row["method"], {"wall_ms": 0.0, "status": {}})
        suite["wall_ms"] += row["wall_ms"]
        method["wall_ms"] += row["wall_ms"]
        method["status"][row["status"]] = method["status"].get(row["status"], 0) + 1
    return {
        "label": label,
        "commit": env.get("commit"),
        "uncommitted": uncommitted,
        "environment": env,
        "workloads": workloads,
        "bench": {"command": "nlkaczmarz " + " ".join(BENCH), "total_s": bench_s,
                  "suites": suites},
    }


def run_bench(env: dict) -> tuple:
    """(JSON rows, wall seconds) of one bench command in this checkout."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bench.json"
        cmd = [sys.executable, "-c", "import sys; from nlkaczmarz.cli import main; "
               "sys.exit(main())", *BENCH, "--json", str(out),
               "--out", str(out.with_suffix(".csv"))]
        start = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - start
        if done.returncode != 0:
            raise SystemExit(f"bench failed ({done.returncode})\n{done.stderr.strip()}")
        return json.loads(out.read_text()), seconds


def uncommitted():
    """Whether tracked files of this checkout differ from its commit, or None."""
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                               "--untracked-files=no"], capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return bool(done.stdout.strip()) if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the file BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.label):
        parser.error("the label may hold only letters, digits, '.', '_' and '-'")

    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "benchmarks")]
    # importing perfbench's run pins one BLAS thread in os.environ, for every
    # run below and before environment() loads NumPy
    from run import environment
    from ab import run_once
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {}
    for workload in (w["name"] for w in config["workloads"]):
        print(f"perfbench {workload} ({config['run_seconds']} s)", flush=True)
        workloads[workload] = run_once(ROOT, workload, SEED, config["run_seconds"])
    print("nlkaczmarz " + " ".join(BENCH), flush=True)
    rows, bench_s = run_bench(env)

    path = ROOT / f"BENCH_{args.label}.json"
    record = summarize(args.label, workloads, rows, bench_s, environment(), uncommitted())
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"written to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
