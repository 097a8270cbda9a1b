"""Benchmark command line: solve, bench, rho-sweep, diagnose.

Outputs are strict JSON for single runs, with a non-finite float written as
null, and CSV (comma, header row, LF) for tables.  Relative output paths are
resolved against $NLKACZMARZ_OUTDIR when set.  Exit codes: 0 success, 2 usage
error or an output that cannot be written, 3 numerical breakdown, 4 the
problem does not fit: ``diagnose``'s size guard, or an allocation that NumPy
refuses (a ``MemoryError``), reported in one line on stderr.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import statistics
import sys as _sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import diagnostics
from .problems import PROBLEM_NAMES, get_problem
from .solvers import RANDOM_ROW, Method, SolverConfig, Status, run

CSV_HEADER = ["method", "problem", "n", "m", "rho", "iters",
              "final_residual_sq", "wall_ms", "seed", "repeats", "status"]

SUITE_SIZES = {
    "h-equation": [50, 100, 300, 500],
    "brown": [50, 100, 150, 200, 250, 300, 350, 400],
    "broyden": [50, 500, 700, 900, 1500, 2000],
    "overdetermined": [100, 300, 500, 1000, 2000],
}

BENCH_METHODS = [Method.MRNABK, Method.NGABK, Method.NRK, Method.RBCNK, Method.RDCNK]
DIAG_SIZE_GUARD = 2000

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BREAKDOWN = 3
EXIT_TOO_LARGE = 4


def _output(path: Optional[str]) -> Optional[Path]:
    """``path`` resolved against $NLKACZMARZ_OUTDIR when relative, with its
    parent directories created and the file opened for appending once (and
    removed again if that created it), so that each command can learn that
    an output cannot be written before it solves anything.  A path that
    cannot be written is a usage error that names it."""
    if not path:
        return None
    p = Path(path)
    base = os.environ.get("NLKACZMARZ_OUTDIR")
    if base and not p.is_absolute():
        p = Path(base) / p
    try:
        p.parent.mkdir(parents=True, exist_ok=True)
        existed = p.exists()
        with p.open("a"):
            pass
        if not existed:
            p.unlink()
    except OSError as exc:
        raise ValueError(f"cannot write {p}: {exc}") from None
    return p


def _write(p: Path, text: str) -> None:
    """Write ``text`` to the resolved output ``p``; a failure is the same
    usage error as ``_output``'s."""
    try:
        p.write_text(text, newline="")
    except OSError as exc:
        raise ValueError(f"cannot write {p}: {exc}") from None


def _json(payload) -> str:
    """``payload`` as strict JSON: a non-finite float is written as null."""
    def finite(value):
        if isinstance(value, float):
            return value if math.isfinite(value) else None
        if isinstance(value, dict):
            return {k: finite(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [finite(v) for v in value]
        return value

    return json.dumps(finite(payload), indent=2)


def _csv(header: List[str], rows) -> str:
    """CSV with a header row and LF line ends: a float is written by ``repr``
    and None as an empty field."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _parse_params(items: Optional[List[str]]) -> Dict[str, float]:
    params: Dict[str, float] = {}
    for item in items or []:
        key, _, value = item.partition("=")
        if not _:
            raise ValueError(f"--param expects key=value, got {item!r}")
        if key in params:
            raise ValueError(f"--param {key} is given more than once")
        try:
            params[key] = float(value)
        except ValueError:
            raise ValueError(f"--param {key} expects a number, got {value!r}") from None
    return params


def _parse_list(text: str, flag: str, kind, check) -> list:
    """``flag``'s comma-separated values read by ``kind``, each passed to
    ``check`` before anything is solved.  An empty or malformed entry is a
    usage error that names the flag and the text, and an entry that
    ``check`` refuses with a ValueError one that names the flag and the
    entry."""
    entries = text.split(",")
    try:
        values = [kind(v) for v in entries]
    except ValueError:
        raise ValueError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    for entry, value in zip(entries, values):
        try:
            check(value)
        except ValueError as exc:
            raise ValueError(f"{flag} entry {entry!r} is out of range: {exc}") from None
    return values


def _seed(text: str) -> int:
    """A --seed or --seed-base value: NumPy's generators take only seeds >= 0."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer 0 or more, got {text!r}")
    return int(text)


def _initial_point(spec: str, problem) -> np.ndarray:
    if spec == "default":
        return problem.x0
    if spec == "zeros":
        return np.zeros(problem.system.n)
    if spec.startswith("const:"):
        try:
            return float(spec[6:]) * np.ones(problem.system.n)
        except ValueError:
            pass
    raise ValueError(f"--x0 expects default, zeros or const:<number>, got {spec!r}")


def _load_random() -> None:
    """Build one generator, so that NumPy's one-time load of ``numpy.random``
    (about 10 ms) falls in no timer: a solve of a ``RANDOM_ROW`` method
    would pay it, and a solve of the other methods would not."""
    np.random.default_rng(0)


def _timed_run(system, x0, cfg):
    t0 = time.perf_counter()
    report = run(system, x0, cfg)
    return report, (time.perf_counter() - t0) * 1e3


def _cell(problem, method: Method, rho: float) -> Dict:
    """The keys that open a ``solve`` payload and a bench row: ``rho`` is
    set for MRNABK alone, and None for every other method."""
    return {"method": method.value, "problem": problem.name, "n": problem.system.n,
            "m": problem.system.m, "rho": rho if method is Method.MRNABK else None}


def _emit(payload: Dict, out: Optional[Path], report) -> int:
    """Write ``payload``'s JSON to ``out``, when given, and to stdout; the
    exit code is 3 when the run broke down."""
    text = _json(payload)
    if out:
        _write(out, text + "\n")
    print(text)
    return EXIT_BREAKDOWN if report.status is Status.BREAKDOWN else EXIT_OK


# -- solve ---------------------------------------------------------------


def cmd_solve(args) -> int:
    problem = get_problem(args.problem, args.n, _parse_params(args.param))
    cfg = SolverConfig(method=args.method, rho=args.rho, max_iters=args.max_iters,
                       tol_sq=args.tol_sq, seed=args.seed)
    x0 = _initial_point(args.x0, problem)
    out, history = _output(args.out), _output(args.history)
    if cfg.method in RANDOM_ROW:
        _load_random()
    report, wall_ms = _timed_run(problem.system, x0, cfg)
    if history:
        _write(history, _csv(["k", "residual_sq", "block_size", "step_norm"], report.history))
    return _emit({
        **_cell(problem, cfg.method, cfg.rho),
        "params": problem.params,
        "iters": report.iters,
        "final_residual_sq": report.final_residual_sq,
        "wall_ms": wall_ms,
        "seed": cfg.seed,
        "status": report.status.value,
        "message": report.message,
        "counters": vars(report.counters),
    }, out, report)


# -- bench ---------------------------------------------------------------


def _bench_cell(problem, method: Method, rho: float, repeats: int,
                seed_base: int, max_iters: int, tol_sq: float) -> Dict:
    stochastic = method in RANDOM_ROW
    runs = []
    for r in range(repeats):
        seed = seed_base + r if stochastic else seed_base
        cfg = SolverConfig(method=method, rho=rho, max_iters=max_iters,
                           tol_sq=tol_sq, seed=seed)
        report, wall_ms = _timed_run(problem.system, problem.x0, cfg)
        runs.append({"seed": seed, "iters": report.iters, "wall_ms": wall_ms,
                     "final_residual_sq": report.final_residual_sq,
                     "status": report.status.value, "counters": vars(report.counters)})
    iters = [r["iters"] for r in runs]
    statuses = [r["status"] for r in runs]
    status = next((s for s in statuses if s != Status.CONVERGED.value),
                  Status.CONVERGED.value)
    return {
        **_cell(problem, method, rho),
        "iters": int(statistics.median_low(iters)),
        "iters_mean": statistics.fmean(iters),
        "iters_min": min(iters),
        "iters_max": max(iters),
        "final_residual_sq": statistics.median_low(r["final_residual_sq"] for r in runs),
        "wall_ms": statistics.fmean(r["wall_ms"] for r in runs),
        "wall_ms_median": statistics.median(r["wall_ms"] for r in runs),
        "wall_ms_min": min(r["wall_ms"] for r in runs),
        "seed": seed_base if stochastic else None,
        "repeats": repeats,
        "status": status,
        "runs": runs,
    }


def _warm_up() -> None:
    """One small untimed solve, and one generator for the methods that draw
    rows, so that the first timed cell of a process does not pay its
    one-time costs."""
    problem = get_problem("h-equation", 10)
    run(problem.system, problem.x0, SolverConfig(BENCH_METHODS[0]))
    _load_random()


def _write_table(rows: List[Dict], out: Optional[Path], json_out: Optional[Path]) -> None:
    text = _csv(CSV_HEADER, ([row[c] for c in CSV_HEADER] for row in rows))
    if json_out:
        _write(json_out, _json(rows) + "\n")
    if out:
        _write(out, text)
    else:
        _sys.stdout.write(text)


def cmd_bench(args) -> int:
    if args.repeats < 1:
        raise ValueError(f"--repeats must be positive, got {args.repeats}")
    suites = list(SUITE_SIZES) if args.suite == "all" else [args.suite]
    # a size is checked by building each suite's problem at it
    sizes_override = None if args.sizes is None else _parse_list(
        args.sizes, "--sizes", int, lambda n: [get_problem(suite, n) for suite in suites])
    out, json_out = _output(args.out), _output(args.json)
    _warm_up()
    rows = []
    for suite in suites:
        for n in sizes_override or SUITE_SIZES[suite]:
            problem = get_problem(suite, n)
            for method in BENCH_METHODS:
                rows.append(_bench_cell(problem, method, args.rho, args.repeats,
                                        args.seed_base, args.max_iters, args.tol_sq))
    rows.sort(key=lambda r: (r["problem"], r["n"], r["method"]))
    _write_table(rows, out, json_out)
    return EXIT_OK


# -- rho sweep -----------------------------------------------------------


def cmd_rho_sweep(args) -> int:
    params = _parse_params(args.param)
    rhos = _parse_list(args.rhos, "--rhos", float, lambda rho: SolverConfig(Method.MRNABK, rho))
    # the size alone, at the problem's default parameters: --param's errors are its own
    sizes = _parse_list(args.sizes, "--sizes", int, lambda n: get_problem(args.problem, n))
    out, json_out = _output(args.out), _output(args.json)
    _warm_up()
    rows = []
    for n in sizes:
        problem = get_problem(args.problem, n, params)
        rows += [_bench_cell(problem, Method.MRNABK, rho, 1, 0, args.max_iters, args.tol_sq)
                 for rho in rhos]
    rows.sort(key=lambda r: (r["n"], r["rho"]))
    _write_table(rows, out, json_out)
    return EXIT_OK


# -- diagnose ------------------------------------------------------------


def cmd_diagnose(args) -> int:
    if args.n > DIAG_SIZE_GUARD:
        print(f"diagnose: n={args.n} exceeds the dense-SVD size guard "
              f"({DIAG_SIZE_GUARD})", file=_sys.stderr)
        return EXIT_TOO_LARGE
    problem = get_problem(args.problem, args.n, _parse_params(args.param))
    system = problem.system
    if args.pairs < 0:
        raise ValueError(f"--pairs must be 0 or more, got {args.pairs}")
    if args.pair_radius is not None and not 0.0 < args.pair_radius < math.inf:
        raise ValueError(f"--pair-radius must be finite and positive, got {args.pair_radius}")

    cfg = SolverConfig(method=args.method, rho=args.rho, max_iters=args.max_iters,
                       tol_sq=args.tol_sq, store_iterates=True)
    out = _output(args.out)
    report, _ = _timed_run(system, problem.x0, cfg)

    rng = np.random.default_rng(args.seed)
    box = problem.sample_box
    radius = args.pair_radius
    if radius is None:
        radius = 0.05 * float((box[:, 1] - box[:, 0]).max())
    pairs = diagnostics.sample_pairs(box, args.pairs, radius, rng)
    # prefer the run's own limit point: convergence may pick a different
    # root than the analytically known one
    x_star = report.iterates[-1] if report.status is Status.CONVERGED else system.known_solution
    # the pairs (x_k, x*) join the sampled ones, with one Jacobian per iterate
    cone, bounds = diagnostics._cone_and_bounds(system, report, pairs, x_star, cfg.method,
                                                args.rho)

    ratios = diagnostics.per_step_contraction(report, x_star) if x_star is not None else []
    steps = []
    for k, (bound, hist) in enumerate(zip(bounds, report.history)):
        ordering = diagnostics.remark2_compare(bound, system, cone.xi)
        steps.append({
            "k": k,
            "residual_sq": hist[1],
            "block_size": bound.block_size,
            "rho_bound": bound.rho_bound,
            "sigma_min_full": bound.sigma_min_full,
            "sigma_max_block": bound.sigma_max_block,
            "applicable": bound.applicable,
            "measured_ratio": float(ratios[k]) if k < len(ratios) else None,
            "nrk_bound": ordering.rho_nrk,
            "ordering_strict": ordering.strict,
        })

    return _emit({
        "problem": problem.name,
        "n": system.n,
        "m": system.m,
        "method": cfg.method.value,
        "rho": args.rho,
        "status": report.status.value,
        "iters": report.iters,
        "final_residual_sq": report.final_residual_sq,
        "cone": {"xi": cone.xi, "pairs_used": cone.pairs_used,
                 "condition_holds": cone.condition_holds},
        "steps": steps,
    }, out, report)


# -- parser --------------------------------------------------------------


def _add_common_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-sq", type=float, default=1e-6)
    p.add_argument("--max-iters", type=int, default=200_000)
    p.add_argument("--out", help="output file (JSON for solve/diagnose, CSV for tables)")


class _Parser(argparse.ArgumentParser):
    """An argparse parser that lets a failed write to stdout raise, where
    argparse drops the OSError, so that ``--help`` on a closed stdout ends in
    main()'s exit 2 rather than in silence.  ``add_subparsers`` makes its
    subparsers of this class too."""

    def _print_message(self, message, file=None):
        if message and file is _sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nlkaczmarz",
                     description="Averaged block nonlinear Kaczmarz benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run one solver on one problem")
    p.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", required=True, choices=[m.value for m in Method])
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--x0", default="default",
                   help="default (the problem's standard start), zeros, or const:<v>")
    p.add_argument("--history", help="write per-iteration CSV to this path")
    _add_common_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run a suite across all five iterative methods")
    p.add_argument("--suite", required=True, choices=list(SUITE_SIZES) + ["all"])
    p.add_argument("--repeats", type=int, default=10)
    p.add_argument("--seed-base", type=_seed, default=0)
    p.add_argument("--sizes", help="comma-separated size override")
    p.add_argument("--json", help="write per-repeat detail JSON to this path")
    _add_common_solver_flags(p)
    p.set_defaults(func=cmd_bench)

    # no abbreviations, so that a --rho is refused rather than read as --rhos
    p = sub.add_parser("rho-sweep", help="MRNABK relaxation-parameter sweep", allow_abbrev=False)
    p.add_argument("--problem", default="h-equation", choices=PROBLEM_NAMES)
    p.add_argument("--rhos", default="0.1,0.3,0.5,0.7,0.8,0.9")
    p.add_argument("--sizes", default="50,100")
    p.add_argument("--json", help="write detail JSON to this path")
    _add_common_solver_flags(p)
    p.set_defaults(func=cmd_rho_sweep)

    p = sub.add_parser("diagnose", help="cone estimate, contraction bounds, ordering report")
    p.add_argument("--problem", required=True, choices=PROBLEM_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", default="ngabk", choices=("ngabk", "mrnabk"))
    p.add_argument("--pairs", type=int, default=100)
    p.add_argument("--pair-radius", type=float, default=None,
                   help="absolute pair radius (default: 5%% of box extent)")
    p.add_argument("--seed", type=_seed, default=0)
    _add_common_solver_flags(p)
    p.set_defaults(func=cmd_diagnose)

    # each subcommand takes only the flags it reads
    for command in ("solve", "bench", "diagnose"):
        sub.choices[command].add_argument("--rho", type=float, default=0.1)
    for command in ("solve", "rho-sweep", "diagnose"):
        sub.choices[command].add_argument("--param", action="append", metavar="KEY=VALUE",
                                          help="problem parameter, e.g. c=0.9 (repeatable)")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        _sys.stdout.flush()  # a closed stdout fails here rather than at exit
        return code
    except BrokenPipeError as exc:
        # the reader of stdout has gone: point stdout at the null device, so
        # that the flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
        print(f"nlkaczmarz: output cannot be written: {exc}", file=_sys.stderr)
        return EXIT_USAGE
    except (KeyError, ValueError) as exc:
        # a KeyError's str() is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"nlkaczmarz: {message}", file=_sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"nlkaczmarz: the problem does not fit in memory: {exc}", file=_sys.stderr)
        return EXIT_TOO_LARGE


if __name__ == "__main__":
    raise SystemExit(main())
