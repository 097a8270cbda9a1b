import csv
import json
import os
import re
from collections import Counter
from pathlib import Path

import pytest

import nlkaczmarz
from nlkaczmarz import Method, cli, get_problem
from nlkaczmarz.cli import CSV_HEADER, _bench_cell, main

from conftest import fresh_interpreter


def run_cli(*argv):
    return main(list(argv))


def test_solve_json_payload(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = run_cli("solve", "--problem", "h-equation", "--n", "50",
                   "--method", "mrnabk", "--out", str(out))
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload == json.loads(capsys.readouterr().out)
    assert payload["iters"] == 21
    assert payload["status"] == "converged"
    assert payload["final_residual_sq"] < 1e-6
    assert payload["counters"]["jacobian_evals"] == 0
    assert payload["counters"]["row_gradient_evals"] > 0


def test_json_keys_keep_their_order(tmp_path, capsys):
    # the keys, in order, are part of the output contract; rho is MRNABK's alone
    opening = ["method", "problem", "n", "m", "rho"]
    assert run_cli("solve", "--problem", "h-equation", "--n", "20", "--method", "nrk") == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == opening + ["params", "iters", "final_residual_sq", "wall_ms",
                                       "seed", "status", "message", "counters"]
    assert payload["rho"] is None

    rows_json = tmp_path / "rows.json"
    assert run_cli("bench", "--suite", "h-equation", "--sizes", "20", "--repeats", "1",
                   "--json", str(rows_json), "--out", str(tmp_path / "rows.csv")) == 0
    rows = json.loads(rows_json.read_text())
    for row in rows:
        assert list(row) == opening + ["iters", "iters_mean", "iters_min", "iters_max",
                                       "final_residual_sq", "wall_ms", "wall_ms_median",
                                       "wall_ms_min", "seed", "repeats", "status", "runs"]
    assert {row["method"]: row["rho"] for row in rows} == {
        "mrnabk": 0.1, "ngabk": None, "nrk": None, "rbcnk": None, "rdcnk": None}

    assert run_cli("diagnose", "--problem", "h-equation", "--n", "10", "--pairs", "2") == 0
    assert list(json.loads(capsys.readouterr().out)) == [
        "problem", "n", "m", "method", "rho", "status", "iters", "final_residual_sq",
        "cone", "steps"]


def test_solve_history_csv(tmp_path, capsys):
    hist = tmp_path / "hist.csv"
    code = run_cli("solve", "--problem", "broyden", "--n", "30",
                   "--method", "ngabk", "--history", str(hist))
    capsys.readouterr()
    assert code == 0
    with hist.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "residual_sq", "block_size", "step_norm"]
    ks = [int(r[0]) for r in rows[1:]]
    assert ks == list(range(len(ks)))
    r2 = [float(r[1]) for r in rows[1:]]
    assert all(v >= 0 for v in r2)


def test_solve_outdir_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("NLKACZMARZ_OUTDIR", str(tmp_path))
    code = run_cli("solve", "--problem", "h-equation", "--n", "20",
                   "--method", "ngabk", "--out", "sub/run.json")
    capsys.readouterr()
    assert code == 0
    assert (tmp_path / "sub" / "run.json").exists()


def test_unknown_problem_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("solve", "--problem", "nope", "--n", "10", "--method", "ngabk")
    capsys.readouterr()
    assert exc.value.code == 2


def test_bad_x0_spec_is_usage_error(capsys):
    code = run_cli("solve", "--problem", "brown", "--n", "10",
                   "--method", "ngabk", "--x0", "bogus")
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("flag,value", [("--tol-sq", "nan"), ("--tol-sq", "inf"),
                                        ("--rho", "nan")])
def test_non_finite_config_is_usage_error(flag, value, capsys):
    code = run_cli("solve", "--problem", "brown", "--n", "10",
                   "--method", "mrnabk", flag, value)
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("params,c,iters", [((), 0.9, 62), (("--param", "c=0.5"), 0.5, 12)])
def test_param_reaches_the_problem(params, c, iters, capsys):
    code = run_cli("solve", "--problem", "h-equation", "--n", "20", "--method", "ngabk", *params)
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["params"] == {"c": c}
    assert out["iters"] == iters


def _exit_code(*argv):
    # main's return value, or the code of argparse's usage error
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ("solve", "--problem", "h-equation", "--n", "20", "--method", "ngabk", "--param", "c"),
    ("solve", "--problem", "overdetermined", "--n", "20", "--method", "ngabk",
     "--param", "squared_denominator=1"),
    # flags a subcommand does not read are not accepted
    ("bench", "--suite", "h-equation", "--sizes", "20", "--repeats", "1", "--param", "c=0.5"),
    ("rho-sweep", "--sizes", "20", "--rhos", "0.1", "--rho", "0.5"),
], ids=["param-without-value", "unknown-param", "bench-param", "rho-sweep-rho"])
def test_unread_or_malformed_flags_are_usage_errors(argv, capsys):
    assert _exit_code(*argv) == 2
    # a KeyError's message is printed as it is, not as its repr
    assert '"' not in capsys.readouterr().err


@pytest.mark.parametrize("flags,named", [
    (("--pair-radius", "nan"), "--pair-radius"),
    (("--pair-radius", "inf"), "--pair-radius"),
    (("--pair-radius", "0"), "--pair-radius"),
    (("--pairs", "-3", "--pair-radius", "-1"), "--pairs"),
    (("--method", "nrk"), "--method"),  # bounds exist for ngabk and mrnabk only
    (("--method", "foo"), "--method"),
])
def test_diagnose_bad_pair_spec_is_usage_error(flags, named, capsys):
    code = _exit_code("diagnose", "--problem", "h-equation", "--n", "20", *flags)
    captured = capsys.readouterr()
    assert code == 2
    assert named in captured.err and captured.out == ""


def test_non_finite_start_exit_code(capsys):
    code = run_cli("solve", "--problem", "brown", "--n", "10",
                   "--method", "ngabk", "--x0", "const:nan")
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["status"] == "breakdown" and out["iters"] == 0


def test_breakdown_exit_code(capsys):
    # the cross-product row of this problem has a vanishing gradient scale
    # that defeats the single-row selection rule
    code = run_cli("solve", "--problem", "brown", "--n", "50",
                   "--method", "rdcnk", "--max-iters", "100")
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["status"] == "breakdown"


def test_diagnose_size_guard(capsys):
    code = run_cli("diagnose", "--problem", "broyden", "--n", "2001")
    capsys.readouterr()
    assert code == 4


def test_an_allocation_numpy_refuses_exits_4_in_one_line(monkeypatch, capsys):
    # as solve --problem h-equation --n 100000 --method nrk does at its first
    # row, without allocating anything
    build = cli.get_problem

    def get_problem(*args):
        problem = build(*args)

        def row_gradient(i, x):
            raise MemoryError("Unable to allocate 74.5 GiB")

        problem.system._row_gradient = row_gradient
        return problem

    monkeypatch.setattr(cli, "get_problem", get_problem)
    code = run_cli("solve", "--problem", "h-equation", "--n", "20", "--method", "nrk")
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == "nlkaczmarz: the problem does not fit in memory: Unable to allocate 74.5 GiB\n"


@pytest.mark.parametrize("argv", [
    ("solve", "--problem", "brown", "--n", "10", "--method", "ngabk"),
    ("bench", "--suite", "brown", "--sizes", "10", "--repeats", "1"),
    ("rho-sweep", "--sizes", "10", "--rhos", "0.5"),
    ("diagnose", "--problem", "brown", "--n", "5", "--pairs", "2"),
    ("--help",),
    ("solve", "--help"),
], ids=lambda argv: " ".join(argv) if "--help" in argv else argv[0])
def test_a_closed_stdout_exits_2_in_one_line(argv):
    # as `nlkaczmarz ... | head` does once head has gone: the pipe's read end
    # is closed before the command writes, so its first write fails
    read, write = os.pipe()
    os.close(read)
    try:
        done = fresh_interpreter("-m", "nlkaczmarz.cli", *argv, stdout=write)
    finally:
        os.close(write)
    assert done.returncode == 2
    assert done.stderr == "nlkaczmarz: output cannot be written: [Errno 32] Broken pipe\n"
    assert "Traceback" not in done.stderr


def test_diagnose_rejects_single_row_method(capsys):
    code = _exit_code("diagnose", "--problem", "broyden", "--n", "20", "--method", "nrk")
    capsys.readouterr()
    assert code == 2


def test_diagnose_payload(tmp_path, capsys):
    out = tmp_path / "diag.json"
    code = run_cli("diagnose", "--problem", "h-equation", "--n", "20",
                   "--method", "mrnabk", "--pairs", "20", "--out", str(out))
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["status"] == "converged"
    assert set(payload["cone"]) == {"xi", "pairs_used", "condition_holds"}
    assert len(payload["steps"]) == payload["iters"]
    for step in payload["steps"]:
        assert step["rho_bound"] <= 1.0
        assert step["measured_ratio"] is not None


@pytest.mark.parametrize("method", ["ngabk", "mrnabk"])
def test_diagnose_evaluates_each_point_once(method, monkeypatch, capsys):
    # one Jacobian per distinct point: each sampled pair's first point and
    # each iterate, whose pair (x_k, x*) and bound share it; f(x*) is
    # evaluated once for the cone beside the solve's own evaluation of it
    jacobians, residuals = [], []
    system = nlkaczmarz.system.NonlinearSystem
    # every residual, the solve's and the public ones, is
    # an _eval_residual call
    jacobian, residual = system.jacobian, system._eval_residual
    monkeypatch.setattr(system, "jacobian",
                        lambda self, x: jacobians.append(x.tobytes()) or jacobian(self, x))
    monkeypatch.setattr(system, "_eval_residual",
                        lambda self, x: residuals.append(x.tobytes()) or residual(self, x))
    code = run_cli("diagnose", "--problem", "h-equation", "--n", "20",
                   "--method", method, "--pairs", "7")
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and payload["status"] == "converged"
    assert len(jacobians) == len(set(jacobians)) == 7 + payload["iters"]
    # f(x_k) once in the solve and once for the pair and the bound; f(x*)
    # once in the solve (its last iterate) and once for the cone
    assert sorted(Counter(residuals).values()) == [1] * 14 + [2] * (payload["iters"] + 1)


def test_bench_csv_shape(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    sidecar = tmp_path / "bench.json"
    code = run_cli("bench", "--suite", "h-equation", "--sizes", "20",
                   "--repeats", "3", "--out", str(out), "--json", str(sidecar))
    capsys.readouterr()
    assert code == 0
    text = out.read_text()
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 6  # five methods, one size
    detail = json.loads(sidecar.read_text())
    by_method = {row["method"]: row for row in detail}
    assert set(by_method) == {"mrnabk", "ngabk", "nrk", "rbcnk", "rdcnk"}
    for row in detail:
        assert len(row["runs"]) == 3
        iters = sorted(r["iters"] for r in row["runs"])
        assert row["iters"] == iters[1]  # low median of three
        walls = sorted(r["wall_ms"] for r in row["runs"])
        assert (row["wall_ms_median"], row["wall_ms_min"]) == (walls[1], walls[0])
        # the repeats share the cell's system, and each reports its own run's evaluations
        counters = [r["counters"] for r in row["runs"]]
        assert set(counters[0]) == {"residual_evals", "row_gradient_evals", "jacobian_evals"}
        assert counters[0]["residual_evals"] == row["runs"][0]["iters"] + 1
        if row["method"] not in ("nrk", "rdcnk"):
            assert counters == [counters[0]] * 3


@pytest.mark.parametrize("argv", [
    ("bench", "--suite", "h-equation", "--sizes", "20,30"),
    ("rho-sweep", "--problem", "h-equation", "--sizes", "20", "--rhos", "0.1,0.5"),
])
def test_timed_cells_follow_one_untimed_warm_up(argv, monkeypatch, capsys):
    calls = []
    warm_up, timed_run = cli._warm_up, cli._timed_run
    monkeypatch.setattr(cli, "_warm_up", lambda: calls.append("warm-up") or warm_up())
    monkeypatch.setattr(cli, "_timed_run",
                        lambda *a: calls.append("timed") or timed_run(*a))
    assert run_cli(*argv) == 0
    capsys.readouterr()
    assert calls[0] == "warm-up" and calls.count("warm-up") == 1 and len(calls) > 1


def test_the_warm_up_loads_numpy_random():
    # its MRNABK solve draws nothing, and the first NRK or RD-CNK cell must
    # not pay for loading the module
    code = ("import sys\nfrom nlkaczmarz import cli\n"
            "cli._warm_up()\nprint('numpy.random' in sys.modules)")
    done = fresh_interpreter("-c", code)
    assert done.stdout.split() == ["True"], done.stderr


@pytest.mark.parametrize("method,loaded", [("nrk", True), ("rdcnk", True), ("ngabk", False)])
def test_solve_loads_numpy_random_before_its_timer_only_for_a_method_that_draws(method, loaded):
    # solve's wall_ms charges the module's one-time load to no method
    code = ("import sys\nfrom nlkaczmarz import cli\nseen = []\ntimed_run = cli._timed_run\n"
            "cli._timed_run = lambda *a: seen.append('numpy.random' in sys.modules) "
            "or timed_run(*a)\n"
            f"cli.main(['solve', '--problem', 'h-equation', '--n', '10', '--method', '{method}'])\n"
            "print(seen)")
    done = fresh_interpreter("-c", code)
    assert done.stdout.splitlines()[-1:] == [str([loaded])], done.stderr


def test_bench_csv_stable_modulo_timing(tmp_path, capsys):
    paths = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        run_cli("bench", "--suite", "broyden", "--sizes", "30",
                "--repeats", "2", "--out", str(out))
        capsys.readouterr()
        paths.append(out)

    def strip_wall(text):
        col = CSV_HEADER.index("wall_ms")
        return [",".join(v for i, v in enumerate(line.split(",")) if i != col)
                for line in text.splitlines()]

    assert strip_wall(paths[0].read_text()) == strip_wall(paths[1].read_text())


def test_rho_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = run_cli("rho-sweep", "--problem", "h-equation", "--sizes", "50",
                   "--rhos", "0.1,0.9", "--out", str(out))
    capsys.readouterr()
    assert code == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["rho"]) for r in rows] == [0.1, 0.9]
    assert int(rows[0]["iters"]) == 21
    assert int(rows[0]["iters"]) <= int(rows[1]["iters"])
    assert all(r["status"] == "converged" for r in rows)


def test_rho_sweep_rows_are_bench_cells(tmp_path, capsys):
    out, sidecar = tmp_path / "sweep.csv", tmp_path / "sweep.json"
    code = run_cli("rho-sweep", "--problem", "h-equation", "--sizes", "20,30",
                   "--rhos", "0.1,0.5", "--out", str(out), "--json", str(sidecar))
    capsys.readouterr()
    assert code == 0

    def without_wall(row):
        row = dict(row, wall_ms=None, wall_ms_median=None, wall_ms_min=None)
        row["runs"] = [dict(r, wall_ms=None) for r in row["runs"]]
        return row

    cells = [_bench_cell(get_problem("h-equation", n), Method.MRNABK, rho, 1, 0, 200_000, 1e-6)
             for n in (20, 30) for rho in (0.1, 0.5)]
    assert [without_wall(r) for r in json.loads(sidecar.read_text())] == \
        [without_wall(c) for c in cells]
    with out.open() as fh:
        assert [dict(r, wall_ms=None) for r in csv.DictReader(fh)] == \
            [{k: "" if c[k] is None else str(c[k]) for k in CSV_HEADER} | {"wall_ms": None}
             for c in cells]


def test_stdout_csv_when_no_out(capsys):
    code = run_cli("rho-sweep", "--problem", "h-equation", "--sizes", "20",
                   "--rhos", "0.1")
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(",".join(CSV_HEADER) + "\n")
    assert re.match(r"mrnabk,h-equation,20,20,0\.1,", out.splitlines()[1])


def test_bench_propagates_uncaught_faults(monkeypatch):
    def programming_error(*args):
        raise TypeError("not a solver failure")

    monkeypatch.setattr(cli, "_timed_run", programming_error)
    with pytest.raises(TypeError):
        run_cli("bench", "--suite", "overdetermined", "--sizes", "6", "--repeats", "1")


@pytest.mark.parametrize("flags", [("--repeats", "0"), ("--sizes", "1")])
def test_bench_bad_arguments_are_usage_errors(flags, capsys):
    code = run_cli("bench", "--suite", "brown", "--repeats", "1", *flags)
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("argv,flag,text", [
    (("bench", "--suite", "overdetermined", "--sizes=", "--repeats", "1", "--max-iters", "1"),
     "--sizes", "''"),
    (("bench", "--suite", "h-equation", "--sizes", "x", "--repeats", "1"), "--sizes", "'x'"),
    (("rho-sweep", "--sizes", "x"), "--sizes", "'x'"),
    (("rho-sweep", "--sizes="), "--sizes", "''"),
    (("rho-sweep", "--sizes", "6", "--rhos", "x"), "--rhos", "'x'"),
    (("rho-sweep", "--sizes", "6", "--rhos", "0.1,,0.5"), "--rhos", "'0.1,,0.5'"),
    # an entry out of range is refused before the first solve, here n = 500
    (("bench", "--suite", "broyden", "--sizes", "500,1", "--repeats", "1"), "--sizes", "'1'"),
    (("rho-sweep", "--sizes=0"), "--sizes", "'0'"),
    (("rho-sweep", "--rhos=2"), "--rhos", "'2'"),
    # a malformed --param or --x0 value, in the same way
    (("solve", "--problem", "h-equation", "--n", "6", "--method", "ngabk", "--param", "c=abc"),
     "--param c", "'abc'"),
    (("rho-sweep", "--sizes", "6", "--param", "c=abc"), "--param c", "'abc'"),
    (("solve", "--problem", "brown", "--n", "6", "--method", "ngabk", "--x0", "const:abc"),
     "--x0", "'const:abc'"),
], ids=["bench-sizes-empty", "bench-sizes-x", "rho-sweep-sizes-x", "rho-sweep-sizes-empty",
        "rho-sweep-rhos-x", "rho-sweep-rhos-empty-entry", "bench-sizes-out-of-range",
        "rho-sweep-sizes-out-of-range", "rho-sweep-rhos-out-of-range", "solve-param-x",
        "rho-sweep-param-x", "solve-x0-const-x"])
def test_bad_comma_list_is_usage_error_naming_its_flag(argv, flag, text, capsys):
    code = run_cli(*argv)
    captured = capsys.readouterr()
    assert code == 2
    assert flag in captured.err and text in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    # ||f||^2 overflows after one step, at the start, and an empty capped set
    ("--problem", "brown", "--n", "30", "--method", "rdcnk"),
    ("--problem", "h-equation", "--n", "50", "--method", "nrk", "--x0", "const:1e200"),
    ("--problem", "brown", "--n", "20", "--method", "rdcnk"),
])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
def test_overflow_and_empty_selection_exit_as_breakdown(argv, capsys):
    code = run_cli("solve", *argv)
    out = json.loads(capsys.readouterr().out)
    assert code == 3
    assert out["status"] == "breakdown" and out["message"]


def _solve_in_fresh_interpreter(*argv):
    # a fresh interpreter, so stderr is what a user of the command sees
    return fresh_interpreter("-m", "nlkaczmarz.cli", "solve", *argv)


def test_overflow_breakdown_writes_no_warning_to_stderr():
    done = _solve_in_fresh_interpreter("--problem", "brown", "--n", "30", "--method", "rdcnk")
    assert done.returncode == 3
    assert json.loads(done.stdout)["status"] == "breakdown"
    assert "RuntimeWarning" not in done.stderr


@pytest.mark.parametrize("method", ["ngabk", "mrnabk"])
def test_averaged_step_on_an_overflowing_block_is_breakdown(method):
    # ||f_tau||^2 and ||d||^2 both overflow: their ratio would be inf / inf
    done = _solve_in_fresh_interpreter("--problem", "h-equation", "--n", "50", "--method", method,
                                       "--x0", "const:1e200")
    assert done.returncode == 3
    out = json.loads(done.stdout)
    assert out["status"] == "breakdown" and out["iters"] == 0
    assert out["message"] == "||f_tau||^2 = inf, ||d||^2 = inf: the step length is undefined"
    assert "RuntimeWarning" not in done.stderr


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_bench_reports_an_overflow_as_a_breakdown_row(tmp_path, capsys):
    sidecar = tmp_path / "bench.json"
    code = run_cli("bench", "--suite", "brown", "--sizes", "30", "--repeats", "1",
                   "--json", str(sidecar))
    capsys.readouterr()
    assert code == 0
    rows = {r["method"]: r for r in json.loads(sidecar.read_text())}
    assert len(rows) == 5
    assert rows["rdcnk"]["status"] == "breakdown"


H_EQUATION_20 = ("--problem", "h-equation", "--n", "20", "--method", "ngabk")


def test_repeated_param_is_usage_error(capsys):
    code = run_cli("solve", *H_EQUATION_20, "--param", "c=0.5", "--param", "c=0.7")
    captured = capsys.readouterr()
    assert code == 2
    assert "--param c " in captured.err and captured.out == ""


@pytest.mark.parametrize("argv,target", [
    (("solve", *H_EQUATION_20, "--out"), "dir"),
    (("solve", *H_EQUATION_20, "--history"), "dir"),
    (("bench", "--suite", "overdetermined", "--sizes", "6", "--repeats", "1", "--json"), "dir"),
    (("solve", *H_EQUATION_20, "--out"), "file/run.json"),
], ids=["out-directory", "history-directory", "json-directory", "out-under-a-file"])
def test_unwritable_output_is_usage_error(argv, target, tmp_path, capsys):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    path = str(tmp_path / target)
    code = run_cli(*argv, path)
    captured = capsys.readouterr()
    assert code == 2
    assert f"cannot write {path}" in captured.err and captured.out == ""


def test_a_write_that_fails_after_the_output_check_is_usage_error(tmp_path, monkeypatch,
                                                                   capsys):
    # the output passes _output's check, then the disk fills while the report is written
    def full(self, *args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", full)
    path = tmp_path / "run.json"
    code = run_cli("solve", *H_EQUATION_20, "--out", str(path))
    captured = capsys.readouterr()
    assert code == 2
    assert f"cannot write {path}" in captured.err and captured.out == ""
    assert not path.exists()


@pytest.mark.parametrize("argv", [
    ("bench", "--suite", "overdetermined", "--sizes", "6", "--repeats", "1", "--json"),
    ("bench", "--suite", "overdetermined", "--sizes", "6", "--repeats", "1", "--out"),
    ("rho-sweep", "--problem", "overdetermined", "--sizes", "6", "--json"),
    ("solve", *H_EQUATION_20, "--history"),
    ("diagnose", "--problem", "broyden", "--n", "20", "--pairs", "0", "--out"),
], ids=["bench-json", "bench-out", "rho-sweep-json", "solve-history", "diagnose-out"])
def test_unwritable_output_fails_before_any_solve(argv, tmp_path, monkeypatch, capsys):
    solves = []
    monkeypatch.setattr(cli, "_bench_cell", lambda *args: solves.append(args))
    monkeypatch.setattr(cli, "_timed_run", lambda *args: solves.append(args))
    code = run_cli(*argv, str(tmp_path))
    captured = capsys.readouterr()
    assert code == 2 and solves == []
    assert f"cannot write {tmp_path}" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv,flag", [
    (("solve", *H_EQUATION_20, "--seed", "-1"), "--seed"),
    (("bench", "--suite", "brown", "--sizes", "6", "--repeats", "1", "--seed-base", "-3"),
     "--seed-base"),
    (("diagnose", "--problem", "brown", "--n", "10", "--seed=-1"), "--seed"),
    (("solve", *H_EQUATION_20, "--seed", "x"), "--seed"),
], ids=["solve", "bench", "diagnose", "solve-not-a-number"])
def test_bad_seed_is_usage_error_before_any_solve(argv, flag, monkeypatch, capsys):
    solves = []
    monkeypatch.setattr(cli, "_bench_cell", lambda *args: solves.append(args))
    monkeypatch.setattr(cli, "_timed_run", lambda *args: solves.append(args))
    monkeypatch.setattr(cli, "_warm_up", lambda: solves.append("warm-up"))
    code = _exit_code(*argv)
    captured = capsys.readouterr()
    assert code == 2 and solves == []
    assert f"argument {flag}:" in captured.err and captured.out == ""


def test_probing_an_output_leaves_no_file(tmp_path, capsys):
    # --out is probed, and removed again, before --history fails its probe
    out = tmp_path / "new" / "run.json"
    code = run_cli("solve", *H_EQUATION_20, "--out", str(out), "--history", str(tmp_path))
    captured = capsys.readouterr()
    assert code == 2 and f"cannot write {tmp_path}" in captured.err
    assert not out.exists()


@pytest.mark.parametrize("argv,sidecar", [
    (("solve", "--problem", "brown", "--n", "30", "--method", "rdcnk"), False),
    (("solve", "--problem", "brown", "--n", "10", "--method", "ngabk", "--x0", "const:nan"), False),
    (("bench", "--suite", "brown", "--sizes", "30", "--repeats", "1", "--json"), True),
    (("diagnose", "--problem", "broyden", "--n", "20", "--pairs", "0", "--max-iters", "1"), False),
], ids=["solve-overflow", "solve-nan-start", "bench-sidecar", "diagnose-xi"])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_json_is_strict(argv, sidecar, tmp_path, capsys):
    path = tmp_path / "bench.json"
    run_cli(*argv, *([str(path)] if sidecar else []))
    out = capsys.readouterr().out
    text = path.read_text() if sidecar else out
    json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} is not strict JSON"))
