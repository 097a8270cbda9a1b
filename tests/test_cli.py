import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nlkaczmarz
from nlkaczmarz import cli
from nlkaczmarz.cli import CSV_HEADER, main
from nlkaczmarz.exceptions import DomainError


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


def test_diagnose_rejects_single_row_method(capsys):
    code = run_cli("diagnose", "--problem", "broyden", "--n", "20",
                   "--method", "nrk")
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


def test_stdout_csv_when_no_out(capsys):
    code = run_cli("rho-sweep", "--problem", "h-equation", "--sizes", "20",
                   "--rhos", "0.1")
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith(",".join(CSV_HEADER) + "\n")
    assert re.match(r"mrnabk,h-equation,20,20,0\.1,", out.splitlines()[1])


def test_bench_error_rows_and_uncaught_faults(tmp_path, monkeypatch, capsys):
    def domain_error(*args):
        raise DomainError("injected", index=0)

    monkeypatch.setattr(cli, "_timed_run", domain_error)
    sidecar = tmp_path / "bench.json"
    code = run_cli("bench", "--suite", "overdetermined", "--sizes", "6",
                   "--repeats", "1", "--json", str(sidecar))
    capsys.readouterr()
    assert code == 0
    rows = json.loads(sidecar.read_text())
    assert len(rows) == 5
    assert all(r["m"] == 10 and r["status"] == "error:injected" for r in rows)

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
    src = Path(nlkaczmarz.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "nlkaczmarz.cli", "solve", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


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
