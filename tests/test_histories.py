"""Seeded single-row histories and the RB-CNK block history pinned bit for
bit, and the averaged methods' iteration counts pinned exactly.

The digests were recorded at commit b34752e, where NRK drew its rows with
``rng.choice`` and the wrapper scanned every evaluation for non-finite
entries, using NumPy 2.4 with its bundled OpenBLAS on x86-64.  The RB-CNK
digest was recorded at commit b9d76bf, after its block step moved from
``lstsq`` to the checked Gram solve, which rounds differently; the iteration
count stayed at 66.  The Gram solve's rounding depends on the BLAS thread
count, so that cell runs in a fresh interpreter with one BLAS thread, as
``perfbench`` and ``benchmarks/capture_histories.py`` run it.
The overdetermined RD-CNK digests were recorded at commit 22808cf, before
the capped selection was cut to fewer passes over its arrays.
They pin the random stream, the projection and block-solve arithmetic and
the history records; a BLAS that rounds dot products differently changes
them.  The averaged direction's summation order is free to change, so its
histories are not pinned, only the counts the benchmark's cells expect.
``benchmarks/capture_histories.py`` makes the wider check across commits.
"""
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest

import nlkaczmarz
from nlkaczmarz import SolverConfig, get_problem, run

# (problem, n, method, seed): (iterations, digest of the history and final ||f||^2)
RECORDED = {
    ("h-equation", 50, "nrk", 0): (960, "913a9b65d35463c200d565fa5c76596c"),
    ("h-equation", 50, "nrk", 1): (964, "d4979034fd520ab22f14441245901f9a"),
    ("h-equation", 50, "nrk", 2): (956, "d0fe593ed629690d73d463a2b1d794d1"),
    ("h-equation", 50, "nrk", 3): (968, "74281a765d64d659be5ead90d6412f47"),
    ("broyden", 50, "nrk", 0): (1531, "406c8ac3c794dec257daebe7d542d3b1"),
    ("broyden", 50, "nrk", 1): (1535, "2b6839064ed81f07c3979618b97fda08"),
    ("broyden", 50, "nrk", 2): (1521, "bdfb38988001d8f4d5677116f216f7b4"),
    ("broyden", 50, "nrk", 3): (1511, "30c498317d4c8afff30401948a6a9e16"),
    ("overdetermined", 500, "nrk", 0): (697, "6d695360e4c853e70668f211da931cf5"),
    ("overdetermined", 500, "nrk", 1): (702, "945f7ebd47ca8247abc19b449932375b"),
    ("overdetermined", 500, "nrk", 2): (725, "50aeba7c5f7906cb66fa27eddcd29a78"),
    ("overdetermined", 500, "nrk", 3): (687, "f3418e87708757185b47b3ee69ff9310"),
    ("broyden", 50, "rdcnk", 0): (1459, "fbce64f5711f38cd0421cb74ed201b00"),
    ("broyden", 50, "rdcnk", 1): (1457, "a00ed6dec3e5bf29844dafc26e39b786"),
    ("broyden", 50, "rdcnk", 2): (1458, "8f30c311e412b2eeb988c1f470a159df"),
    ("broyden", 50, "rdcnk", 3): (1456, "2ec4a0642e09cf16aa98362a0b494c90"),
    ("overdetermined", 500, "rdcnk", 0): (500, "eae9cf478034c9b99eaf89c7d55d2a56"),
    ("overdetermined", 500, "rdcnk", 1): (500, "10d6f07729c77cf072ee07eb45867a56"),
    ("overdetermined", 500, "rdcnk", 2): (500, "44de38f278871ea6f7e384b8eba44643"),
    ("overdetermined", 500, "rdcnk", 3): (500, "e17f6f6f5f360fa7cc290875f14e9c0a"),
    ("h-equation", 100, "rbcnk", 0): (66, "e3cd336be6b71822fc87040f1de4fabc"),
}
# cells whose rounding depends on the BLAS thread count
ONE_BLAS_THREAD = {("h-equation", 100, "rbcnk", 0)}

# (problem, n, method): iterations of the deterministic averaged methods
AVERAGED_COUNTS = {
    ("h-equation", 100, "ngabk"): 66,
    ("h-equation", 100, "mrnabk"): 21,
    ("h-equation", 300, "ngabk"): 72,
    ("h-equation", 300, "mrnabk"): 24,
    ("h-equation", 500, "ngabk"): 78,
    ("h-equation", 500, "mrnabk"): 24,
}


def digest(report):
    h = hashlib.sha256()
    for k, r2, block_size, step in report.history:
        h.update(struct.pack("<qdqd", k, r2, block_size, step))
    h.update(struct.pack("<d", report.final_residual_sq))
    return h.hexdigest()[:32]


def outcome(cell):
    problem, n, method, seed = cell
    prob = get_problem(problem, n)
    report = run(prob.system, prob.x0, SolverConfig(method=method, seed=seed))
    return [report.status.value, report.iters, digest(report)]


def outcome_with_one_blas_thread(cell):
    """``outcome(cell)`` in a fresh interpreter: BLAS fixes its thread count
    when NumPy is first imported."""
    paths = [str(Path(nlkaczmarz.__file__).resolve().parents[1]), str(Path(__file__).parent),
             os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    code = f"import json, test_histories as t; print(json.dumps(t.outcome({cell!r})))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return json.loads(done.stdout)


@pytest.mark.parametrize("cell", sorted(RECORDED), ids=lambda c: "-".join(map(str, c)))
def test_history_is_bitwise_unchanged(cell):
    got = outcome_with_one_blas_thread(cell) if cell in ONE_BLAS_THREAD else outcome(cell)
    assert got == ["converged", *RECORDED[cell]]


@pytest.mark.parametrize("cell", sorted(AVERAGED_COUNTS), ids=lambda c: "-".join(map(str, c)))
def test_averaged_iteration_count_is_pinned(cell):
    problem, n, method = cell
    prob = get_problem(problem, n)
    report = run(prob.system, prob.x0, SolverConfig(method=method))
    assert report.status.value == "converged"
    assert report.iters == AVERAGED_COUNTS[cell]
