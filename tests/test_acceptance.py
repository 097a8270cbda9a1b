"""Acceptance suite: nine numbered criteria, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced; without ``-s`` they appear in captured output on failure.
"""
import statistics
import time

import numpy as np
import pytest

from nlkaczmarz import (
    Method,
    SolverConfig,
    Status,
    check_lemma1,
    estimate_cone,
    get_problem,
    make_brown,
    per_step_contraction,
    remark2_compare,
    run,
    sample_pairs,
    select_ngabk,
    theorem_bound,
    verified_contraction_steps,
)
from nlkaczmarz.solvers import _averaged, _projected

from conftest import make_affine


def _report(label, passed, detail=""):
    flag = "PASS" if passed else "FAIL"
    print(f"[{flag}] {label}" + (f" — {detail}" if detail else ""))
    assert passed, f"{label}: {detail}"


def _iters(problem, n, method, **cfg):
    prob = get_problem(problem, n)
    report = run(prob.system, prob.x0, SolverConfig(method=method, **cfg))
    assert report.status is Status.CONVERGED, (problem, n, method, report.status)
    return report.iters


def _within(value, target, rel):
    return abs(value - target) <= rel * target


def test_criterion_1_h_equation_n50():
    t0 = time.perf_counter()
    mr = _iters("h-equation", 50, Method.MRNABK)
    ng = _iters("h-equation", 50, Method.NGABK)
    elapsed = time.perf_counter() - t0
    ok = mr == 21 and _within(ng, 70, 0.10) and elapsed < 1.0
    _report("criterion 1: H-equation n=50 MRNABK=21 exact, NGABK=70±10%, <1s",
            ok, f"mrnabk={mr}, ngabk={ng}, wall={elapsed:.3f}s")


def test_criterion_2_h_equation_larger_sizes():
    targets = {100: (66, 21), 300: (72, 24), 500: (78, 24)}
    results = {}
    ok = True
    for n, (ng_t, mr_t) in targets.items():
        ng = _iters("h-equation", n, Method.NGABK)
        mr = _iters("h-equation", n, Method.MRNABK)
        results[n] = (ng, mr)
        ok &= _within(ng, ng_t, 0.10) and _within(mr, mr_t, 0.15)
    _report("criterion 2: H-equation n∈{100,300,500} NGABK±10% of {66,72,78}, "
            "MRNABK±15% of {21,24,24}", ok, f"{results}")


def test_criterion_3_brown_one_iteration():
    results = {}
    ok = True
    for n in (50, 100, 400):
        row = tuple(_iters("brown", n, m)
                    for m in (Method.NGABK, Method.RBCNK, Method.MRNABK))
        results[n] = row
        ok &= row == (1, 1, 1)
    _report("criterion 3: Brown n∈{50,100,400} NGABK/RB-CNK/MRNABK all IT=1",
            ok, f"{results}")


def test_criterion_4_singular_broyden():
    mr50 = _iters("broyden", 50, Method.MRNABK)
    ng50 = _iters("broyden", 50, Method.NGABK)
    mr2000 = _iters("broyden", 2000, Method.MRNABK)
    ok = (_within(mr50, 33, 0.10) and _within(ng50, 288, 0.15)
          and _within(mr2000, 31, 0.20))
    _report("criterion 4: Broyden n=50 MRNABK=33±10%, NGABK=288±15%; "
            "n=2000 MRNABK=31±20%", ok,
            f"mrnabk50={mr50}, ngabk50={ng50}, mrnabk2000={mr2000}")


def test_criterion_5_overdetermined_two_iterations():
    results = {}
    ok = True
    for n in (100, 1000):
        ng = _iters("overdetermined", n, Method.NGABK)
        mr = _iters("overdetermined", n, Method.MRNABK)
        results[n] = (ng, mr)
        ok &= ng == 2 and mr == 2
    _report("criterion 5: overdetermined rational n∈{100,1000} "
            "NGABK=MRNABK=2 exact", ok, f"{results}")


def test_criterion_6_nrk_medians():
    medians = {}
    for problem, n, target in (("h-equation", 50, 970), ("broyden", 50, 1524)):
        its = [
            _iters(problem, n, Method.NRK, seed=s) for s in range(10)
        ]
        medians[problem] = statistics.median_low(its)
        assert _within(medians[problem], target, 0.30), (problem, medians)
    _report("criterion 6: NRK medians over 10 seeds within ±30% of "
            "970 (H-equation n=50) and 1524 (Broyden n=50)", True,
            f"{medians}")


def test_criterion_7_method_ordering():
    rows = [("h-equation", 50), ("h-equation", 100), ("brown", 50),
            ("broyden", 50), ("overdetermined", 100)]
    ok = True
    detail = {}
    for problem, n in rows:
        mr = _iters(problem, n, Method.MRNABK)
        ng = _iters(problem, n, Method.NGABK)
        nrk = statistics.median_low(
            _iters(problem, n, Method.NRK, seed=s) for s in range(5))
        detail[(problem, n)] = (mr, ng, nrk)
        ok &= mr <= ng <= nrk
    _report("criterion 7: iters(MRNABK) <= iters(NGABK) <= iters(NRK) on "
            "converged rows", ok, f"{detail}")


def test_criterion_8_property_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)

    # eta identity: eta^T(-f) == ||eta||^2 == sum of selected squares
    for _ in range(200):
        fx = rng.normal(size=int(rng.integers(2, 50)))
        sel = select_ngabk(fx)
        eta = np.zeros(len(fx))
        eta[sel.indices] = -fx[sel.indices]
        s2 = float((fx[sel.indices] ** 2).sum())
        assert abs(eta @ (-fx) - s2) <= 1e-12 * max(s2, 1.0)
        assert abs(eta @ eta - s2) <= 1e-12 * max(s2, 1.0)

    # selection nonemptiness and argmax membership on 10,000 random vectors
    for _ in range(10_000):
        fx = rng.normal(scale=rng.choice([1e-3, 1.0, 1e3]),
                        size=int(rng.integers(1, 40)))
        if not np.any(fx):
            continue
        sel = select_ngabk(fx)
        assert len(sel.indices) >= 1
        assert int(np.argmax(fx**2)) in sel.indices

    # singleton-block step coincides with the single-row projection
    sys5 = make_brown(5)
    view5 = sys5._view()  # the steps evaluate through a solve's view
    for _ in range(20):
        x = rng.uniform(0.3, 1.4, size=5)
        fx = sys5.residual(x)
        i = int(rng.integers(5))
        with np.errstate(all="ignore"):
            blk = _averaged(view5, x, fx, np.array([i], dtype=np.intp), 0)[0]
            single = _projected(view5, x, fx, i, 0)[0]
        assert np.allclose(blk, single, rtol=1e-12)

    # greedy threshold never below the uniform share 1/m
    for _ in range(1000):
        fx = rng.normal(size=int(rng.integers(1, 60)))
        if not np.any(fx):
            continue
        assert select_ngabk(fx).threshold >= 1.0 / len(fx) - 1e-15

    # block spectral norm bounded by the full Frobenius norm
    for _ in range(20):
        J = rng.normal(size=(20, 10))
        rows = rng.choice(20, size=int(rng.integers(1, 21)), replace=False)
        smax2 = np.linalg.svd(J[rows], compute_uv=False)[0] ** 2
        assert smax2 <= (J * J).sum() * (1 + 1e-12)

    # block lower-bound inequality on 100 Brown pairs
    prob5 = get_problem("brown", 5)
    pairs = sample_pairs(prob5.sample_box, 100, 0.05, rng)
    xi5 = estimate_cone(prob5.system, pairs).xi
    for x1, x2 in pairs:
        assert check_lemma1(prob5.system, np.arange(5), x1, x2, xi5).holds

    # measured contraction within the theorem bounds on Brown n=10
    # trajectories, on the steps where the hypotheses verifiably hold
    prob10 = get_problem("brown", 10)
    for method in (Method.NGABK, Method.MRNABK):
        rep = run(prob10.system, prob10.x0,
                  SolverConfig(method=method, store_iterates=True))
        assert rep.status is Status.CONVERGED
        steps = verified_contraction_steps(prob10.system, rep,
                                           rep.iterates[-1], method)
        assert len(steps) > 0
        for s in steps:
            assert s.measured_ratio <= s.rho_bound * (1 + 1e-10)

    # strict bound ordering block < single-row on 100 random states
    sys8 = make_affine(rng.normal(size=(8, 8)), rng.normal(size=8))
    for _ in range(100):
        x = rng.normal(size=8)
        bound = theorem_bound(sys8, x, select_ngabk(sys8.residual(x)), xi=0.0)
        assert remark2_compare(bound, sys8, xi=0.0).strict

    elapsed = time.perf_counter() - t0
    _report("criterion 8: property suite (identities, selection, reduction, "
            "bounds, contraction) under 60 s", elapsed < 60.0,
            f"wall={elapsed:.1f}s")


def test_criterion_9_evaluation_counters():
    detail = {}
    ok = True
    for method in (Method.NGABK, Method.MRNABK):
        prob = get_problem("h-equation", 50)
        report = run(prob.system, prob.x0, SolverConfig(method=method))
        c = prob.system.counters
        block_rows = sum(h[2] for h in report.history)
        detail[method.value] = (c.jacobian_evals, c.row_gradient_evals, block_rows)
        ok &= c.jacobian_evals == 0 and c.row_gradient_evals == block_rows

    prob = get_problem("h-equation", 50)
    report = run(prob.system, prob.x0, SolverConfig(method=Method.RDCNK, seed=0))
    c = prob.system.counters
    detail["rdcnk"] = (c.jacobian_evals, report.iters)
    ok &= c.jacobian_evals == report.iters

    _report("criterion 9: block methods cost |tau_k| row gradients and no "
            "Jacobians; the capped baseline costs one Jacobian per iteration",
            ok, f"{detail}")
