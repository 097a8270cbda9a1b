import numpy as np
import pytest

from nlkaczmarz import (
    BlockSelection,
    Method,
    NonlinearSystem,
    SolverConfig,
    Status,
    check_lemma1,
    estimate_cone,
    get_problem,
    make_brown,
    nrk_bound,
    per_step_contraction,
    remark2_compare,
    run,
    sample_pairs,
    select_mrnabk,
    select_ngabk,
    theorem_bound,
    verified_contraction_steps,
)
from nlkaczmarz.diagnostics import _cone_and_bounds

from conftest import make_affine


def _affine_pairs(rng, n, count=30):
    return [(rng.normal(size=n), rng.normal(size=n)) for _ in range(count)]


def test_affine_cone_constant_is_zero(rng):
    sys = make_affine(rng.normal(size=(5, 4)), rng.normal(size=5))
    est = estimate_cone(sys, _affine_pairs(rng, 4))
    assert est.xi == pytest.approx(0.0, abs=1e-12)
    assert est.condition_holds
    assert est.pairs_used == 30


def test_affine_lemma1_is_equality(rng):
    sys = make_affine(rng.normal(size=(6, 4)), rng.normal(size=6))
    x1, x2 = rng.normal(size=4), rng.normal(size=4)
    chk = check_lemma1(sys, np.arange(6), x1, x2, xi=0.0)
    assert chk.holds
    assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)


def test_lemma1_refuses_non_integer_rows():
    # a cast to np.intp would check rows 0 and 1
    sys = get_problem("broyden", 5).system
    x1, x2 = np.full(5, -0.5), np.full(5, -0.25)
    with pytest.raises(IndexError, match="1-D integer array"):
        check_lemma1(sys, [0.9, 1.2], x1, x2, xi=0.0)
    assert check_lemma1(sys, [0, 1], x1, x2, xi=0.0) == check_lemma1(sys, np.arange(2), x1, x2,
                                                                     xi=0.0)


def test_identical_pair_is_skipped():
    sys = make_brown(4)
    x = 0.7 * np.ones(4)
    est = estimate_cone(sys, [(x, x)])
    assert est.pairs_used == 0
    assert np.isnan(est.xi)


def test_quadratic_violates_cone_condition():
    # f(x) = x^2: the pair (a, 0) gives |a^2 - 2a*a| / |a^2| = 1 >= 1/2
    sys = NonlinearSystem(1, 1, lambda x: x * x, lambda i, x: 2.0 * x)
    est = estimate_cone(sys, [(np.array([1.0]), np.array([0.0]))])
    assert est.xi == pytest.approx(1.0)
    assert not est.condition_holds


def test_lemma1_on_brown_sampled_pairs(rng):
    prob = get_problem("brown", 5)
    pairs = sample_pairs(prob.sample_box, 100, radius=0.05, rng=rng)
    est = estimate_cone(prob.system, pairs)
    for x1, x2 in pairs:
        fx1, fx2 = prob.system.residual(x1), prob.system.residual(x2)
        if np.allclose(fx1, fx2):
            continue
        assert check_lemma1(prob.system, np.arange(5), x1, x2, est.xi).holds


def test_theorem_bound_identity_single_row():
    # f(x) = x - b with one equation: delta = 1, |tau| = 1, all sigmas 1,
    # xi = 0, so the bound collapses to rho = 0 (one-step convergence)
    sys = make_affine(np.eye(1), np.array([3.0]))
    x = np.zeros(1)
    sel = select_ngabk(sys.residual(x))
    bound = theorem_bound(sys, x, sel, xi=0.0)
    assert bound.applicable
    assert bound.rho_bound == pytest.approx(0.0, abs=1e-14)


def test_theorem_bound_inapplicable_for_large_xi(rng):
    sys = make_affine(rng.normal(size=(4, 4)), rng.normal(size=4))
    x = np.zeros(4)
    bound = theorem_bound(sys, x, select_ngabk(sys.residual(x)), xi=0.5)
    assert not bound.applicable
    assert bound.rho_bound == 1.0


def test_theorem_bound_inapplicable_rank_deficient():
    A = np.array([[1.0, 0.0], [2.0, 0.0]])
    sys = make_affine(A, np.array([1.0, 1.0]))
    x = np.zeros(2)
    bound = theorem_bound(sys, x, select_ngabk(sys.residual(x)), xi=0.0)
    assert not bound.applicable


def test_theorem_bound_rejects_single_row_methods():
    sys = make_affine(np.eye(2), np.ones(2))
    x = np.zeros(2)
    with pytest.raises(ValueError):
        theorem_bound(sys, x, select_ngabk(sys.residual(x)), xi=0.0, method=Method.NRK)


@pytest.mark.parametrize("rows,error,match", [
    ([-1], IndexError, "out of range"),
    ([99], IndexError, "out of range"),
    ([0.5], IndexError, "1-D integer array"),
    ([[0, 1]], IndexError, "1-D integer array"),
    ([], ValueError, "no rows"),
], ids=["negative", "past-the-end", "float", "2-d", "empty"])
def test_theorem_bound_refuses_a_selection_that_is_not_rows_of_the_system(rows, error, match):
    sys = get_problem("h-equation", 5).system
    x = np.full(5, 0.5)
    with pytest.raises(error, match=match):
        theorem_bound(sys, x, BlockSelection(indices=rows, threshold=0.5), xi=0.0)
    assert sys.counters.jacobian_evals == 0


@pytest.mark.parametrize("xi", [-1.0, -0.5, -1e-300])
def test_the_bounds_refuse_a_negative_xi(xi):
    sys = get_problem("h-equation", 5).system
    x = np.full(5, 0.5)
    sel = select_ngabk(sys.residual(x))
    bound = theorem_bound(sys, x, sel, xi=0.0)
    calls = [lambda: check_lemma1(sys, np.arange(5), x, 0.9 * x, xi),
             lambda: theorem_bound(sys, x, sel, xi),
             lambda: nrk_bound(sys, x, xi),
             lambda: remark2_compare(bound, sys, xi)]
    for call in calls:
        with pytest.raises(ValueError, match="xi must be 0 or more"):
            call()


def test_the_bounds_accept_a_nan_xi():
    # estimate_cone's xi when no pair is usable: no bound applies
    sys = get_problem("h-equation", 5).system
    x = np.full(5, 0.5)
    bound = theorem_bound(sys, x, select_ngabk(sys.residual(x)), xi=np.nan)
    assert not bound.applicable and bound.rho_bound == 1.0
    assert np.isnan(nrk_bound(sys, x, np.nan))
    assert not remark2_compare(bound, sys, np.nan).strict
    assert not check_lemma1(sys, np.arange(5), x, 0.9 * x, np.nan).holds


@pytest.mark.parametrize("count,radius,match", [
    (-1, 0.05, "pair count must be 0 or more"),
    (3, -1.0, "pair radius must be finite and positive"),
    (3, 0.0, "pair radius must be finite and positive"),
    (3, np.inf, "pair radius must be finite and positive"),
    (3, np.nan, "pair radius must be finite and positive"),
])
def test_sample_pairs_refuses_a_negative_count_or_a_bad_radius(count, radius, match, rng):
    box = get_problem("brown", 4).sample_box
    with pytest.raises(ValueError, match=match):
        sample_pairs(box, count, radius, rng)
    assert sample_pairs(box, 0, 0.05, rng) == []


def test_delta_threshold_dominates_uniform(rng):
    # the greedy threshold never drops below 1/m
    for _ in range(1000):
        fx = rng.normal(size=rng.integers(1, 50))
        if not np.any(fx):
            continue
        sel = select_ngabk(fx)
        assert sel.threshold >= 1.0 / len(fx) - 1e-15


def test_block_sigma_max_below_frobenius(rng):
    J = rng.normal(size=(20, 10))
    fro2 = float((J * J).sum())
    for _ in range(50):
        size = int(rng.integers(1, 21))
        rows = rng.choice(20, size=size, replace=False)
        smax = np.linalg.svd(J[rows], compute_uv=False)[0]
        assert smax**2 <= fro2 * (1.0 + 1e-12)


def test_remark2_ordering_on_random_states(rng):
    sys = make_affine(rng.normal(size=(8, 8)), rng.normal(size=8))
    strict = 0
    for _ in range(50):
        x = rng.normal(size=8)
        bound = theorem_bound(sys, x, select_ngabk(sys.residual(x)), xi=0.0)
        rep = remark2_compare(bound, sys, xi=0.0)
        assert rep.rho_block <= rep.rho_nrk + 1e-12
        strict += rep.strict
    assert strict == 50


def test_remark2_compare_reuses_the_bound_jacobian():
    sys = get_problem("h-equation", 30).system
    x = np.full(30, 0.5)
    fx = sys.residual(x)
    sys.counters.reset()
    bound = theorem_bound(sys, x, select_ngabk(fx), xi=0.1)
    rep = remark2_compare(bound, sys, xi=0.1)
    assert sys.counters.jacobian_evals == 1
    assert rep.rho_nrk == nrk_bound(sys, x, xi=0.1)


@pytest.mark.parametrize("xi", [0.5, 0.9, 792.0])
def test_remark2_ordering_is_not_strict_where_the_bound_is_vacuous(xi, rng):
    # for xi > 1/2 the single-row rate exceeds the block bound's 1, so the
    # two vacuous bounds would compare as strictly ordered
    sys = make_affine(rng.normal(size=(8, 8)), rng.normal(size=8))
    x = rng.normal(size=8)
    bound = theorem_bound(sys, x, select_ngabk(sys.residual(x)), xi=xi)
    rep = remark2_compare(bound, sys, xi=xi)
    assert not bound.applicable and rep.rho_block == 1.0
    assert rep.rho_nrk == nrk_bound(sys, x, xi) >= 1.0
    assert not rep.strict


def test_nrk_bound_below_one(rng):
    sys = make_affine(rng.normal(size=(6, 6)), rng.normal(size=6))
    b = nrk_bound(sys, rng.normal(size=6), xi=0.0)
    assert 0.0 < b < 1.0


@pytest.mark.parametrize("with_x_star", [True, False], ids=["limit-point", "no-x-star"])
@pytest.mark.parametrize("method", [Method.NGABK, Method.MRNABK])
def test_diagnose_per_iterate_path_matches_the_public_functions(method, with_x_star, rng):
    # cmd_diagnose evaluates each iterate once for its cone pair and its
    # bound; each bound and its single-row rate must be the public ones.
    # The pairs (x_k, x*) push xi above 1/2; the sampled pairs alone keep
    # it below, where every bound is applicable and reads xi
    prob = get_problem("h-equation", 20)
    sys = prob.system
    report = run(sys, prob.x0, SolverConfig(method=method, store_iterates=True))
    assert report.status is Status.CONVERGED
    pairs = sample_pairs(prob.sample_box, 10, 0.05, rng)
    x_star = report.iterates[-1] if with_x_star else None
    cone, bounds = _cone_and_bounds(sys, report, pairs, x_star, method, 0.1)
    assert len(bounds) == len(report.history) == report.iters > 0
    assert all(bound.applicable for bound in bounds) == (not with_x_star)
    for x, bound in zip(report.iterates, bounds):
        fx = sys.residual(x)
        sel = select_ngabk(fx) if method is Method.NGABK else select_mrnabk(fx, 0.1)
        assert bound == theorem_bound(sys, x, sel, cone.xi, method, 0.1)
        assert remark2_compare(bound, sys, cone.xi).rho_nrk == nrk_bound(sys, x, cone.xi)


def test_per_step_contraction_empty_at_solution():
    prob = get_problem("brown", 6)
    report = run(prob.system, np.ones(6),
                 SolverConfig(method=Method.NGABK, store_iterates=True))
    ratios = per_step_contraction(report, np.ones(6))
    assert len(ratios) == 0


def test_per_step_contraction_stops_at_an_iterate_equal_to_x_star():
    # x* = x_1: the ratio from x_0 is 0, and none is taken from x_1 on
    prob = get_problem("h-equation", 20)
    report = run(prob.system, prob.x0, SolverConfig(method=Method.MRNABK, store_iterates=True))
    assert len(report.iterates) == 20
    ratios = per_step_contraction(report, report.iterates[1])
    assert ratios.tolist() == [0.0]


def test_per_step_contraction_refuses_an_x_star_of_another_shape():
    # one entry would broadcast against every iterate, as if x* were (1, ..., 1)
    prob = get_problem("h-equation", 20)
    report = run(prob.system, prob.x0, SolverConfig(method=Method.MRNABK, store_iterates=True))
    with pytest.raises(ValueError, match=r"^x_star has shape \(1,\), expected \(20,\)$"):
        per_step_contraction(report, np.ones(1))


@pytest.mark.parametrize("A,verified", [
    ([[1.0, 1.0], [2.0, 2.0]], 0),
    ([[1.0, 1.0], [2.0, -1.0]], 1),
], ids=["rank-deficient", "full-rank"])
def test_verified_contraction_steps_skip_a_rank_deficient_jacobian(A, verified):
    # f(x) = A x - b is affine, so xi = 0 and the lemma holds for every pair:
    # the rank of A alone decides whether the one NGABK step's bound applies
    A, x_star = np.array(A), np.ones(2)
    sys = make_affine(A, A @ x_star)
    report = run(sys, np.zeros(2), SolverConfig(method=Method.NGABK, store_iterates=True))
    assert report.iters == 1
    steps = verified_contraction_steps(sys, report, x_star)
    assert len(steps) == verified
    assert all(s.xi == 0.0 and s.measured_ratio <= s.rho_bound < 1.0 for s in steps)


def test_per_step_contraction_requires_iterates():
    prob = get_problem("brown", 6)
    report = run(prob.system, prob.x0, SolverConfig(method=Method.NGABK))
    with pytest.raises(ValueError):
        per_step_contraction(report, np.ones(6))


def test_per_step_contraction_final_ratio_small():
    prob = get_problem("h-equation", 30)
    report = run(prob.system, prob.x0,
                 SolverConfig(method=Method.MRNABK, store_iterates=True))
    assert report.status is Status.CONVERGED
    x_star = report.iterates[-1]
    ratios = per_step_contraction(report, x_star)
    assert len(ratios) == report.iters
    assert ratios[-1] < 1.0


@pytest.mark.parametrize("method", [Method.NGABK, Method.MRNABK])
def test_verified_contraction_steps_brown(method):
    prob = get_problem("brown", 10)
    report = run(prob.system, prob.x0,
                 SolverConfig(method=method, store_iterates=True))
    assert report.status is Status.CONVERGED
    # the n=10 run stops 9.9e-3 from the all-ones root, against which no
    # step qualifies, so the claim is checked against its last iterate
    steps = verified_contraction_steps(prob.system, report,
                                       report.iterates[-1], method)
    assert len(steps) > 0
    for s in steps:
        assert s.xi < 0.5
        assert s.measured_ratio <= s.rho_bound * (1.0 + 1e-10)


@pytest.mark.parametrize("n,method,polish_iters,verified", [
    (20, Method.NGABK, 3, 17), (50, Method.NGABK, 4, 17), (50, Method.MRNABK, 3, 8)])
def test_verified_contraction_steps_h_equation_hold_against_a_polished_root(
        n, method, polish_iters, verified):
    # the run stops at ||f||^2 < 1e-6; Gauss-Newton steps from its last
    # iterate reach ||f||^2 < 1e-30, and against that x* no step whose
    # hypotheses are verified contracts slower than its bound
    prob = get_problem("h-equation", n)
    report = run(prob.system, prob.x0, SolverConfig(method=method, store_iterates=True))
    assert report.status is Status.CONVERGED
    polish = run(prob.system, report.iterates[-1],
                 SolverConfig(method=Method.NEWTON, tol_sq=1e-30, max_iters=20,
                              store_iterates=True))
    assert (polish.status, polish.iters) == (Status.CONVERGED, polish_iters)
    steps = verified_contraction_steps(prob.system, report, polish.iterates[-1], method)
    assert len(steps) == verified
    assert not [s.k for s in steps if s.measured_ratio > s.rho_bound * (1.0 + 1e-10)]


def test_verified_contraction_steps_evaluate_each_iterate_once():
    # f(x*) once, f(x_k) once per step and the Jacobian once per step whose
    # residual differences are all usable: the lemma check reuses them
    prob = get_problem("brown", 10)
    sys = prob.system
    report = run(sys, prob.x0, SolverConfig(method=Method.NGABK, store_iterates=True))
    x_star = report.iterates[-1]
    sys.counters.reset()
    steps = verified_contraction_steps(sys, report, x_star)
    assert (report.iters, len(steps)) == (2453, 1048)
    c = sys.counters
    assert (c.residual_evals, c.row_gradient_evals, c.jacobian_evals) == (2454, 0, 1227)
    # and each verified step passes the public lemma check on all rows
    for s in steps[::50]:
        assert check_lemma1(sys, np.arange(sys.m), report.iterates[s.k], x_star, s.xi,
                            rel_slack=0.0).holds
