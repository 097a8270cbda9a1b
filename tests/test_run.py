import numpy as np
import pytest

from nlkaczmarz import (
    Method,
    SolverConfig,
    Status,
    get_problem,
    run,
)


def _solve(problem, n, method, **cfg):
    prob = get_problem(problem, n)
    return prob, run(prob.system, prob.x0, SolverConfig(method=method, **cfg))


def test_zero_iterations_at_known_solution():
    prob = get_problem("brown", 8)
    report = run(prob.system, np.ones(8), SolverConfig(method=Method.NGABK))
    assert report.status is Status.CONVERGED
    assert report.iters == 0
    assert report.final_residual_sq == 0.0


def test_mrnabk_h_equation_iteration_count():
    _, report = _solve("h-equation", 50, Method.MRNABK)
    assert report.status is Status.CONVERGED
    assert report.iters == 21


def test_ngabk_singular_broyden_iteration_count():
    _, report = _solve("broyden", 50, Method.NGABK)
    assert report.status is Status.CONVERGED
    assert report.iters == 288


def test_history_invariants():
    prob, report = _solve("h-equation", 50, Method.NGABK)
    ks = [h[0] for h in report.history]
    assert ks == list(range(len(ks)))
    fx0 = prob.system.residual(prob.x0)
    assert report.history[0][1] == pytest.approx(float(fx0 @ fx0))
    for _, r2, bs, step in report.history:
        assert r2 >= 0.0 and 1 <= bs <= prob.system.m and step >= 0.0
    assert report.final_residual_sq < 1e-6


def test_deterministic_methods_repeat_bitwise():
    for method in (Method.NGABK, Method.MRNABK, Method.RBCNK):
        _, a = _solve("broyden", 30, method)
        _, b = _solve("broyden", 30, method)
        assert a.history == b.history
        assert a.final_residual_sq == b.final_residual_sq


def test_stochastic_methods_reproducible_by_seed():
    for method in (Method.NRK, Method.RDCNK):
        _, a = _solve("h-equation", 30, method, seed=7)
        _, b = _solve("h-equation", 30, method, seed=7)
        assert a.iters == b.iters
        assert a.history == b.history


def test_max_iters_status():
    _, report = _solve("h-equation", 50, Method.NRK, max_iters=5, seed=1)
    assert report.status is Status.MAX_ITERS
    assert report.iters == 5


def test_store_iterates_lengths():
    prob, report = _solve("h-equation", 50, Method.MRNABK, store_iterates=True)
    assert len(report.iterates) == report.iters + 1
    assert np.array_equal(report.iterates[0], prob.x0)
    fx = prob.system.residual(report.iterates[-1])
    assert float(fx @ fx) == pytest.approx(report.final_residual_sq)


@pytest.mark.parametrize("problem,n", [("brown", 50), ("brown", 100),
                                       ("overdetermined", 100)])
@pytest.mark.parametrize("method", [Method.NGABK, Method.MRNABK])
def test_error_monotone_toward_known_solution(problem, n, method):
    prob = get_problem(problem, n)
    report = run(prob.system, prob.x0,
                 SolverConfig(method=method, store_iterates=True))
    assert report.status is Status.CONVERGED
    x_star = prob.system.known_solution
    errs = [np.linalg.norm(x - x_star) for x in report.iterates]
    for prev, cur in zip(errs, errs[1:]):
        assert cur <= prev * (1.0 + 1e-12)


def test_rho_controls_block_aggressiveness():
    prob = get_problem("broyden", 50)
    loose = run(prob.system, prob.x0, SolverConfig(method=Method.MRNABK, rho=0.1))
    tight = run(prob.system, prob.x0, SolverConfig(method=Method.MRNABK, rho=0.9))
    assert loose.status is Status.CONVERGED and tight.status is Status.CONVERGED
    # smaller rho admits bigger blocks, hence fewer iterations
    assert loose.iters < tight.iters


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(method=Method.MRNABK, rho=0.0)
    with pytest.raises(ValueError):
        SolverConfig(method=Method.NGABK, rho=1.5)
    with pytest.raises(ValueError):
        SolverConfig(method=Method.NGABK, max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(method=Method.NGABK, tol_sq=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SolverConfig(method=Method.NGABK, tol_sq=bad)
        with pytest.raises(ValueError):
            SolverConfig(method=Method.MRNABK, rho=bad)


@pytest.mark.parametrize("x0", [np.nan, np.inf, 1.0 / 0.225])
def test_bad_start_is_breakdown(x0):
    # 1/0.225 puts the N=1 H-equation denominator at zero: a finite start
    # whose residual is non-finite
    prob = get_problem("h-equation", 1)
    report = run(prob.system, np.array([x0]), SolverConfig(method=Method.NGABK))
    assert report.status is Status.BREAKDOWN
    assert report.iters == 0 and report.history == []
    assert report.message
