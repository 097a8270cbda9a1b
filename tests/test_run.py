import math
import struct
import threading
from sys import float_info

import numpy as np
import pytest

import nlkaczmarz
from nlkaczmarz import (
    DomainError,
    Method,
    NonlinearSystem,
    SolverConfig,
    Status,
    get_problem,
    make_h_equation,
    run,
)
from nlkaczmarz.solvers import BREAKDOWN_EPS
from conftest import fresh_interpreter


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
    # a float cap stops past it (2.5 after 3 steps), and nan or inf never;
    # True would act as 1
    for bad in (float("nan"), float("inf"), 2.5, np.float64(3.0), True, False, "3",
                np.int64(0), -2):
        with pytest.raises(ValueError, match="max_iters"):
            SolverConfig(method=Method.NGABK, max_iters=bad)
    for good in (1, np.int64(5), np.uint16(7)):
        assert SolverConfig(method=Method.NGABK, max_iters=good).max_iters == good
    with pytest.raises(ValueError):
        SolverConfig(method=Method.NGABK, tol_sq=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            SolverConfig(method=Method.NGABK, tol_sq=bad)
        with pytest.raises(ValueError):
            SolverConfig(method=Method.MRNABK, rho=bad)


@pytest.mark.parametrize("field", ["rho", "tol_sq"])
@pytest.mark.parametrize("bad", ["0.5", None, True, np.bool_(True), 1j],
                         ids=["str", "None", "True", "np.True_", "complex"])
def test_config_refuses_a_rho_or_tol_sq_that_is_not_a_real_number(field, bad):
    # True would act as 1.0; the others raised TypeError from math.isfinite
    with pytest.raises(ValueError, match=f"^{field} must"):
        SolverConfig(method=Method.MRNABK, **{field: bad})


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.int64(-3), np.float64(2.0), "1"])
@pytest.mark.parametrize("method", list(Method))
def test_config_checks_the_seed_for_every_method(method, seed):
    # only NRK and RD-CNK build a generator, which would refuse the seed itself
    with pytest.raises(ValueError, match="seed"):
        SolverConfig(method=method, seed=seed)


@pytest.mark.parametrize("seed", [0, 7, np.int64(7), np.uint32(7), 2**70])
def test_config_takes_python_and_numpy_integer_seeds(seed):
    assert SolverConfig(method=Method.NRK, seed=seed).seed == seed


_RANDOM_LOADED_AFTER = """
import sys
import nlkaczmarz
from nlkaczmarz import SolverConfig, get_problem, run

prob = get_problem("h-equation", 10)
for method in ("ngabk", "mrnabk", "rbcnk", "newton"):
    run(prob.system, prob.x0, SolverConfig(method))
print("numpy.random" in sys.modules)
run(prob.system, prob.x0, SolverConfig("nrk"))
print("numpy.random" in sys.modules)
"""


def test_only_the_methods_that_draw_rows_load_numpy_random():
    # numpy.random costs about 10 ms and 6 MB to load; a deterministic
    # solve draws nothing, so it builds no generator
    done = fresh_interpreter("-c", _RANDOM_LOADED_AFTER)
    assert done.stdout.split() == ["False", "True"], done.stderr


_DIAGNOSTICS_LOADED_AFTER = """
import sys
import nlkaczmarz
from nlkaczmarz import Method, SolverConfig, get_problem, run

prob = get_problem("h-equation", 10)
for method in Method:
    run(prob.system, prob.x0, SolverConfig(method))
print("nlkaczmarz.diagnostics" in sys.modules)
bound = nlkaczmarz.theorem_bound
print("nlkaczmarz.diagnostics" in sys.modules)
print(bound is sys.modules["nlkaczmarz.diagnostics"].theorem_bound)
"""


def test_a_solve_of_every_method_leaves_the_diagnostics_unloaded():
    # the diagnostics are imported on the first read of one of their names
    done = fresh_interpreter("-c", _DIAGNOSTICS_LOADED_AFTER)
    assert done.stdout.split() == ["False", "True", "True"], done.stderr


_STAR_IMPORT = """
import nlkaczmarz
names = {}
exec("from nlkaczmarz import *", names)
print(sorted(set(nlkaczmarz.__all__) - set(names)), len(nlkaczmarz.__all__))
print(names["fd_check"] is nlkaczmarz.diagnostics.fd_check)
"""


def test_a_star_import_binds_every_public_name():
    done = fresh_interpreter("-c", _STAR_IMPORT)
    assert done.stdout.split() == ["[]", "32", "True"], done.stderr


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'nlkaczmarz' has no attribute "
                                             r"'no_such_name'$"):
        nlkaczmarz.no_such_name


@pytest.mark.parametrize("x0", [np.nan, np.inf, 1.0 / 0.225])
def test_bad_start_is_breakdown(x0):
    # 1/0.225 puts the N=1 H-equation denominator at zero: a finite start
    # whose residual is non-finite
    prob = get_problem("h-equation", 1)
    report = run(prob.system, np.array([x0]), SolverConfig(method=Method.NGABK))
    assert report.status is Status.BREAKDOWN
    assert report.iters == 0 and report.history == []
    assert report.message


def test_a_complex_start_is_refused_before_any_evaluation():
    # a cast to float solved from the real part and reported convergence
    prob = get_problem("h-equation", 20)
    with pytest.raises(ValueError, match=r"^x0 has dtype complex128, expected real numbers$"):
        run(prob.system, prob.x0 + 1j, SolverConfig(method=Method.NGABK))
    assert prob.system.counters.residual_evals == 0


_UNDEFINED_STEP = "||f_tau||^2 = inf, ||d||^2 = inf: the step length is undefined"


@pytest.mark.parametrize("start", [1e307, -1e307, 1e200, -1e200],
                         ids=["1e307", "-1e307", "1e200", "-1e200"])
@pytest.mark.parametrize("method,status,message", [
    (Method.NGABK, Status.BREAKDOWN, _UNDEFINED_STEP),
    (Method.MRNABK, Status.BREAKDOWN, _UNDEFINED_STEP),
    (Method.NRK, Status.BREAKDOWN, "||f||^2 = inf: the row weights are undefined"),
    (Method.RDCNK, Status.BREAKDOWN, "||f||^2 = inf: the threshold is undefined"),
    (Method.RBCNK, Status.MAX_ITERS, ""),
], ids=["ngabk", "mrnabk", "nrk", "rdcnk", "rbcnk"])
def test_an_extreme_start_ends_as_with_the_dense_kernel_product(method, status, message, start):
    # at N = 500 the kernel products go through the factor of its Hankel
    # part (LOWRANK_MIN_N <= 500), whose F x stays finite at x = +-1e307, so
    # the solve ends as it does with the dense product
    prob = get_problem("h-equation", 500)
    report = run(prob.system, np.full(500, start), SolverConfig(method=method, max_iters=50))
    assert (report.status, report.message) == (status, message)
    assert report.iters == (50 if status is Status.MAX_ITERS else 0)


def test_newton_stalled_step_is_breakdown():
    # from iteration 451 on, Newton's step on Brown n = 30 rounds to x itself
    _, report = _solve("brown", 30, Method.NEWTON)
    assert report.status is Status.BREAKDOWN
    assert report.iters == len(report.history) == 451
    assert report.message == "the step at iteration 451 left x unchanged"
    assert report.history[-1][3] > 0.0


def _gradient_off_by(scale):
    """f(x) = x - 1 with a row gradient ``scale`` times too large: from x = 2
    every step is about 1/scale, which rounds away."""
    return NonlinearSystem(1, 1, lambda x: x - 1.0, lambda i, x: np.array([scale]))


@pytest.mark.parametrize("method", [Method.NGABK, Method.MRNABK, Method.RBCNK, Method.NEWTON])
def test_deterministic_zero_step_is_breakdown(method):
    report = run(_gradient_off_by(1e30), np.array([2.0]), SolverConfig(method=method))
    assert report.status is Status.BREAKDOWN
    assert report.iters == 0 and report.history == []
    assert report.message == "the step at iteration 0 left x unchanged"


@pytest.mark.parametrize("method", [Method.RBCNK, Method.NEWTON])
def test_step_whose_norm_underflows_is_not_a_stall(method):
    # from x = 0 each step is -1e-170: x moves, but ||dx||^2 underflows to 0.0
    sys = NonlinearSystem(1, 1, lambda x: x + 1.0, lambda i, x: np.array([1e170]))
    report = run(sys, np.zeros(1), SolverConfig(method=method, max_iters=3))
    assert report.status is Status.MAX_ITERS
    assert [h[3] for h in report.history] == [0.0] * 3


@pytest.mark.parametrize("method", [Method.NRK, Method.RDCNK])
def test_random_row_methods_step_on_after_a_zero_step(method):
    report = run(_gradient_off_by(1e30), np.array([2.0]), SolverConfig(method=method, max_iters=5))
    assert report.status is Status.MAX_ITERS
    assert [h[3] for h in report.history] == [0.0] * 5


def _fails_after_first_residual():
    calls = []

    def residual(x):
        calls.append(None)
        if len(calls) > 1:
            raise RuntimeError("problem callable failed")
        return x - 1.0

    return NonlinearSystem(2, 2, residual, lambda i, x: np.eye(2)[i])


@pytest.mark.parametrize("case", ["converged", "breakdown", "bad x0 shape", "callable raises"])
def test_run_restores_the_floating_point_state(case):
    with np.errstate(over="raise", divide="warn", invalid="print", under="ignore"):
        before = np.geterr()
        if case == "converged":
            assert _solve("h-equation", 50, Method.MRNABK)[1].status is Status.CONVERGED
        elif case == "breakdown":
            # ||f||^2 overflows after one step; over="raise" does not reach the solve
            assert _solve("brown", 30, Method.RDCNK)[1].status is Status.BREAKDOWN
        elif case == "bad x0 shape":
            with pytest.raises(ValueError):
                run(get_problem("brown", 4).system, np.zeros(3), SolverConfig(method=Method.NGABK))
        else:
            with pytest.raises(RuntimeError):
                run(_fails_after_first_residual(), np.zeros(2), SolverConfig(method=Method.NGABK))
        assert np.geterr() == before


def test_evaluations_inside_a_solve_use_its_scope():
    seen = []

    def residual(x):
        seen.append(np.geterr())
        return x - 1.0

    sys = NonlinearSystem(2, 2, residual, lambda i, x: np.eye(2)[i])
    with np.errstate(all="raise"):
        report = run(sys, np.zeros(2), SolverConfig(method=Method.NGABK))
        assert report.status is Status.CONVERGED and len(seen) == 2
        # a direct call enters its own scope
        sys.residual(np.zeros(2))
    quiet = {"divide": "ignore", "over": "ignore", "under": "ignore", "invalid": "ignore"}
    assert seen == [quiet] * 3


def test_another_system_keeps_its_checks_inside_a_solve():
    # run() evaluates the solved system through its _eval_* methods; a public call made
    # during the solve, on another system or on the solved one itself, still
    # raises its own DomainError
    other = make_h_equation(1, c=0.9)
    singular = np.array([4.0 / 0.9])
    caught = []

    def residual(x):
        if np.isnan(x).any():  # the solved system's own call below
            return x - 1.0
        for evaluate in (lambda: other.residual(singular),
                         lambda: other.row_gradient(0, singular),
                         lambda: sys.residual(np.array([np.nan, 0.0])),
                         lambda: sys.row_gradient(0, np.array([np.nan, 0.0]))):
            with pytest.raises(DomainError) as exc:
                evaluate()
            caught.append(str(exc.value))
        return x - 1.0

    sys = NonlinearSystem(2, 2, residual, lambda i, x: np.eye(2)[i] + 0.0 * x)
    for method in (Method.NGABK, Method.NRK):
        caught.clear()
        report = run(sys, np.zeros(2), SolverConfig(method=method))
        assert report.status is Status.CONVERGED
        assert caught == ["non-finite residual component 0 at evaluation point",
                          "non-finite gradient in row 0"] * 2 * (report.iters + 1)


@pytest.mark.parametrize("problem,n,method,counts", [
    ("h-equation", 50, Method.NRK, (960, 961, 960, 0)),
    ("broyden", 50, Method.RDCNK, (1459, 1460, 1459, 1460)),
])
def test_single_row_solve_evaluation_counts(problem, n, method, counts):
    # one residual per step plus the start, one row gradient per projection
    # and, for RD-CNK, one set of row norms (a Jacobian) per iterate reached:
    # Broyden refreshes them after every projection, the last one included
    prob, report = _solve(problem, n, method)
    c = prob.system.counters
    assert (report.iters, c.residual_evals, c.row_gradient_evals, c.jacobian_evals) == counts


def test_a_solve_in_another_thread_does_not_silence_direct_calls():
    entered, release = threading.Event(), threading.Event()
    calls, reports = [], []

    def residual(x):
        calls.append(None)
        if len(calls) == 2:  # the solve's first step
            entered.set()
            release.wait(30)
        return x - 1.0

    sys = NonlinearSystem(2, 2, residual, lambda i, x: np.eye(2)[i])
    worker = threading.Thread(
        target=lambda: reports.append(run(sys, np.zeros(2), SolverConfig(method=Method.NGABK))))
    worker.start()
    try:
        assert entered.wait(30)
        # without its own scope the evaluation would raise FloatingPointError here
        with np.errstate(all="raise"), pytest.raises(DomainError) as exc:
            make_h_equation(1, c=0.9).residual(np.array([4.0 / 0.9]))
        assert exc.value.index == 0
        # and the system being solved keeps its checks
        with pytest.raises(DomainError):
            sys.residual(np.array([np.nan, 0.0]))
    finally:
        release.set()
        worker.join(30)
    assert not worker.is_alive()
    assert reports[0].status is Status.CONVERGED


def _without_refresh(sys):
    """``sys`` built again from the same callables, without its
    ``refresh_after_row`` hook."""
    return NonlinearSystem(sys.m, sys.n, sys._residual, sys._row_gradient,
                           gradient_rows=sys._gradient_rows, block_vjp=sys._block_vjp,
                           row_norms_sq=sys._row_norms_sq,
                           known_solution=sys.known_solution)


def _report_bits(sys, report):
    history = b"".join(struct.pack("<qdqd", *record) for record in report.history)
    return (report.status, report.iters, history, report.message,
            struct.pack("<d", report.final_residual_sq), vars(sys.counters))


def _assert_same_as_without_refresh(sys, report, x0, cfg):
    """``report``, the solve of ``sys`` from x0 under cfg, is bitwise the
    same solve's without the refresh hook, and so are the counters, except
    that RD-CNK's norms refreshed at the last iterate of a run that did not
    break down count one more Jacobian."""
    plain = _without_refresh(sys)
    want = _report_bits(plain, run(plain, x0, cfg))
    bits = _report_bits(sys, report)
    assert bits[:-1] == want[:-1]
    extra = cfg.method is Method.RDCNK and report.status is not Status.BREAKDOWN
    assert bits[-1] == dict(want[-1], jacobian_evals=want[-1]["jacobian_evals"] + extra)


@pytest.mark.parametrize("start", ["default", "const:1e100", "const:-7", "const:1e30"])
@pytest.mark.parametrize("problem,n", [("broyden", 30), ("overdetermined", 100)])
@pytest.mark.parametrize("method", [Method.NRK, Method.RDCNK])
def test_refreshed_residual_leaves_the_report_unchanged(method, problem, n, start):
    for seed in range(4):
        prob = get_problem(problem, n)
        x0 = prob.x0 if start == "default" else float(start[6:]) * np.ones(n)
        cfg = SolverConfig(method=method, seed=seed, max_iters=5000)
        refreshes, hook = [], prob.system._refresh_after_row
        prob.system._refresh_after_row = lambda i, *args: refreshes.append(i) or hook(i, *args)
        report = run(prob.system, x0, cfg)
        # every completed step refreshed its residual through the hook
        assert len(refreshes) >= report.iters
        _assert_same_as_without_refresh(prob.system, report, x0, cfg)


@pytest.mark.parametrize("start", ["default", "const:1e100", "const:-7", "const:1e30"])
@pytest.mark.parametrize("problem,n", [("broyden", 30), ("overdetermined", 100)])
def test_refreshed_row_norms_leave_the_report_unchanged(problem, n, start):
    for seed in range(4):
        prob = get_problem(problem, n)
        sys = prob.system
        x0 = prob.x0 if start == "default" else float(start[6:]) * np.ones(n)
        cfg = SolverConfig(method=Method.RDCNK, seed=seed, max_iters=5000)
        projected, refreshed = [], []
        row_gradient, hook = sys._row_gradient, sys._refresh_after_row

        def refresh(i, x, fx, w):
            assert w is not None
            refreshed.append(i)
            return hook(i, x, fx, w)

        sys._row_gradient = lambda i, x: projected.append(i) or row_gradient(i, x)
        sys._refresh_after_row = refresh
        report = run(sys, x0, cfg)
        # every completed projection refreshed the norms with the residual,
        # after the row it projected
        assert len(refreshed) >= report.iters
        assert refreshed == projected[:len(refreshed)]
        bits = _report_bits(sys, report)
        _assert_same_as_without_refresh(sys, report, x0, cfg)
        # a second solve of the same system starts from norms of its own
        sys.counters.reset()
        assert _report_bits(sys, run(sys, x0, cfg)) == bits


def test_a_projection_inside_run_has_a_finite_step_length():
    # NRK's sampler and RD-CNK's capped selection break down on a non-finite
    # ||f||^2 before they pick a row, so every |f_i| < sqrt(max float), about
    # 1.34e154, and a projection needs ||grad f_i||^2 >= BREAKDOWN_EPS.  So
    # |c| = |f_i| / ||grad f_i||^2 is finite, c * 0 = 0 off the row's columns
    # and the refresh after the row is exact.  A BREAKDOWN_EPS below about
    # 7.5e-155 would make an infinite c reachable again.
    assert math.sqrt(float_info.max) / BREAKDOWN_EPS < math.inf


# -- the checks of the sums that run()'s evaluations hand over -----------------

_A = np.array([[2.0, 1.0, 0.0], [0.5, 3.0, 1.0], [1.0, 0.0, 4.0], [1.0, 1.0, 1.0]])
_B = _A @ np.array([1.0, -1.0, 0.5])


def _glitching(kind, at=5):
    """The affine system f(x) = A x - b with a ``block_vjp`` and a
    ``row_norms_sq`` hook whose ``at``-th call goes wrong: "nan" puts a NaN
    in its result while the dense rows stay finite, "row" does so and makes
    every gradient row non-finite from then on, and "huge" returns a finite
    result whose squares overflow."""
    calls, bad = [0], [False]

    def rows(idx, x):
        G = _A[idx]
        return np.full_like(G, math.inf) if bad[0] else G.copy()

    def glitch(v):
        calls[0] += 1
        if calls[0] == at:
            if kind == "huge":
                return np.full_like(v, 1e200)
            bad[0] = kind == "row"
            v[-1] = math.nan
        return v

    return NonlinearSystem(
        4, 3, lambda x: _A @ x - _B, lambda i, x: rows(np.array([i]), x)[0],
        gradient_rows=rows, block_vjp=lambda idx, w, x: glitch(w @ _A[idx]),
        row_norms_sq=lambda x: glitch(np.einsum("ij,ij->i", _A, _A)))


@pytest.mark.parametrize("method,iters", [
    (Method.RDCNK, 22), (Method.NGABK, 21), (Method.MRNABK, 29)])
def test_a_non_finite_hook_result_with_finite_rows_takes_the_dense_rows(method, iters):
    # the dense rows' product or norms replace the hook's, which then equal
    # what the hook gives on every other call: the run is the clean one
    cfg = SolverConfig(method=method, seed=1)
    clean, glitched = _glitching(None), _glitching("nan")
    report = run(clean, np.zeros(3), cfg)
    assert (report.status, report.iters) == (Status.CONVERGED, iters)
    assert _report_bits(glitched, run(glitched, np.zeros(3), cfg)) == _report_bits(clean, report)


@pytest.mark.parametrize("method,kind,message,counters", [
    (Method.RDCNK, "row", "non-finite gradient in row 0", (5, 4, 5)),
    (Method.NGABK, "row", "non-finite gradient in row 2", (5, 5, 0)),
    (Method.MRNABK, "row", "non-finite gradient in row 0", (5, 15, 0)),
    (Method.NGABK, "huge",
     "||f_tau||^2 = 1.304009430762044, ||d||^2 = inf: the step length is undefined", (5, 5, 0)),
    (Method.MRNABK, "huge",
     "||f_tau||^2 = 1.014572174150666, ||d||^2 = inf: the step length is undefined", (5, 15, 0)),
])
def test_a_bad_hook_result_ends_the_solve_as_its_check_does(method, kind, message, counters):
    # the outcome the hooks' own checks gave before the solver's sums made
    # them: a non-finite row raises the dense path's DomainError in the
    # fifth step, and an overflowing but finite product is a breakdown
    sys = _glitching(kind)
    report = run(sys, np.zeros(3), SolverConfig(method=method, seed=1))
    assert (report.status, report.iters, report.message) == (Status.BREAKDOWN, 4, message)
    assert tuple(vars(sys.counters).values()) == counters


def test_non_finite_refreshed_norms_end_the_solve_at_the_refreshing_step():
    # the refresh's row norms are checked when it returns them: a NaN norm
    # where the dense rows are infinite too ends the run at the third step,
    # the one whose projection refreshed them
    norms, calls = np.einsum("ij,ij->i", _A, _A), [0]

    def refresh(i, x, fx, w):
        calls[0] += 1
        v = norms.copy()
        if calls[0] == 3:
            v[-1] = math.nan
        return _A @ x - _B, v

    def rows(idx, x):
        return np.full((len(idx), 3), math.inf) if calls[0] == 3 else _A[idx].copy()

    sys = NonlinearSystem(4, 3, lambda x: _A @ x - _B, lambda i, x: rows(np.array([i]), x)[0],
                          gradient_rows=rows, row_norms_sq=lambda x: norms.copy(),
                          refresh_after_row=refresh)
    report = run(sys, np.zeros(3), SolverConfig(method=Method.RDCNK, seed=1))
    assert (report.status, report.iters) == (Status.BREAKDOWN, 2)
    assert report.message == "non-finite gradient in row 0"


# -- what the solved system's evaluations still check inside run() -----------

def _short_at_third_call(name):
    """The affine system f(x) = A x - b with row norm and refresh hooks,
    whose ``name`` hook returns an array one entry short at its third call:
    the refresh hook shortens the row norms when it is given some, else the
    residual."""
    norms = np.einsum("ij,ij->i", _A, _A)
    hooks = {"residual": lambda x: _A @ x - _B,
             "row_gradient": lambda i, x: _A[i].copy(),
             "refresh_after_row": lambda i, x, fx, w: (_A @ x - _B,
                                                       None if w is None else norms.copy())}
    hook, calls = hooks[name], [0]

    def short(*args):
        out = hook(*args)
        calls[0] += 1
        if calls[0] != 3:
            return out
        if name != "refresh_after_row":
            return out[:-1]
        fx, w = out
        return (fx[:-1], w) if w is None else (fx, w[:-1])

    hooks[name] = short
    return NonlinearSystem(4, 3, hooks["residual"], hooks["row_gradient"],
                           row_norms_sq=lambda x: norms.copy(),
                           refresh_after_row=hooks["refresh_after_row"])


@pytest.mark.parametrize("method,name,with_norms", [
    (Method.NGABK, "residual", False),
    (Method.NRK, "row_gradient", False),
    (Method.NRK, "refresh_after_row", False),
    (Method.RDCNK, "refresh_after_row", True),
])
def test_a_misshapen_hook_result_inside_run_raises_as_a_direct_call(method, name, with_norms):
    # run() does not check its own point, row, residual and norms again, but
    # every array a hook returns is still checked, with the same message
    x = np.zeros(3)
    fx, w = _A @ x - _B, np.einsum("ij,ij->i", _A, _A)
    direct = {"residual": lambda s: s.residual(x),
              "row_gradient": lambda s: s.row_gradient(0, x),
              "refresh_after_row": lambda s: s._eval_refresh(
                  0, x, fx, w if with_norms else None)}[name]
    sys = _short_at_third_call(name)
    direct(sys)
    direct(sys)
    with pytest.raises(ValueError) as want:
        direct(sys)
    assert str(want.value).startswith(f"{name} has shape")
    with pytest.raises(ValueError) as got:
        run(_short_at_third_call(name), x, SolverConfig(method=method, seed=1))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("method", list(Method))
def test_a_report_counts_the_evaluations_of_its_own_run(method):
    # the counters of a system shared by several runs add up; each report
    # holds its own run's, those a solve of a fresh system counts
    prob = get_problem("broyden", 30)
    cfg = SolverConfig(method=method, seed=2)
    first, second = run(prob.system, prob.x0, cfg), run(prob.system, prob.x0, cfg)
    fresh = get_problem("broyden", 30)
    alone = run(fresh.system, fresh.x0, cfg)
    assert vars(first.counters) == vars(second.counters) == vars(fresh.system.counters)
    assert vars(alone.counters) == vars(fresh.system.counters)
    assert vars(prob.system.counters) == {k: 2 * v for k, v in vars(alone.counters).items()}
    assert sum(vars(alone.counters).values()) > 0


def test_a_report_of_a_bad_start_counts_nothing():
    sys = make_h_equation(4)
    sys.residual(np.zeros(4))
    report = run(sys, np.full(4, math.nan), SolverConfig(method=Method.NGABK))
    assert report.status is Status.BREAKDOWN
    assert vars(report.counters) == {"residual_evals": 0, "row_gradient_evals": 0,
                                     "jacobian_evals": 0}
    assert sys.counters.residual_evals == 1
