"""Every input to run() ends in a report with a documented status."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nlkaczmarz import (
    BreakdownError,
    DomainError,
    Method,
    NonlinearSystem,
    SolverConfig,
    SolverReport,
    Status,
    check_lemma1,
    estimate_cone,
    fd_check,
    get_problem,
    make_h_equation,
    per_step_contraction,
    run,
    select_mrnabk,
    select_ngabk,
    select_rdcnk,
    verified_contraction_steps,
)
from nlkaczmarz.solvers import _averaged, _projected, rbcnk_step

from conftest import make_affine

SPECIAL = [math.nan, math.inf, -math.inf, 1e200, -1e200, 1e-200, -1e-200, 0.0, 1.0]
SIZES = {"h-equation": (1, 6), "brown": (2, 6), "broyden": (2, 6), "overdetermined": (2, 6)}


@st.composite
def cases(draw):
    problem = draw(st.sampled_from(sorted(SIZES)))
    n = draw(st.integers(*SIZES[problem]))
    coordinate = st.one_of(st.sampled_from(SPECIAL), st.floats(-3.0, 3.0),
                           st.floats(allow_nan=True, allow_infinity=True))
    start = draw(st.one_of(st.lists(coordinate, min_size=n, max_size=n),
                           st.sampled_from(SPECIAL).map(lambda v: [v] * n)))
    cfg = SolverConfig(method=draw(st.sampled_from(list(Method))),
                       rho=draw(st.floats(0.01, 1.0)),
                       max_iters=draw(st.integers(1, 40)),
                       seed=draw(st.integers(0, 2**32 - 1)),
                       store_iterates=draw(st.booleans()))
    return problem, n, np.array(start, dtype=float), cfg


# starts near 1e200 overflow NumPy arithmetic on purpose; its warnings are expected
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_run_is_total(case):
    problem, n, x0, cfg = case
    report = run(get_problem(problem, n).system, x0, cfg)
    assert isinstance(report, SolverReport)
    assert report.status in set(Status)
    assert 0 <= report.iters <= cfg.max_iters
    assert len(report.history) == report.iters
    if report.status is Status.CONVERGED:
        assert report.final_residual_sq < cfg.tol_sq
    if report.status is Status.BREAKDOWN:
        assert report.message
    if cfg.store_iterates:
        assert len(report.iterates) == report.iters + 1


def test_residual_at_singular_point_raises_without_warnings():
    # N = 1: the denominator 1 - (c/4) x vanishes at x = 4 / c
    sys = make_h_equation(1, c=0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as exc:
            sys.residual(np.array([4.0 / 0.9]))
    assert exc.value.index == 0
    assert str(exc.value) == "non-finite residual component 0 at evaluation point"


def test_residual_index_names_the_first_bad_row():
    sys = NonlinearSystem(4, 4, lambda x: x.copy(), lambda i, x: np.eye(4)[i])
    with pytest.raises(DomainError) as exc:
        sys.residual(np.array([1.0, 1e300, np.inf, np.nan]))
    assert exc.value.index == 2


def test_huge_finite_residual_is_accepted():
    # fx.dot(fx) overflows, but every component is finite
    sys = make_affine(np.eye(3), np.zeros(3))
    assert np.array_equal(sys.residual(np.array([1e300, -1e300, 1.0])), [1e300, -1e300, 1.0])
    assert np.array_equal(sys.row_gradient(1, np.zeros(3)), [0.0, 1.0, 0.0])


@pytest.mark.parametrize("method", [Method.NRK, Method.RDCNK])
def test_overflowing_residual_norm_is_breakdown(method):
    # every component of f(1e200 * ones) is finite, but ||f||^2 overflows
    prob = get_problem("h-equation", 50)
    with np.errstate(over="ignore"):
        report = run(prob.system, np.full(50, 1e200), SolverConfig(method=method))
    assert report.status is Status.BREAKDOWN
    assert report.iters == 0 and report.final_residual_sq == math.inf
    assert "||f||^2 = inf" in report.message


def test_rdcnk_overflow_after_a_step_is_breakdown():
    # Brown n = 30: the first RD-CNK step lands where ||f||^2 overflows
    prob = get_problem("brown", 30)
    with np.errstate(over="ignore"):
        report = run(prob.system, prob.x0, SolverConfig(method=Method.RDCNK))
    assert report.status is Status.BREAKDOWN and report.iters == 1
    assert "||f||^2 = inf" in report.message


def test_newton_steps_through_an_overflowing_residual_norm():
    # Newton never weighs rows by ||f||^2, so it keeps iterating
    prob = get_problem("brown", 30)
    with np.errstate(over="ignore"):
        report = run(prob.system, prob.x0, SolverConfig(method=Method.NEWTON, max_iters=5))
    assert report.status is Status.MAX_ITERS
    assert report.history[1][1] == math.inf


@pytest.mark.parametrize("problem,n,method,scale", [
    ("brown", 30, Method.RDCNK, None),  # ||f||^2 overflows after one step
    ("brown", 30, Method.NEWTON, None),  # and Newton steps on through it
    ("h-equation", 50, Method.NRK, 1e200),  # ||f||^2 overflows at the start
    ("h-equation", 50, Method.RDCNK, 1e200),
])
def test_overflowing_residual_norm_emits_no_warning(problem, n, method, scale):
    prob = get_problem(problem, n)
    x0 = prob.x0 if scale is None else np.full(n, scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run(prob.system, x0, SolverConfig(method=method, max_iters=5))
    assert report.status in (Status.BREAKDOWN, Status.MAX_ITERS)
    assert math.isinf(report.final_residual_sq) or report.history[1][1] == math.inf


def test_empty_capped_selection_is_breakdown():
    # equal ratios f_i^2 / ||grad f_i||^2 put every row a rounding error short
    # of the capped threshold
    sys = make_affine(np.eye(3), np.zeros(3))
    x = np.full(3, 0.7)
    with pytest.raises(BreakdownError) as exc:
        select_rdcnk(sys, x, sys.residual(x))
    assert str(exc.value) == "capped selection is empty"
    report = run(sys, x, SolverConfig(method=Method.RDCNK))
    assert report.status is Status.BREAKDOWN and report.iters == 0
    assert report.message == "capped selection is empty"


def test_step_breakdowns_carry_the_iteration():
    # f(x) = 0 x - 1: every row gradient is zero while the residual is -1.
    # Each step's breakdown carries its message; run() reports the iteration
    # (the report.iters assertions above)
    sys = make_affine(np.zeros((1, 1)), np.ones(1))
    x = np.zeros(1)
    fx = sys.residual(x)
    block = select_ngabk(fx).indices
    steps = [(lambda: _projected(sys, x, fx, 0), "zero gradient in selected row 0"),
             (lambda: rbcnk_step(sys, x, fx, block), "selected block has all-zero gradients"),
             (lambda: _averaged(sys, x, fx, block),
              "block direction annihilated (singular Jacobian rows)")]
    for step, message in steps:
        with pytest.raises(BreakdownError) as exc, np.errstate(all="ignore"):
            step()
        assert str(exc.value) == message


@pytest.mark.parametrize("call,raises", [
    (lambda sys, x, fx: select_ngabk(fx), None),
    (lambda sys, x, fx: select_mrnabk(fx, 0.1), None),  # rho max f_i^2 overflows
    (lambda sys, x, fx: select_rdcnk(sys, x, fx), BreakdownError),
], ids=["select_ngabk", "select_mrnabk", "select_rdcnk"])
def test_public_step_at_an_overflowing_point_writes_no_warning(call, raises):
    # every f_i(1e200 * ones) is finite, but ||f||^2 overflows; a public
    # selection scopes its own arithmetic
    sys = make_h_equation(50)
    x = np.full(50, 1e200)
    fx = sys.residual(x)
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        if raises is None:
            call(sys, x, fx)
        else:
            with pytest.raises(raises):
                call(sys, x, fx)


# f(x) = A x + x^3 / 10 - 1: from x = 0 Newton takes two steps, the others 21-66
_A = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])


def _poisoned(bad=None, residual_call=None, gradient_call=None):
    """The cubic system above, except that residual evaluation number
    ``residual_call`` (counted from 1), or row gradient number
    ``gradient_call``, has ``bad`` in its second component.  Only the
    single-row ``row_gradient`` goes through the counted callable; the rows
    it was asked for are kept in ``sys.rows_asked``."""
    calls = {"residual": 0, "gradient": 0}
    rows_asked = []

    def residual(x):
        calls["residual"] += 1
        f = _A @ x + 0.1 * x**3 - 1.0
        if calls["residual"] == residual_call:
            f[1] = bad
        return f

    def gradient_rows(idx, x):
        G = _A[idx].copy()
        G[np.arange(len(idx)), idx] += 0.3 * x[idx] ** 2
        return G

    def row_gradient(i, x):
        calls["gradient"] += 1
        rows_asked.append(i)
        g = gradient_rows(np.array([i]), x)[0]
        if calls["gradient"] == gradient_call:
            g[1] = bad
        return g

    sys = NonlinearSystem(3, 3, residual, row_gradient, gradient_rows=gradient_rows)
    sys.rows_asked = rows_asked
    return sys


def _clean_run(method, iters):
    """The unpoisoned run stopped after ``iters`` steps: the same iterates."""
    return run(_poisoned(), np.zeros(3), SolverConfig(method=method, max_iters=iters))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("method", list(Method))
def test_non_finite_starting_residual_is_breakdown(method, bad):
    report = run(_poisoned(bad, residual_call=1), np.zeros(3), SolverConfig(method=method))
    assert report.status is Status.BREAKDOWN
    assert report.iters == 0 and report.history == []
    assert math.isnan(report.final_residual_sq)
    assert report.message == ("at the starting point: "
                              "non-finite residual component 1 at evaluation point")


@pytest.mark.parametrize("call", [2, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("method", list(Method))
def test_non_finite_residual_after_a_step_is_breakdown(method, bad, call):
    # evaluation `call` is the residual of step call - 2's new point
    k = call - 2
    report = run(_poisoned(bad, residual_call=call), np.zeros(3),
                 SolverConfig(method=method, store_iterates=True))
    clean = _clean_run(method, k + 1)
    assert report.status is Status.BREAKDOWN and report.iters == k
    assert report.history == clean.history[:k] and len(report.iterates) == k + 1
    assert report.final_residual_sq == clean.history[k][1]
    assert report.message == "non-finite residual component 1 at evaluation point"


@pytest.mark.parametrize("call", [1, 3])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("method", [Method.NRK, Method.RDCNK])
def test_non_finite_row_gradient_in_a_solve_is_breakdown(method, bad, call):
    # the single-row methods ask for one row gradient per step
    k = call - 1
    sys = _poisoned(bad, gradient_call=call)
    report = run(sys, np.zeros(3), SolverConfig(method=method))
    clean = _clean_run(method, k + 1)
    assert report.status is Status.BREAKDOWN and report.iters == k
    assert report.history == clean.history[:k]
    assert report.final_residual_sq == clean.history[k][1]
    assert report.message == f"non-finite gradient in row {sys.rows_asked[-1]}"
    assert len(sys.rows_asked) == call


def test_finite_gradient_whose_square_overflows_is_not_a_domain_error():
    # ||grad f_0||^2 overflows while every entry is finite: the projection
    # takes a zero step, as it did when the wrapper scanned every row
    sys = NonlinearSystem(1, 1, lambda x: x - 1.0, lambda i, x: np.array([1e200]))
    report = run(sys, np.array([2.0]), SolverConfig(method=Method.NRK, max_iters=3))
    assert report.status is Status.MAX_ITERS
    assert [h[3] for h in report.history] == [0.0] * 3


# each public entry point that takes a point, given Brown n = 5's system, a
# real point x, a complex point z and a run with its iterates
_COMPLEX_POINT_CALLS = {
    "residual": lambda sys, x, z, report: sys.residual(z),
    "row_gradient": lambda sys, x, z, report: sys.row_gradient(0, z),
    "gradient_rows": lambda sys, x, z, report: sys.gradient_rows([0, 1], z),
    "jacobian": lambda sys, x, z, report: sys.jacobian(z),
    "select_rdcnk": lambda sys, x, z, report: select_rdcnk(sys, z, np.ones(5)),
    "check_lemma1-x1": lambda sys, x, z, report: check_lemma1(sys, [0], z, x, 0.1),
    "check_lemma1-x2": lambda sys, x, z, report: check_lemma1(sys, [0], x, z, 0.1),
    "estimate_cone": lambda sys, x, z, report: estimate_cone(sys, [(z, x)]),
    "fd_check": lambda sys, x, z, report: fd_check(sys, z),
    "verified_contraction_steps":
        lambda sys, x, z, report: verified_contraction_steps(sys, report, z),
    "per_step_contraction": lambda sys, x, z, report: per_step_contraction(report, z),
}


@pytest.mark.parametrize("call", list(_COMPLEX_POINT_CALLS.values()),
                         ids=list(_COMPLEX_POINT_CALLS))
def test_a_complex_point_is_refused_not_cast_to_its_real_part(call):
    # a cast to float wrote a ComplexWarning and evaluated at the real part:
    # Brown's residual at 1 + 1j read zeros
    prob = get_problem("brown", 5)
    sys = prob.system
    report = run(sys, prob.x0, SolverConfig(method=Method.NGABK, store_iterates=True))
    x = np.full(5, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^(point|x_star) has dtype complex128, "
                                             r"expected real numbers$"):
            call(sys, x, np.ones(5) + 1j, report)


_SELECTIONS = {
    "select_ngabk": lambda sys, fx: select_ngabk(fx),
    "select_mrnabk": lambda sys, fx: select_mrnabk(fx, 0.5),
    "select_rdcnk": lambda sys, fx: select_rdcnk(sys, np.ones(2), fx),
}


@pytest.mark.parametrize("fx,named", [
    ([math.nan, 1.0], "0 is nan"), ([math.inf, 1.0], "0 is inf"),
    ([1.0, -math.inf], "1 is -inf"), ([0.0, math.nan], "1 is nan"),
], ids=["nan", "inf", "-inf", "zero-then-nan"])
@pytest.mark.parametrize("select", list(_SELECTIONS.values()), ids=list(_SELECTIONS))
def test_the_selections_refuse_a_residual_that_is_not_finite(select, fx, named):
    # the greedy selections used to return an empty block with threshold nan
    # or inf, and RD-CNK's a BreakdownError on ||f||^2 = nan; the refusal
    # comes before RD-CNK evaluates its row norms
    sys = get_problem("brown", 2).system
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^residual component {named}, "
                                             r"expected a finite number$"):
            select(sys, np.array(fx))
    assert sys.counters.jacobian_evals == 0
