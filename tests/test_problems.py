import numpy as np
import pytest

from nlkaczmarz import (
    DomainError,
    IterateState,
    Method,
    SolverConfig,
    fd_check,
    get_problem,
    make_brown,
    make_h_equation,
    make_overdetermined_rational,
    make_singular_broyden,
    newton_step,
    run,
)
from nlkaczmarz.problems import PROBLEM_NAMES
from nlkaczmarz.system import NonlinearSystem


@pytest.mark.parametrize("name,n", [("h-equation", 12), ("brown", 8), ("broyden", 9),
                                    ("overdetermined", 7)])
def test_gradients_match_finite_differences(name, n, rng):
    problem = get_problem(name, n)
    lo, hi = problem.sample_box[:, 0], problem.sample_box[:, 1]
    for _ in range(20):
        x = rng.uniform(lo, hi)
        assert fd_check(problem.system, x).max() < 1e-5


@pytest.mark.parametrize("n", [2, 5, 50, 173])
def test_brown_exact_zero_at_ones(n):
    sys = make_brown(n)
    assert np.array_equal(sys.residual(np.ones(n)), np.zeros(n))


def test_brown_hand_value():
    sys = make_brown(3)
    assert sys.residual(np.array([2.0, 1.0, 1.0]))[0] == pytest.approx(2.0)


def test_h_equation_mu_strictly_increasing_below_one():
    N = 50
    mu = (np.arange(1, N + 1) - 0.5) / N
    assert (np.diff(mu) > 0).all() and mu[-1] < 1.0


def test_h_equation_rejects_bad_c():
    for c in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            make_h_equation(5, c=c)


def test_broyden_first_row_zero_at_start():
    sys = make_singular_broyden(2)
    assert sys.residual(-0.5 * np.ones(2))[0] == 0.0


def test_broyden_jacobian_zero_where_all_g_vanish():
    # solve the unsquared tridiagonal system g(x) = 0 by Newton, then the
    # squared system's Jacobian 2 g_k grad(g_k) must vanish there
    n = 6

    def g(x):
        out = (3.0 - 2.0 * x) * x + 1.0
        out[1:] -= x[:-1]
        out[:-1] -= 2.0 * x[1:]
        return out

    def g_jac(x):
        J = np.diag(3.0 - 4.0 * x)
        J += np.diag(-np.ones(n - 1), -1)
        J += np.diag(-2.0 * np.ones(n - 1), 1)
        return J

    plain = NonlinearSystem(n, n, g, lambda i, x: g_jac(x)[i], jacobian=g_jac)
    state = IterateState.at(plain, -0.5 * np.ones(n))
    for _ in range(30):
        state = newton_step(plain, state)
    assert state.fx @ state.fx < 1e-26

    squared = make_singular_broyden(n)
    assert np.abs(squared.jacobian(state.x)).max() < 1e-9


def test_overdetermined_shape_and_row_pattern():
    n = 7
    sys = make_overdetermined_rational(n)
    assert sys.m == 2 * (n - 1)
    x = np.linspace(-0.4, 1.2, n)
    fx = sys.residual(x)
    assert np.array_equal(fx[1::2], x[: n - 1] - 1.0)


def test_overdetermined_squared_variant_has_no_root_at_ones():
    sys = make_overdetermined_rational(4, squared_denominator=True)
    fx = sys.residual(np.ones(4))
    assert fx[0::2] == pytest.approx([-5.0, -5.0, -5.0])
    assert np.array_equal(fx[1::2], np.zeros(3))
    assert sys.known_solution is None


def test_squared_variant_does_not_converge_quickly():
    sys = make_overdetermined_rational(20, squared_denominator=True)
    report = run(sys, np.zeros(20), SolverConfig(method=Method.MRNABK, max_iters=500))
    assert report.iters == 500 or report.status.value != "converged"


def test_registry_rejects_unknowns():
    with pytest.raises(KeyError):
        get_problem("nonexistent", 5)
    with pytest.raises(KeyError):
        get_problem("brown", 5, {"c": 0.9})


def test_registry_standard_initial_points():
    assert np.array_equal(get_problem("h-equation", 4).x0, np.zeros(4))
    assert np.array_equal(get_problem("brown", 4).x0, 0.5 * np.ones(4))
    assert np.array_equal(get_problem("broyden", 4).x0, -0.5 * np.ones(4))
    assert np.array_equal(get_problem("overdetermined", 4).x0, np.zeros(4))
    assert set(PROBLEM_NAMES) == {"h-equation", "brown", "broyden", "overdetermined"}


@pytest.mark.parametrize("n", [2, 3])
def test_size_lower_bounds(n):
    if n == 2:
        make_brown(2)
    with pytest.raises(ValueError):
        make_brown(1)
    with pytest.raises(ValueError):
        make_singular_broyden(1)
    with pytest.raises(ValueError):
        make_overdetermined_rational(1)


SPARSE_ROW_PROBLEMS = [("brown", {}), ("broyden", {}),
                       ("overdetermined", {"squared_denominator": 0.0}),
                       ("overdetermined", {"squared_denominator": 1.0})]
# every problem with a block_vjp hook; the H-equation's rows are dense
BLOCK_VJP_PROBLEMS = SPARSE_ROW_PROBLEMS + [("h-equation", {})]


def _index_sets(m, rng):
    # row 0, the last row (Brown's product row) and both overdetermined row
    # kinds, then random sorted sets and one unsorted set with repeats
    sets = [np.array([0]), np.array([m - 1]), np.array([1, 2]), np.arange(m)]
    sets += [np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
             for _ in range(8)]
    sets.append(rng.integers(0, m, size=2 * m))
    return [s.astype(np.intp) for s in sets]


def _sparse_row_points(problem, rng):
    lo, hi = problem.sample_box[:, 0], problem.sample_box[:, 1]
    points = [rng.uniform(lo, hi) for _ in range(8)]
    points.append(np.where(np.arange(problem.system.n) == 3, 0.0, points[0]))
    return points


@pytest.mark.parametrize("n", [9, 40])
@pytest.mark.parametrize("name,params", BLOCK_VJP_PROBLEMS)
def test_block_vjp_matches_dense_rows(name, params, n, rng):
    problem = get_problem(name, n, dict(params))
    sys = problem.system
    eps = np.finfo(float).eps
    for x in _sparse_row_points(problem, rng):
        for idx in _index_sets(sys.m, rng):
            w = rng.normal(size=len(idx))
            G = sys.gradient_rows(idx, x)
            # rounding bound of a sum over at most m terms, per column
            bound = 2 * sys.m * eps * (np.abs(w) @ np.abs(G))
            assert (np.abs(sys.block_vjp(idx, w, x) - w @ G) <= bound).all()


@pytest.mark.parametrize("n", [9, 40])
@pytest.mark.parametrize("name,params", SPARSE_ROW_PROBLEMS)
def test_row_norms_sq_match_jacobian(name, params, n, rng):
    problem = get_problem(name, n, dict(params))
    sys = problem.system
    for x in _sparse_row_points(problem, rng):
        J = sys.jacobian(x)
        assert np.allclose(sys.row_norms_sq(x), (J * J).sum(axis=1), rtol=4 * n * np.finfo(float).eps,
                           atol=0.0)


@pytest.mark.parametrize("name,params", SPARSE_ROW_PROBLEMS + [("h-equation", {})])
def test_structured_access_counters(name, params, rng):
    problem = get_problem(name, 12, dict(params))
    sys = problem.system
    idx = np.array([0, 3, sys.m - 1])
    sys.counters.reset()
    sys.block_vjp(idx, rng.normal(size=3), problem.x0)
    c = sys.counters
    assert (c.residual_evals, c.row_gradient_evals, c.jacobian_evals) == (0, 3, 0)
    sys.row_norms_sq(problem.x0)
    assert (c.residual_evals, c.row_gradient_evals, c.jacobian_evals) == (0, 3, 1)


def test_brown_overflowing_product_row_names_the_row():
    sys = make_brown(6)
    x = np.full(6, 1e200)
    idx = np.array([1, 5])
    with pytest.raises(DomainError) as dense:
        sys.gradient_rows(idx, x)
    with pytest.raises(DomainError) as structured:
        sys.block_vjp(idx, np.ones(2), x)
    assert dense.value.index == structured.value.index == 5


def _h_kernel(N, c=0.9):
    mu = (np.arange(1, N + 1) - 0.5) / N
    return mu[:, None] / (mu[:, None] + mu[None, :]), c / (2.0 * N)


def test_h_equation_singular_row_names_the_row():
    # at x = t e_0, s_i = coef K_i0 t in any summation order; this t makes
    # row 5's denominator 1 - s_5 exactly zero, and rows 0-4 stay finite
    K, coef = _h_kernel(6)
    t = 1.0 / (coef * K[5, 0])
    assert coef * (K[5, 0] * t) == 1.0
    x = np.where(np.arange(6) == 0, t, 0.0)
    sys = make_h_equation(6)
    idx = np.array([1, 5])
    with pytest.raises(DomainError) as dense:
        sys.gradient_rows(idx, x)
    with pytest.raises(DomainError) as structured:
        sys.block_vjp(idx, np.ones(2), x)
    assert dense.value.index == structured.value.index == 5


@pytest.mark.parametrize("n", [9, 40, 300])
def test_h_equation_gradient_rows_bitwise_equal_to_the_row_formula(n, rng):
    # reference: the rows written out in one expression, with their own gather
    K, coef = _h_kernel(n)
    sys = make_h_equation(n)
    for _ in range(20):
        x = rng.uniform(0.0, 3.0, size=n)
        idx = rng.integers(0, n, size=int(rng.integers(1, 2 * n)))
        s = coef * (K[idx] @ x)
        G = -((1.0 - s) ** -2)[:, None] * coef * K[idx]
        G[np.arange(len(idx)), idx] += 1.0
        assert np.array_equal(sys.gradient_rows(idx, x), G)
