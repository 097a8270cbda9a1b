import threading
import tracemalloc
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkaczmarz import (
    DomainError,
    Method,
    SolverConfig,
    Status,
    fd_check,
    get_problem,
    make_brown,
    make_h_equation,
    make_overdetermined_rational,
    make_singular_broyden,
    run,
)
from nlkaczmarz.problems import LOWRANK_MIN_N, LOWRANK_TOL, PROBLEM_NAMES, _hankel_factor
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

    plain = NonlinearSystem(n, n, g, lambda i, x: g_jac(x)[i])
    report = run(plain, -0.5 * np.ones(n),
                 SolverConfig(Method.NEWTON, max_iters=30, tol_sq=1e-26, store_iterates=True))
    assert report.status is Status.CONVERGED

    squared = make_singular_broyden(n)
    assert np.abs(squared.jacobian(report.iterates[-1])).max() < 1e-9


def test_overdetermined_shape_and_row_pattern():
    n = 7
    sys = make_overdetermined_rational(n)
    assert sys.m == 2 * (n - 1)
    x = np.linspace(-0.4, 1.2, n)
    fx = sys.residual(x)
    assert np.array_equal(fx[1::2], x[: n - 1] - 1.0)


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


SPARSE_ROW_PROBLEMS = [("brown", {}), ("broyden", {}), ("overdetermined", {})]
# every problem with structured row access; the H-equation's rows are dense,
# and its hooks are checked at a second value of its model parameter c
STRUCTURED_PROBLEMS = SPARSE_ROW_PROBLEMS + [("h-equation", {"c": 0.5}), ("h-equation", {})]


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


# every structured problem at n = 9 and 40, and the H-equation at both c at
# a size whose products with the kernel go through the factor of its Hankel
# part (LOWRANK_MIN_N <= 500)
VJP_CASES = [pytest.param(name, params, n, id=f"{name}-params{j}-{n}")
             for n in (9, 40) for j, (name, params) in enumerate(STRUCTURED_PROBLEMS)]
VJP_CASES += [pytest.param(name, params, 500, id=f"{name}-params{j}-500")
              for j, (name, params) in enumerate(STRUCTURED_PROBLEMS) if name == "h-equation"]


@pytest.mark.parametrize("name,params,n", VJP_CASES)
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
            assert (np.abs(sys._eval_block_vjp(idx, w, x)[0] - w @ G) <= bound).all()


@pytest.mark.parametrize("n", [9, 40])
@pytest.mark.parametrize("name,params", STRUCTURED_PROBLEMS)
def test_row_norms_sq_match_jacobian(name, params, n, rng):
    problem = get_problem(name, n, dict(params))
    sys = problem.system
    for x in _sparse_row_points(problem, rng):
        J = sys.jacobian(x)
        assert np.allclose(sys._eval_row_norms(x)[0], (J * J).sum(axis=1),
                           rtol=4 * n * np.finfo(float).eps, atol=0.0)


@pytest.mark.parametrize("name,params", STRUCTURED_PROBLEMS)
def test_structured_access_counters(name, params, rng):
    problem = get_problem(name, 12, dict(params))
    sys = problem.system
    idx = np.array([0, 3, sys.m - 1])
    sys.counters.reset()
    sys._eval_block_vjp(idx, rng.normal(size=3), problem.x0)
    c = sys.counters
    assert (c.residual_evals, c.row_gradient_evals, c.jacobian_evals) == (0, 3, 0)
    sys._eval_row_norms(problem.x0)
    assert (c.residual_evals, c.row_gradient_evals, c.jacobian_evals) == (0, 3, 1)


def test_brown_overflowing_product_row_names_the_row():
    sys = make_brown(6)
    x = np.full(6, 1e200)
    idx = np.array([1, 5])
    with pytest.raises(DomainError) as dense:
        sys.gradient_rows(idx, x)
    with np.errstate(all="ignore"), pytest.raises(DomainError) as structured:
        sys._eval_block_vjp(idx, np.ones(2), x)
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
    with np.errstate(all="ignore"), pytest.raises(DomainError) as structured:
        sys._eval_block_vjp(idx, np.ones(2), x)
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


@pytest.mark.parametrize("n", [5, 40, 400])
def test_brown_gradient_rows_bitwise_equal_to_the_row_loop(n, rng):
    # reference: the rows stacked one row_gradient at a time
    sys = make_brown(n)
    for trial in range(30):
        x = rng.uniform(0.25, 1.5, size=n)
        if trial % 3 == 1:
            x[rng.integers(n)] = 0.0  # the product row's zero-entry branch
        idx = rng.integers(0, n, size=int(rng.integers(1, 2 * n)))
        if trial % 2:
            idx[rng.integers(len(idx))] = n - 1  # the product row, at least once
        G = np.stack([sys.row_gradient(int(i), x) for i in idx])
        assert np.array_equal(sys.gradient_rows(idx, x), G)


@pytest.mark.parametrize("n", [2, 3, 40, 500])
def test_broyden_gradient_rows_bitwise_equal_to_the_full_g(n, rng):
    # reference: 2 g[idx] times the stencil rows, with g over all n (the form
    # the rows-only evaluation replaced) and the rows stacked one at a time
    sys = make_singular_broyden(n)
    special = np.array([np.nan, np.inf, -np.inf, 1e200, -1e200, 0.0, -0.0, 1e-300])
    for trial in range(40):
        x = rng.uniform(-1.5, 0.5, size=n)
        if trial % 2:
            x[rng.integers(0, n, size=2)] = rng.choice(special, size=2)
        idx = rng.integers(0, n, size=int(rng.integers(1, 2 * n)))
        idx[0] = (0, n - 1)[trial % 2]  # a boundary row, every time
        stencil = np.zeros((len(idx), n))
        r = np.arange(len(idx))
        stencil[r[idx > 0], idx[idx > 0] - 1] = -1.0
        stencil[r[idx < n - 1], idx[idx < n - 1] + 1] = -2.0
        with np.errstate(all="ignore"):
            g = (3.0 - 2.0 * x) * x + 1.0
            g[1:] -= x[:-1]
            g[:-1] -= 2.0 * x[1:]
            stencil[r, idx] = 3.0 - 4.0 * x[idx]
            G = sys._gradient_rows(idx, x)
            assert G.tobytes() == (2.0 * g[idx][:, None] * stencil).tobytes()
            assert G.tobytes() == np.stack([sys._row_gradient(int(i), x) for i in idx]).tobytes()


# The H-equation is left out: its row_gradient is one dot product per row and
# its gradient_rows one matrix-vector product for the block, whose sums BLAS
# may round differently, so the two agree only to rounding.
@pytest.mark.parametrize("name,n", [("brown", 7), ("broyden", 2), ("broyden", 9),
                                    ("overdetermined", 2), ("overdetermined", 9)])
def test_row_gradient_is_bitwise_the_gradient_rows_row(name, n, rng):
    problem = get_problem(name, n)
    sys = problem.system
    lo, hi = problem.sample_box.T
    points = [rng.uniform(lo, hi) for _ in range(20)] + [np.full(n, -0.0)]
    for x in points:
        G = sys.gradient_rows(np.arange(sys.m), x)
        for i in range(sys.m):
            assert sys.row_gradient(i, x).tobytes() == G[i].tobytes()


def test_overdetermined_row_gradient_squares_as_its_block_rows():
    # a NumPy scalar's (1 + x^2) ** 2 goes through pow, which rounds this x
    # otherwise than the product (1 + x^2) (1 + x^2) of NumPy's array ** 2
    sys = make_overdetermined_rational(2)
    x = np.array([float.fromhex("0x1.28dc1165b8470p+0"), 1.0])
    assert sys.row_gradient(0, x).tobytes() == sys.gradient_rows([0], x)[0].tobytes()


@pytest.mark.parametrize("n,c", [(9, 0.9), (40, 0.9), (300, 0.9), (500, 0.9), (500, 0.5)],
                         ids=["9", "40", "300", "500", "500-c0.5"])
def test_h_equation_row_norms_match_the_dense_default(n, c, rng):
    # the closed form a_i^2 ||K_i||^2 + 2 a_i K_ii + 1 against the sum of
    # squares of the dense rows, inside and outside the sampling box; at
    # n = 300 and 500 its K x goes through the factor (LOWRANK_MIN_N <= 300)
    sys = make_h_equation(n, c)
    dense = NonlinearSystem(n, n, sys.residual, sys.row_gradient, gradient_rows=sys.gradient_rows)
    eps = np.finfo(float).eps
    for scale in (1.0, 1.0, 3.0, -5.0):
        x = scale * rng.uniform(0.0, 1.0, size=n)
        w, ref = sys._eval_row_norms(x)[0], dense._eval_row_norms(x)[0]
        # the rounding bound of the dense sum over n squares
        assert (np.abs(w - ref) <= 4 * n * eps * ref).all()


def test_h_equation_residual_by_transform_matches_the_dense_product(rng):
    # At N >= LOWRANK_MIN_N, K x = (p + 1/2) (F^T (F x))_p, where every entry
    # of H - F^T F is at most LOWRANK_TOL (H_pq = 1/(p + q + 1)), so the
    # factor moves (H x)_p by at most LOWRANK_TOL ||x||_1, and its two
    # products, F x over N terms and F^T (F x) over r, round by at most
    #   1.01 (N + r) eps (|F|^T |F| |x|)_p.
    # The dense K x errs by at most N eps |K| |x|, each of the two scalings
    # by eps, and g = 1/(1 - s) moves by |ds| g^2 to first order (1.01 covers
    # the rest); rounding g and x - g adds at most 4 eps (|x| + |g|).
    N = 500
    assert LOWRANK_MIN_N <= N
    K, coef = _h_kernel(N)
    eps = np.finfo(float).eps
    F = np.abs(_hankel_factor(N))
    half = np.arange(N) + 0.5
    sys = make_h_equation(N)
    for scale in (1.0, 1.0, 3.0, -5.0):
        x = scale * rng.uniform(0.0, 1.0, size=N)
        s = coef * (K @ x)
        g = 1.0 / (1.0 - s)
        E = LOWRANK_TOL * np.abs(x).sum() + 1.01 * (N + len(F)) * eps * (F.T @ (F @ np.abs(x)))
        ds = coef * (half * E + N * eps * (K @ np.abs(x))) + 2 * eps * np.abs(s)
        bound = 1.01 * ds * g * g + 4 * eps * (np.abs(x) + np.abs(g))
        assert (np.abs(sys.residual(x) - (x - g)) <= bound).all()


@pytest.mark.parametrize("N,rank", [(LOWRANK_MIN_N, 23), (500, 26), (2000, 31)])
def test_h_equation_hankel_factor_is_within_its_tolerance_of_every_entry(N, rank):
    # against the explicit H_pq = 1/(p + q + 1), with F^T F summed in long
    # double, whose rounding r u (|F|^T |F|)_pq is below LOWRANK_TOL where
    # long double is wider than a double; the measured ranks are ceilings,
    # so that a pivot rule that needs more rows fails
    F = _hankel_factor(N)
    r = len(F)
    assert F.shape == (r, N) and 0 < r <= rank
    h = 1.0 / np.arange(1.0, 2 * N)
    wide = F.astype(np.longdouble)
    u = np.finfo(np.longdouble).eps
    for lo in range(0, N, 250):
        rows = np.arange(lo, min(lo + 250, N))
        err = np.abs(h[rows[:, None] + np.arange(N)] - wide[:, rows].T @ wide)
        bound = LOWRANK_TOL + 1.01 * r * u * (np.abs(F[:, rows]).T @ np.abs(F))
        assert (err <= bound).all()


def test_h_equation_hankel_factor_below_its_rounding_takes_all_n_rows(monkeypatch):
    # below the rounding of the diagonal of H - F^T F no pivot stops the
    # factorization: it grows past the 64 rows it first allocates, stops at N,
    # and F^T F still matches H to the rounding of the check's own sums
    monkeypatch.setattr("nlkaczmarz.problems.LOWRANK_TOL", 1e-20)
    N = 100
    F = _hankel_factor(N)
    assert F.shape == (N, N)
    h = 1.0 / np.arange(1.0, 2 * N)
    eps = np.finfo(float).eps
    bound = 2 * N * eps * (np.abs(F).T @ np.abs(F))
    assert (np.abs(h[np.add.outer(np.arange(N), np.arange(N))] - F.T @ F) <= bound).all()


def test_h_equation_row_norms_at_a_singular_point_raise_the_jacobian_error():
    # row 5's denominator is exactly zero at this x, as in
    # test_h_equation_singular_row_names_the_row
    K, coef = _h_kernel(6)
    x = np.where(np.arange(6) == 0, 1.0 / (coef * K[5, 0]), 0.0)
    sys = make_h_equation(6)
    with pytest.raises(DomainError) as dense:
        sys.jacobian(x)
    with np.errstate(all="ignore"), pytest.raises(DomainError) as structured:
        sys._eval_row_norms(x)
    assert str(structured.value) == str(dense.value)
    assert structured.value.index == dense.value.index


def test_h_equation_row_norms_charge_one_jacobian_without_forming_it(monkeypatch, rng):
    sys = make_h_equation(40)
    monkeypatch.setattr(sys, "_full_jacobian", lambda x: pytest.fail("dense Jacobian formed"))
    sys.counters.reset()
    for _ in range(3):
        sys._eval_row_norms(rng.uniform(0.0, 1.0, size=40))
    c = sys.counters
    assert (c.residual_evals, c.row_gradient_evals, c.jacobian_evals) == (0, 0, 3)


def _h_evaluations(sys, x):
    """The bytes of the three H-equation evaluations that read K x."""
    idx = np.array([0, 7, 8, 100, sys.m - 1])
    return (sys.residual(x).tobytes(), sys._eval_row_norms(x)[0].tobytes(),
            sys._eval_block_vjp(idx, np.linspace(-1.0, 2.0, len(idx)), x)[0].tobytes())


def _counting_factor(monkeypatch):
    """A counter of the products with the factor F of the H-equation's Hankel
    part, K y or a block product, for the problems built after it: each
    reads F.T once, for its F^T z."""
    calls = [0]
    factor = _hankel_factor

    class Counted:
        def __init__(self, F):
            self.F = F

        @property
        def T(self):
            calls[0] += 1
            return self.F.T

        def __matmul__(self, y):
            return self.F @ y

        def dot(self, y):
            return self.F.dot(y)

        def __getitem__(self, key):
            return self.F[key]

    monkeypatch.setattr("nlkaczmarz.problems._hankel_factor", lambda N: Counted(factor(N)))
    return calls


def _closed_over(f, name):
    """The value that the closure of f holds under name."""
    return dict(zip(f.__code__.co_freevars, (c.cell_contents for c in f.__closure__)))[name]


def _cached_product(sys):
    """The H-equation's kernel_product closure, read from its residual."""
    return _closed_over(sys._residual, "kernel_product")


@pytest.mark.parametrize("N", [LOWRANK_MIN_N, 500])
def test_h_equation_kernel_product_cache_is_bitwise_a_fresh_system(N, monkeypatch, rng):
    # the residual, the row norms and the block product share one stored
    # K x, keyed on the bytes of x: whatever point the cache holds, each
    # evaluation equals a freshly built system's bit for bit
    calls = _counting_factor(monkeypatch)
    sys = make_h_equation(N)
    x = rng.uniform(0.0, 1.0, size=N)
    x[::5] = 0.0
    negative_zeros = x.copy()
    negative_zeros[::5] = -0.0
    huge = np.full(N, 1e303)  # an ordinary point: K x is finite
    written = x.copy()
    cases = [  # (the point the cache holds, the point evaluated, products with the factor)
        (x, x, 0),
        (x, x.copy(), 0),
        (x, rng.uniform(0.0, 1.0, size=N), 1),
        (x, negative_zeros, 1),
        (x, huge, 1),
        (huge, huge, 0),
        (huge, x, 1),
    ]
    for held, point, products in cases:
        sys.residual(held)
        calls[0] = 0
        sys.residual(point)
        assert calls[0] == products
        assert _h_evaluations(sys, point) == _h_evaluations(make_h_equation(N), point)
    # the same array, written in place after its product was stored
    sys.residual(written)
    written[3] += 0.25
    calls[0] = 0
    sys.residual(written)
    assert calls[0] == 1
    assert _h_evaluations(sys, written) == _h_evaluations(make_h_equation(N), written)
    # the stored product cannot be written, and what the evaluations return
    # can be without reaching it
    kx = _cached_product(sys)(x)
    assert not kx.flags.writeable
    with pytest.raises(ValueError):
        kx[0] = 1.0
    before = _h_evaluations(sys, x)
    sys.residual(x)[:] = 0.0
    sys._eval_row_norms(x)[0][:] = 0.0
    assert _h_evaluations(sys, x) == before


@pytest.mark.parametrize("method", ["ngabk", "mrnabk"])
def test_h_equation_averaged_solve_makes_two_transforms_per_step(method, monkeypatch):
    # a step at x_k reads the K x_k its residual computed: one product with
    # the factor for the block product and one for the residual at x_{k+1},
    # after one for the residual at x_0
    calls = _counting_factor(monkeypatch)
    problem = get_problem("h-equation", 500)
    report = run(problem.system, problem.x0, SolverConfig(method))
    assert report.status is Status.CONVERGED and report.iters > 1
    assert calls[0] == 2 * report.iters + 1


def test_h_equation_threads_sharing_a_system_solve_as_alone():
    # solves of one N = 500 system at once, from two starts, in more threads
    # than cores and with the interpreter switching threads often: each
    # history is that of its solve run alone, as the cached K x is read as
    # one (key, product) pair
    problem = get_problem("h-equation", 500)
    starts = (problem.x0, np.full(500, 0.5))
    cfg = SolverConfig(Method.NGABK)

    def history(x0):
        report = run(problem.system, x0, cfg)
        return report.status, np.array(report.history).tobytes()

    alone = [history(x0) for x0 in starts]
    assert [status for status, _ in alone] == [Status.CONVERGED] * 2
    threads = 4
    results = [None] * threads
    barrier = threading.Barrier(threads, timeout=60)

    def solve(j):
        barrier.wait()
        results[j] = history(starts[j % 2])

    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=solve, args=(j,)) for j in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
            assert not w.is_alive()
    finally:
        setswitchinterval(interval)
    assert results == [alone[j % 2] for j in range(threads)]


def test_h_equation_averaged_solves_never_build_the_kernel():
    # from LOWRANK_MIN_N on, NGABK and MRNABK read the residual and the block
    # product alone, both through the factor (1 MB here), and no evaluation
    # builds the N x N kernel: a row read and short NRK and RD-CNK solves at
    # N = 5000, where K would take 200 MB, compute the rows they read alone
    N = 2000
    assert LOWRANK_MIN_N <= N
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sys = make_h_equation(N)
        for method in (Method.NGABK, Method.MRNABK):
            assert run(sys, np.zeros(N), SolverConfig(method)).status is Status.CONVERGED
        assert tracemalloc.get_traced_memory()[1] - base < 2 * 2**20
        N = 5000
        sys = make_h_equation(N)
        reads = [lambda: sys.row_gradient(N - 1, np.zeros(N))]
        reads += [lambda method=method: run(sys, np.zeros(N), SolverConfig(method, max_iters=3))
                  for method in (Method.NRK, Method.RDCNK)]
        for read in reads:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            read()
            assert tracemalloc.get_traced_memory()[1] - base < 4 * 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("N", [LOWRANK_MIN_N, 500])
def test_h_equation_kernel_is_the_same_whichever_read_builds_it(N, rng):
    # one system reads its row norms first, the other its gradient rows;
    # both read the bits of the explicit kernel
    K, coef = _h_kernel(N)
    x = rng.uniform(0.0, 1.0, size=N)
    rows = np.arange(N)
    by_norms, by_rows = make_h_equation(N), make_h_equation(N)
    w = by_norms._eval_row_norms(x)[0]
    G = by_rows.gradient_rows(rows, x)
    assert w.tobytes() == by_rows._eval_row_norms(x)[0].tobytes()
    assert G.tobytes() == by_norms.gradient_rows(rows, x).tobytes()
    assert G.tobytes() == by_norms.jacobian(x).tobytes() == by_rows.jacobian(x).tobytes()
    ref = -((1.0 - coef * (K[rows] @ x)) ** -2)[:, None] * coef * K[rows]
    ref[rows, rows] += 1.0
    assert G.tobytes() == ref.tobytes()
    # the closed-form norms from the kernel's row norms, which
    # test_h_equation_kernel_row_norms_are_within_their_rounding_bound
    # checks, and the explicit kernel's diagonal
    a = -((1.0 - coef * _cached_product(by_norms)(x)) ** -2) * coef
    K_norms_sq = _closed_over(by_norms._row_norms_sq, "K_norms_sq")
    assert w.tobytes() == (a * a * K_norms_sq + 2.0 * a * K.diagonal() + 1.0).tobytes()
    for i in (0, 1, N // 2, N - 1):
        g = -((1.0 - coef * (K[i] @ x)) ** -2) * coef * K[i]
        g[i] += 1.0
        assert by_norms.row_gradient(i, x).tobytes() == by_rows.row_gradient(i, x).tobytes() \
            == g.tobytes()


@pytest.mark.parametrize("N", [LOWRANK_MIN_N, 2000])
def test_h_equation_kernel_row_norms_are_within_their_rounding_bound(N):
    # ||K_i||^2 = (i + 1/2)^2 (T_i - T_{i+N}), with T_k = sum_{j >= k} h_j^2
    # over j < 2N - 1 and h_j = 1/(j + 1).  Each h_j^2 = 1/(j + 1)^2 rounds
    # once, and T_k is a running sum from the smallest term, each of whose
    # partial sums rounds once, so to first order the computed T_k errs by at
    # most E_k = u (T_k + sum_{l >= k} T_l), u = eps/2.  The difference and
    # the product with the exact (i + 1/2)^2 round once each, so ||K_i||^2
    # errs relatively by at most (E_i + E_{i+N}) / (T_i - T_{i+N}) + 2u, and
    # 1.01 covers the higher orders.  The reference, long-double sums of the
    # N squares of the explicit rows, each entry rounded three times, adds
    # (N + 4) u_ld.  The bound is 7u to 10u at the first row and at most
    # 0.27 N eps over all rows, where the rounding bound of a dense sum over N
    # squares, as in test_h_equation_row_norms_match_the_dense_default, is
    # 4 N eps.
    K_norms_sq = _closed_over(make_h_equation(N)._row_norms_sq, "K_norms_sq")
    wide = np.longdouble
    u, u_wide = np.finfo(float).eps / 2, np.finfo(wide).eps / 2
    T = np.append(np.cumsum(1 / np.arange(2 * N - 1, 0, -1, dtype=wide) ** 2)[::-1], 0)
    E = u * (T + np.cumsum(T[::-1])[::-1])
    bound = 1.01 * ((E[:N] + E[N:]) / (T[:N] - T[N:]) + 2 * u) + (N + 4) * u_wide
    assert bound.max() < N * np.finfo(float).eps / 3
    mu = (np.arange(1, N + 1, dtype=wide) - wide(0.5)) / N
    for lo in range(0, N, 250):
        m = mu[lo:lo + 250, None]
        K = m / (m + mu)
        ref = (K * K).sum(axis=1)
        assert (np.abs(K_norms_sq[lo:lo + 250] - ref) <= bound[lo:lo + 250] * ref).all()


def test_h_equation_threads_building_the_kernel_read_the_single_threaded_bits(rng):
    # threads start together on a fresh system, half reading the row norms
    # first and half the Jacobian, in more threads than cores and with the
    # interpreter switching threads often: each thread reads the bits of a
    # system used alone
    N = 500
    x = rng.uniform(0.0, 1.0, size=N)
    alone = make_h_equation(N)
    expected = {"norms": alone._eval_row_norms(x)[0].tobytes(),
                "jacobian": alone.jacobian(x).tobytes()}
    sys = make_h_equation(N)
    reads = {"norms": lambda x: sys._eval_row_norms(x)[0], "jacobian": sys.jacobian}
    threads = 4
    results = [None] * threads
    barrier = threading.Barrier(threads, timeout=60)

    def read(j):
        order = ("norms", "jacobian") if j % 2 == 0 else ("jacobian", "norms")
        barrier.wait()
        results[j] = {name: reads[name](x).tobytes() for name in order}

    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=read, args=(j,)) for j in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
            assert not w.is_alive()
    finally:
        setswitchinterval(interval)
    assert results == [expected] * threads


# any float, with the values where rounding, overflow and NaN propagation are
# most likely to tell two operation orders apart drawn more often
ANY_FLOAT = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e155, -1e155, 1e200, -1e200,
                     1.7976931348623157e308, -1.7976931348623157e308,
                     np.inf, -np.inf, np.nan, -np.nan]),
    st.floats(),
)


def _support(name, n, i):
    """The columns of row i's gradient."""
    if name == "broyden":
        return list(range(max(i - 1, 0), min(i + 2, n)))
    p = i // 2
    return [p, p + 1] if i % 2 == 0 else [p]


# ANY_FLOAT, with the moderate values where a regrouped quotient rounds
# differently drawn more often too
ENTRY = st.one_of(ANY_FLOAT, st.floats(-4.0, 4.0))


def _outcome(evaluate):
    """The bytes of each array ``evaluate()`` returns (None as None), or the
    message and row index of its DomainError."""
    try:
        return tuple(None if v is None else v.tobytes() for v in evaluate())
    except DomainError as exc:
        return str(exc), exc.index


def _after_row_case(name, data):
    """A problem, a row i, and two points that differ only in row i's columns."""
    n = data.draw(st.integers(2, 60), label="n")
    sys = get_problem(name, n).system
    x_old = np.array(data.draw(st.lists(ENTRY, min_size=n, max_size=n), label="x"))
    i = data.draw(st.integers(0, sys.m - 1), label="row")
    cols = _support(name, n, i)
    x_new = x_old.copy()
    x_new[cols] = data.draw(st.lists(ENTRY, min_size=len(cols), max_size=len(cols)),
                            label="support")
    return sys, i, x_old, x_new


@pytest.mark.parametrize("name", ["broyden", "overdetermined"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_residual_after_row_is_bitwise_the_residual(name, data):
    sys, i, x_old, x_new = _after_row_case(name, data)
    # the hook itself, without norms to refresh
    with np.errstate(all="ignore"):
        fx = sys._residual(x_old)
        before = fx.tobytes()
        want = sys._residual(x_new).tobytes(), None
        assert _outcome(lambda: sys._refresh_after_row(i, x_new, fx, None)) == want
    assert fx.tobytes() == before
    # the refresh a solve calls: the public residual's value, or its DomainError
    with np.errstate(all="ignore"):
        refreshed = _outcome(lambda: (sys._eval_refresh(i, x_new, fx)[0][0], None))
    assert refreshed == _outcome(lambda: (sys.residual(x_new), None))
    assert fx.tobytes() == before


@pytest.mark.parametrize("name", ["broyden", "overdetermined"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_row_norms_after_row_is_bitwise_the_row_norms(name, data):
    sys, i, x_old, x_new = _after_row_case(name, data)
    # the hook itself, as _eval_refresh's dense fallback hides a non-finite row
    with np.errstate(all="ignore"):
        fx, w = sys._residual(x_old), sys._row_norms_sq(x_old)
        before = fx.tobytes(), w.tobytes()
        want = sys._residual(x_new).tobytes(), sys._row_norms_sq(x_new).tobytes()
        assert _outcome(lambda: sys._refresh_after_row(i, x_new, fx, w)) == want
    assert (fx.tobytes(), w.tobytes()) == before
    # and the refresh a solve calls: the same values, or the same DomainError, as the
    # full residual and then the full row norms
    with np.errstate(all="ignore"):
        refreshed = _outcome(lambda: tuple(v for v, _ in sys._eval_refresh(i, x_new, fx, w)))
        full = _outcome(lambda: (sys.residual(x_new), sys._eval_row_norms(x_new)[0]))
    assert refreshed == full
    assert (fx.tobytes(), w.tobytes()) == before
