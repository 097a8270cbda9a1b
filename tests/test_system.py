import warnings

import numpy as np
import pytest

from nlkaczmarz import (
    DomainError,
    IterateState,
    Method,
    NonlinearSystem,
    SolverConfig,
    fd_check,
    make_brown,
    make_h_equation,
    make_overdetermined_rational,
    make_singular_broyden,
    run,
)

from conftest import make_affine


def test_brown_residual_at_root():
    sys = make_brown(3)
    assert np.array_equal(sys.residual(np.ones(3)), np.zeros(3))


def test_h_equation_single_point_residual():
    # inner sum vanishes at x = 0, so F = 0 - 1/(1 - 0) = -1
    sys = make_h_equation(1, c=0.9)
    assert sys.residual(np.zeros(1)) == pytest.approx([-1.0])


def test_overdetermined_residual_at_origin():
    sys = make_overdetermined_rational(2)
    assert sys.residual(np.zeros(2)) == pytest.approx([0.0, -1.0])


def test_residual_dimension_mismatch():
    sys = make_brown(3)
    with pytest.raises(ValueError):
        sys.residual(np.zeros(4))


def test_row_gradient_index_out_of_range():
    sys = make_brown(3)
    with pytest.raises(IndexError):
        sys.row_gradient(3, np.ones(3))
    with pytest.raises(IndexError):
        sys.row_gradient(-1, np.ones(3))


def test_h_equation_domain_error_carries_index():
    # N=1: s = 0.225 x, denominator 1 - s hits zero at x = 1/0.225
    sys = make_h_equation(1, c=0.9)
    with pytest.raises(DomainError) as exc:
        sys.residual(np.array([1.0 / 0.225]))
    assert exc.value.index == 0


@pytest.mark.parametrize("evaluate,index", [
    (lambda sys, x: sys.row_gradient(0, x), 0),
    (lambda sys, x: sys.gradient_rows(np.array([0]), x), 0),
    (lambda sys, x: sys.block_vjp(np.array([0]), np.ones(1), x), 0),
    (lambda sys, x: sys.row_norms_sq(x), 0),
    (lambda sys, x: sys.jacobian(x), 0),
], ids=["row_gradient", "gradient_rows", "block_vjp", "row_norms_sq", "jacobian"])
def test_direct_evaluation_at_a_singular_point_raises_without_warnings(evaluate, index):
    # N = 1: the denominator 1 - (c/4) x of every gradient entry vanishes at x = 4 / c
    sys = make_h_equation(1, c=0.9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as exc:
            evaluate(sys, np.array([4.0 / 0.9]))
    assert exc.value.index == index


def test_brown_linear_row_gradient():
    sys = make_brown(4)
    for k in range(3):
        expected = np.ones(4)
        expected[k] += 1.0
        assert np.array_equal(sys.row_gradient(k, np.array([0.3, -1.0, 2.0, 0.7])), expected)


def test_brown_product_row_gradient_at_ones():
    sys = make_brown(3)
    assert np.array_equal(sys.row_gradient(2, np.ones(3)), np.ones(3))


def test_broyden_row_gradient_vanishes_at_inner_root():
    # at x = (-0.5, -0.5): g_1 = 4*(-0.5) + 2*0.5 + 1 = 0, so grad f_1 = 2 g_1 grad g_1 = 0
    sys = make_singular_broyden(2)
    assert np.array_equal(sys.row_gradient(0, np.array([-0.5, -0.5])), np.zeros(2))


def test_fd_check_brown():
    sys = make_brown(5)
    assert fd_check(sys, 0.5 * np.ones(5)).max() < 1e-6


def test_fd_check_h_equation():
    sys = make_h_equation(50, c=0.9)
    assert fd_check(sys, np.zeros(50)).max() < 1e-5


def test_fd_check_affine_rows_machine_eps():
    A = np.array([[1.0, 2.0], [3.0, -4.0]])
    sys = make_affine(A, np.array([1.0, 1.0]))
    assert fd_check(sys, np.array([0.7, -0.2])).max() < 1e-9


def test_residual_deterministic_bitwise():
    sys = make_h_equation(20, c=0.9)
    x = np.linspace(0.0, 0.8, 20)
    assert np.array_equal(sys.residual(x), sys.residual(x))


def test_iterate_state_cache_coherence():
    sys = make_brown(4)
    x = np.array([0.5, 1.0, -0.3, 2.0])
    state = IterateState.at(sys, x)
    assert np.array_equal(state.fx, sys.residual(x))
    assert state.k == 0


def test_known_solution_residual_below_threshold():
    for sys in (make_brown(6), make_overdetermined_rational(5)):
        fx = sys.residual(sys.known_solution)
        assert fx @ fx < 1e-20


def test_counters_tally_work():
    sys = make_brown(4)
    sys.residual(np.ones(4))
    sys.row_gradient(0, np.ones(4))
    sys.gradient_rows(np.array([0, 2]), np.ones(4))
    sys.jacobian(np.ones(4))
    c = sys.counters
    assert (c.residual_evals, c.row_gradient_evals, c.jacobian_evals) == (1, 3, 1)
    c.reset()
    assert (c.residual_evals, c.row_gradient_evals, c.jacobian_evals) == (0, 0, 0)


def test_residual_after_row_is_counted_and_checked_as_the_residual():
    sys = make_singular_broyden(8)
    x = np.full(8, -0.5)
    fx = sys.residual(x)
    y = x.copy()
    y[2:5] = (0.25, -3.0, 7.0)  # row 3's columns
    sys.counters.reset()
    # without norms to refresh, it is one residual evaluation and no norms
    f_new, w_new = sys.refresh_after_row(3, y, fx)
    assert np.array_equal(f_new, sys.residual(y)) and w_new is None
    c = sys.counters
    assert (c.residual_evals, c.row_gradient_evals, c.jacobian_evals) == (2, 0, 0)
    with pytest.raises(IndexError):
        sys.refresh_after_row(8, y, fx)
    with pytest.raises(ValueError):
        sys.refresh_after_row(3, y[:7], fx)
    with pytest.raises(ValueError):
        sys.refresh_after_row(3, y, fx[:7])
    # a non-finite row raises the residual's DomainError, without a warning
    y[4] = np.inf
    with pytest.raises(DomainError) as full:
        sys.residual(y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as refreshed:
            sys.refresh_after_row(3, y, fx)
    assert (str(refreshed.value), refreshed.value.index) == (str(full.value), full.value.index)
    wide = NonlinearSystem(2, 2, lambda x: x, lambda i, x: np.eye(2)[i],
                           refresh_after_row=lambda i, x, fx, w: (np.zeros(3), w))
    with pytest.raises(ValueError):
        wide.refresh_after_row(0, np.zeros(2), np.zeros(2))


def test_residual_after_row_without_a_hook_is_the_residual():
    sys = make_brown(4)
    x = np.array([0.5, 1.0, 2.0, -1.0])
    fx = sys.residual(np.ones(4))
    sys.counters.reset()
    f_new, w_new = sys.refresh_after_row(1, x, fx)
    assert np.array_equal(f_new, sys.residual(x)) and w_new is None
    c = sys.counters
    assert (c.residual_evals, c.row_gradient_evals, c.jacobian_evals) == (2, 0, 0)


def test_row_norms_after_row_is_counted_and_checked_as_the_row_norms():
    sys = make_singular_broyden(8)
    x = np.full(8, -0.5)
    fx, w = sys.residual(x), sys.row_norms_sq(x)
    y = x.copy()
    y[2:5] = (0.25, -3.0, 7.0)  # row 3's columns
    sys.counters.reset()
    f_new, w_new = sys.refresh_after_row(3, y, fx, w)
    assert np.array_equal(f_new, sys.residual(y))
    assert np.array_equal(w_new, sys.row_norms_sq(y))
    c = sys.counters
    assert (c.residual_evals, c.row_gradient_evals, c.jacobian_evals) == (2, 0, 2)
    with pytest.raises(IndexError):
        sys.refresh_after_row(8, y, fx, w)
    with pytest.raises(ValueError):
        sys.refresh_after_row(3, y[:7], fx, w)
    with pytest.raises(ValueError):
        sys.refresh_after_row(3, y, fx, w[:7])
    for bad in (lambda i, x, fx, w: (np.zeros(3), w), lambda i, x, fx, w: (fx, np.zeros(3))):
        wide = NonlinearSystem(2, 2, lambda x: x, lambda i, x: np.eye(2)[i],
                               refresh_after_row=bad)
        with pytest.raises(ValueError):
            wide.refresh_after_row(0, np.zeros(2), np.zeros(2), np.ones(2))


def test_row_norms_after_row_without_a_hook_is_the_row_norms():
    # without a hook the refresh hands back no norms and counts no Jacobian;
    # RD-CNK then evaluates the row norms itself, once at every iterate it steps from
    sys = make_brown(4)
    x = np.array([0.5, 1.0, 2.0, -1.0])
    fx, w = sys.residual(np.ones(4)), sys.row_norms_sq(np.ones(4))
    sys.counters.reset()
    f_new, w_new = sys.refresh_after_row(1, x, fx, w)
    assert np.array_equal(f_new, sys.residual(x)) and w_new is None
    c = sys.counters
    assert (c.residual_evals, c.row_gradient_evals, c.jacobian_evals) == (2, 0, 0)
    c.reset()
    report = run(sys, x, SolverConfig(method=Method.RDCNK, seed=1, max_iters=200))
    assert report.iters > 0
    assert (c.residual_evals, c.jacobian_evals) == (report.iters + 1, report.iters)


def test_non_finite_refreshed_row_norms_raise_the_dense_domain_error():
    # overdetermined row 2p's norm is NaN once x_p^2 overflows, and so is its
    # dense gradient, while every residual stays finite; the refresh falls
    # back to the dense rows, without a warning
    sys = make_overdetermined_rational(6)
    x = np.full(6, 0.5)
    fx, w = sys.residual(x), sys.row_norms_sq(x)
    x[2] = 1e200  # row 4's column p = 2
    with pytest.raises(DomainError) as full:
        sys.row_norms_sq(x)
    sys.counters.reset()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as refreshed:
            sys.refresh_after_row(4, x, fx, w)
    assert (str(refreshed.value), refreshed.value.index) == (str(full.value), full.value.index)
    assert refreshed.value.index == 4
    c = sys.counters
    assert (c.residual_evals, c.row_gradient_evals, c.jacobian_evals) == (1, 0, 1)


def _system_with_bad_row(bad_row, block_vjp, row_norms_sq):
    """4x3 linear rows whose gradient in ``bad_row`` is NaN."""
    A = np.arange(12.0).reshape(4, 3)

    def rows(idx, x):
        G = A[idx].copy()
        G[idx == bad_row] = np.nan
        return G

    return NonlinearSystem(4, 3, lambda x: A @ x, lambda i, x: rows(np.array([i]), x)[0],
                           gradient_rows=rows, jacobian=lambda x: rows(np.arange(4), x),
                           block_vjp=block_vjp, row_norms_sq=row_norms_sq)


def test_non_finite_hooks_raise_the_dense_domain_error():
    sys = _system_with_bad_row(2, lambda idx, w, x: np.full(3, np.nan),
                               lambda x: np.full(4, np.nan))
    x = np.ones(3)
    idx = np.array([0, 2, 3])
    with pytest.raises(DomainError) as dense:
        sys.gradient_rows(idx, x)
    sys.counters.reset()
    with pytest.raises(DomainError) as structured:
        sys.block_vjp(idx, np.ones(3), x)
    assert structured.value.index == dense.value.index == 2
    assert sys.counters.row_gradient_evals == 3
    with pytest.raises(DomainError) as dense:
        sys.jacobian(x)
    sys.counters.reset()
    with pytest.raises(DomainError) as structured:
        sys.row_norms_sq(x)
    assert structured.value.index == dense.value.index
    assert sys.counters.jacobian_evals == 1


def test_hooks_are_checked():
    sys = _system_with_bad_row(-1, lambda idx, w, x: np.zeros(2), lambda x: np.zeros(3))
    x = np.ones(3)
    with pytest.raises(ValueError):
        sys.block_vjp(np.array([0, 1]), np.ones(2), x)
    with pytest.raises(ValueError):
        sys.block_vjp(np.array([0, 1]), np.ones(3), x)
    with pytest.raises(IndexError):
        sys.block_vjp(np.array([4]), np.ones(1), x)
    with pytest.raises(ValueError):
        sys.row_norms_sq(x)
    wide = NonlinearSystem(4, 3, lambda x: np.zeros(4), lambda i, x: np.zeros(3),
                           gradient_rows=lambda idx, x: np.zeros((len(idx), 4)))
    with pytest.raises(ValueError):
        wide.gradient_rows(np.array([0, 1]), x)


def test_dense_defaults_match_rows_and_jacobian(rng):
    A = rng.normal(size=(5, 4))
    sys = make_affine(A, np.zeros(5))
    idx = np.array([4, 1, 1])
    w = rng.normal(size=3)
    x = rng.normal(size=4)
    assert np.array_equal(sys.block_vjp(idx, w, x), w @ A[idx])
    assert np.array_equal(sys.row_norms_sq(x), np.einsum("ij,ij->i", A, A))
