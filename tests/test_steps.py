import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlkaczmarz import (
    BreakdownError,
    Method,
    NonlinearSystem,
    SolverConfig,
    Status,
    get_problem,
    make_brown,
    make_h_equation,
    run,
    select_ngabk,
)
from nlkaczmarz.solvers import (CG_MIN_ROWS, GRAM_RTOL, _averaged, _projected, _step,
                                rbcnk_step)

from conftest import make_affine

EPS = np.finfo(float).eps


def _iterates(sys, x0, method, steps):
    """The iterates of a run of ``method`` capped at ``steps`` steps."""
    return run(sys, x0, SolverConfig(method, max_iters=steps, store_iterates=True)).iterates


def _rows(*indices):
    return np.array(indices, dtype=np.intp)


def _block_step(A, b):
    """RB-CNK's step over every row of f(x) = A x - b from x = 0."""
    sys = make_affine(A, b)
    x = np.zeros(A.shape[1])
    # a Gram that overflows or underflows warns outside run()'s floating-point scope
    with np.errstate(all="ignore"):
        return rbcnk_step(sys._view(), x, sys.residual(x), np.arange(len(A)), 0)[0]


def test_single_affine_equation_one_projection():
    sys = make_affine(np.array([[1.0]]), np.array([5.0]))
    report = run(sys, np.zeros(1), SolverConfig(Method.NGABK, store_iterates=True))
    assert report.iterates[1] == pytest.approx([5.0])
    assert report.iters == 1


def test_diagonal_affine_hand_example():
    # fx = (-1, -2) at the origin; the greedy rule keeps only row 1,
    # and the single-row projection solves that coordinate exactly
    sys = make_affine(np.eye(2), np.array([1.0, 2.0]))
    sel = select_ngabk(sys.residual(np.zeros(2)))
    assert list(sel.indices) == [1]
    assert sel.threshold == pytest.approx(13.0 / 20.0)
    assert _iterates(sys, np.zeros(2), Method.NGABK, 1)[1] == pytest.approx([0.0, 2.0])


@pytest.mark.parametrize("index", [0, 2, 4])
def test_singleton_block_reduces_to_nrk(index, rng):
    sys = make_brown(5)
    x = rng.uniform(0.3, 1.4, size=5)
    fx = sys.residual(x)
    # the steps evaluate through a solve's view, inside run()'s floating-point scope
    view = sys._view()
    with np.errstate(all="ignore"):
        blocked = _averaged(view, x, fx, _rows(index), 0)[0]
        single = _projected(view, x, fx, index, 0)[0]
    assert np.allclose(blocked, single, rtol=1e-14, atol=0.0)


def test_eta_identity(rng):
    # eta^T(-f) == sum of selected f_i^2 == ||eta||^2
    for _ in range(50):
        fx = rng.normal(size=rng.integers(2, 40))
        sel = select_ngabk(fx)
        eta = np.zeros(len(fx))
        eta[sel.indices] = -fx[sel.indices]
        s2 = float((fx[sel.indices] ** 2).sum())
        assert eta @ (-fx) == pytest.approx(s2, rel=1e-12)
        assert eta @ eta == pytest.approx(s2, rel=1e-12)


def test_breakdown_on_annihilated_direction():
    # f(x) = x^2 - 1 has zero gradient at x = 0 with residual -1
    sys = NonlinearSystem(1, 1, lambda x: x * x - 1.0, lambda i, x: 2.0 * x)
    with pytest.raises(BreakdownError), np.errstate(all="ignore"):
        _averaged(sys._view(), np.zeros(1), sys.residual(np.zeros(1)), _rows(0), 0)
    report = run(sys, np.zeros(1), SolverConfig(method=Method.NGABK))
    assert report.status.value == "breakdown"
    assert report.iters == 0


def test_nrk_affine_row_zeroed_after_step(rng):
    A = rng.normal(size=(4, 3))
    sys = make_affine(A, rng.normal(size=4))
    with np.errstate(all="ignore"):
        _, fx, _, _ = _projected(sys._view(), np.zeros(3), sys.residual(np.zeros(3)), 2, 0)
    assert fx[2] == pytest.approx(0.0, abs=1e-12)


def test_nrk_deterministic_under_seed():
    sys = make_h_equation(20, c=0.9)
    a = run(sys, np.zeros(20), SolverConfig(method=Method.NRK, seed=42))
    b = run(sys, np.zeros(20), SolverConfig(method=Method.NRK, seed=42))
    assert a.iters == b.iters
    assert a.history == b.history
    c = run(sys, np.zeros(20), SolverConfig(method=Method.NRK, seed=43))
    assert c.history != a.history


def test_rbcnk_singleton_reduces_to_nrk(rng):
    sys = make_brown(5)
    x = rng.uniform(0.3, 1.4, size=5)
    fx = sys.residual(x)
    view = sys._view()
    with np.errstate(all="ignore"):
        blocked, single = rbcnk_step(view, x, fx, _rows(3), 0)[0], _projected(view, x, fx, 3, 0)[0]
    assert np.allclose(blocked, single, rtol=1e-12)


def test_rbcnk_full_affine_block_is_newton(rng):
    A = rng.normal(size=(4, 4))
    b = rng.normal(size=4)
    assert np.allclose(_block_step(A, b), np.linalg.solve(A, b), rtol=1e-10)


def test_rbcnk_rank_deficient_block_minimum_norm():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])  # duplicated row
    assert _block_step(A, np.array([2.0, 2.0])) == pytest.approx([2.0, 0.0])


# The RB-CNK block solve against lstsq: on f(x) = A x - b from x = 0, the step
# over every row is the minimum-norm solution of A d = b.


def _err_to_lstsq(d, A, b):
    # relative, in the max norm, which neither overflows nor underflows at 1e+-170
    ref = np.linalg.lstsq(A, b, rcond=None)[0]
    return np.abs(d - ref).max() / np.abs(ref).max()


@settings(max_examples=60, deadline=None)
@given(m=st.integers(2, 12), extra=st.integers(0, 24), seed=st.integers(0, 2**32 - 1))
def test_rbcnk_wide_block_matches_lstsq(m, extra, seed):
    # a Gaussian m x n block with n >= 2m has full row rank; the Gram solve
    # loses accuracy like eps * cond(A)^2, where lstsq loses eps * cond(A)
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, 2 * m + extra))
    b = rng.normal(size=m)
    assert _err_to_lstsq(_block_step(A, b), A, b) <= 100 * EPS * np.linalg.cond(A) ** 2


def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} called on a block that a cheaper solve certifies")
    return refuse


@pytest.mark.parametrize("shape", [(2, 3), (21, 100), (60, 61)])
def test_rbcnk_well_conditioned_block_does_not_call_lstsq(shape, rng):
    A = rng.normal(size=shape) + 3.0 * np.eye(*shape)
    b = rng.normal(size=shape[0])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "lstsq", _refuse("lstsq"))
        d = _block_step(A, b)
    assert _err_to_lstsq(d, A, b) <= 100 * EPS * np.linalg.cond(A) ** 2


@pytest.mark.parametrize("A,b", [
    ([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 1.0, 1.0]], [1.0, 1.0, 2.0]),  # consistent
    ([[1.0, 2.0, 0.0], [1.0, 2.0, 0.0], [0.0, 1.0, 1.0]], [1.0, 3.0, 2.0]),  # inconsistent
    ([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]], [1.0, 0.0, 2.0]),  # zero row
    ([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]], [1.0, 5.0, 2.0]),  # and residual
    ([[3.0, 1.0, 4.0, 1.0]] * 4, [2.0, 2.0, 2.0, 2.0]),  # one row four times
], ids=["duplicate", "duplicate-inconsistent", "zero-row", "zero-row-inconsistent",
        "quadruple"])
def test_rbcnk_rank_deficient_block_matches_lstsq(A, b):
    A, b = np.array(A), np.array(b)
    assert _err_to_lstsq(_block_step(A, b), A, b) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_rbcnk_ill_conditioned_gram_matches_lstsq(seed):
    # cond(A) = 1e7, so cond(A A^T) = 1e14: the Gram solve leaves a residual
    # near eps * 1e14; the step must keep lstsq's own accuracy, eps * cond(A)
    rng = np.random.default_rng(seed)
    U = np.linalg.qr(rng.normal(size=(8, 8)))[0]
    V = np.linalg.qr(rng.normal(size=(20, 8)))[0]
    A = (U * np.logspace(0, -7, 8)) @ V.T
    assert np.linalg.cond(A @ A.T) == pytest.approx(1e14, rel=0.5)
    b = rng.normal(size=8)
    assert _err_to_lstsq(_block_step(A, b), A, b) <= 50 * EPS * 1e7


@pytest.mark.parametrize("scale", [1e170, 1e-170])
def test_rbcnk_block_with_extreme_entries_matches_lstsq(scale, rng):
    # the Gram overflows to inf or underflows to zero; lstsq scales
    A = scale * rng.normal(size=(5, 12))
    b = rng.normal(size=5)
    assert _err_to_lstsq(_block_step(A, b), A, b) <= 1e-12


# Blocks of CG_MIN_ROWS rows or more try conjugate gradients before the Gram.


@pytest.mark.parametrize("base,shift", [("gaussian", 250.0), ("ones", 1.0)],
                         ids=["gaussian+250I", "ones+I"])
def test_rbcnk_large_well_conditioned_block_takes_conjugate_gradients(base, shift, rng):
    # cond(A) = 1.2 takes about 10 iterations; all-ones plus the identity,
    # Brown's block shape, has two singular values and takes 2
    shape = (CG_MIN_ROWS + 44, 2 * CG_MIN_ROWS + 88)
    A = (rng.normal(size=shape) if base == "gaussian" else np.ones(shape)) + shift * np.eye(*shape)
    b = rng.normal(size=shape[0])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", _refuse("solve"))
        patch.setattr(np.linalg, "lstsq", _refuse("lstsq"))
        d = _block_step(A, b)
    # the step stops at the Gram path's residual test, not at rounding level;
    # with d in the row space of A, that test bounds ||d - A^+ b||_2 by
    # sqrt(k) GRAM_RTOL max|b| / sigma_min, and max|A^+ b| is at least
    # max|b| / (sigma_max sqrt(n))
    assert np.abs(A @ d - b).max() <= GRAM_RTOL * np.abs(b).max()
    assert _err_to_lstsq(d, A, b) <= np.sqrt(A.size) * GRAM_RTOL * np.linalg.cond(A)


def test_rbcnk_brown_400_solves_its_block_without_the_gram():
    prob = get_problem("brown", 400)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "solve", _refuse("solve"))
        patch.setattr(np.linalg, "lstsq", _refuse("lstsq"))
        report = run(prob.system, prob.x0, SolverConfig(Method.RBCNK))
    assert report.status is Status.CONVERGED
    assert report.iters == 1
    assert report.history[0][2] == 399


def _gram_or_lstsq(A, b):
    """The block solve's Gram path: the Gram solve when it passes its
    residual test, else ``lstsq``."""
    d = A.T @ np.linalg.solve(A @ A.T, b)
    if np.abs(A @ d - b).max() <= GRAM_RTOL * np.abs(b).max():
        return d
    return np.linalg.lstsq(A, b, rcond=None)[0]


@pytest.mark.parametrize("spread", ["graded", "two-clusters"])
def test_rbcnk_large_ill_conditioned_block_falls_back_bitwise(spread, rng):
    # cond(A) = 1e7.  Graded singular values keep the recurrence residual far
    # above the tolerance for every iteration; two clusters drive it below
    # the tolerance in a few, while the true residual stays near 1e-8: the
    # check of the true residual must refuse that d
    k = CG_MIN_ROWS + 44
    U = np.linalg.qr(rng.normal(size=(k, k)))[0]
    V = np.linalg.qr(rng.normal(size=(2 * k, k)))[0]
    s = (np.logspace(0, -7, k) if spread == "graded"
         else np.repeat([1.0, 1e-7], [k // 2, k - k // 2]))
    A = (U * s) @ V.T
    b = rng.normal(size=k)
    assert np.array_equal(_block_step(A, b), _gram_or_lstsq(A, b))


@pytest.mark.parametrize("scale", [1e170, 1e-170])
def test_rbcnk_large_block_with_extreme_entries_matches_lstsq(scale, rng):
    # at scale 1 conjugate gradients solve this block; here their curvature
    # ||G^T p||^2 or step length overflows or underflows, and then the Gram does
    shape = (CG_MIN_ROWS + 4, 2 * CG_MIN_ROWS)
    A = scale * (rng.normal(size=shape) + 250.0 * np.eye(*shape))
    b = rng.normal(size=len(A))
    assert _err_to_lstsq(_block_step(A, b), A, b) <= 1e-12


def test_rbcnk_block_below_cg_min_rows_is_the_gram_solve(rng):
    # a block that conjugate gradients would solve, one row short of them
    shape = (CG_MIN_ROWS - 1, 2 * CG_MIN_ROWS)
    A = rng.normal(size=shape) + 250.0 * np.eye(*shape)
    b = rng.normal(size=shape[0])
    assert np.array_equal(_block_step(A, b), A.T @ np.linalg.solve(A @ A.T, b))


@pytest.mark.parametrize("g", [
    1e170 * np.array([1.0, -2.0, 3.0]),  # ||g||^2 overflows
    1e-170 * np.array([1.0, -2.0, 3.0]),  # ||g||^2 underflows to zero
    1e-160 * np.array([1.0, -2.0, 3.0]),  # ||g||^2 is subnormal
], ids=["overflow", "underflow", "subnormal"])
def test_rbcnk_one_row_with_extreme_norm_matches_lstsq(g):
    A, b = g[None, :], np.array([0.75])
    d = _block_step(A, b)
    assert np.isfinite(d).all()
    assert _err_to_lstsq(d, A, b) <= 1e-12


def test_newton_affine_one_step(rng):
    A = rng.normal(size=(3, 3))
    b = rng.normal(size=3)
    sys = make_affine(A, b)
    x = _iterates(sys, np.zeros(3), Method.NEWTON, 1)[1]
    assert np.allclose(x, np.linalg.solve(A, b), rtol=1e-10)


def test_newton_step_is_zero_at_root():
    # run() stops before a step at a root, so the step is called directly
    sys = make_brown(4)
    step = _step(sys._view(), Method.NEWTON, 0.1, None)
    with np.errstate(all="ignore"):
        x, _, _, size = step(np.ones(4), sys.residual(np.ones(4)), 0.0, 0)
    assert np.allclose(x, np.ones(4), atol=1e-12)
    assert size == 4


def test_newton_quadratic_residual_decrease():
    sys = make_h_equation(10, c=0.9)
    report = run(sys, np.zeros(10), SolverConfig(Method.NEWTON, max_iters=3, tol_sq=1e-300))
    r = [h[1] for h in report.history] + [report.final_residual_sq]
    assert len(r) == 4
    # squared residual should square (plus constant) each step
    assert r[1] < 0.1 * r[0]
    assert r[2] < 10.0 * r[1] ** 2
    assert r[3] < 10.0 * r[2] ** 2
