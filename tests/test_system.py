import math
import warnings

import numpy as np
import pytest

from nlkaczmarz import (
    DomainError,
    Method,
    NonlinearSystem,
    SolverConfig,
    check_lemma1,
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


@pytest.mark.parametrize("problem", [make_brown, make_singular_broyden, make_h_equation,
                                     make_overdetermined_rational])
@pytest.mark.parametrize("i", [True, np.True_, 2.0, np.float64(2.0), -1, "m"],
                         ids=["True", "np.True_", "2.0", "np.float64", "-1", "m"])
def test_row_gradient_refuses_an_index_that_is_not_a_row(problem, i):
    # a bool read row 1 of some problems and failed inside the hook of others
    sys = problem(5)
    with pytest.raises(IndexError, match="row index must be an integer"):
        sys.row_gradient(sys.m if isinstance(i, str) else i, np.full(5, 0.5))


def test_row_gradient_reads_a_numpy_integer_as_its_row():
    sys = make_h_equation(5)
    x = np.full(5, 0.5)
    assert np.array_equal(sys.row_gradient(np.int64(2), x), sys.row_gradient(2, x))


@pytest.mark.parametrize("size", [2.7, True, 0], ids=["2.7", "True", "0"])
def test_system_refuses_a_size_that_is_not_a_positive_integer(size):
    for m, n in ((size, 2), (2, size)):
        with pytest.raises(ValueError, match=r"m and n must be positive integers, got m=.*, n="):
            NonlinearSystem(m, n, lambda x: x, lambda i, x: np.eye(2)[i])


def test_system_refuses_a_known_solution_of_another_shape():
    # checked where it is given, not where x* is first read
    with pytest.raises(ValueError, match=r"^known_solution has shape \(3,\), expected \(2,\)$"):
        NonlinearSystem(2, 2, lambda x: x, lambda i, x: np.eye(2)[i],
                        known_solution=[1.0, 1.0, 1.0])
    sys = NonlinearSystem(2, 2, lambda x: x, lambda i, x: np.eye(2)[i], known_solution=[1, 2])
    assert sys.known_solution.dtype == float and sys.known_solution.tolist() == [1.0, 2.0]


def test_system_takes_a_numpy_integer_size():
    sys = NonlinearSystem(np.int64(3), np.int64(3), lambda x: x, lambda i, x: np.eye(3)[i])
    assert (sys.m, sys.n) == (3, 3)
    assert type(sys.m) is int and type(sys.n) is int
    assert np.array_equal(sys.row_gradient(1, np.zeros(3)), [0.0, 1.0, 0.0])


@pytest.mark.parametrize("indices,rows", [
    ([0.5, 1.7], None),
    (np.array([0.0, 2.0]), None),
    ([True, False, True, False, False], None),
    (np.array([[0, 1], [2, 3]]), None),
    ([4, 0, 2], [4, 0, 2]),
    (np.array([3, 1], dtype=np.intp), [3, 1]),
    ([], []),
], ids=["float-list", "float-array", "bool-mask", "2d", "int-list", "intp", "empty"])
def test_gradient_rows_reads_integer_rows_alone(indices, rows):
    # a cast to np.intp would read rows 0 and 1 for [0.5, 1.7], and rows
    # 1, 0, 1, 0, 0 for the mask
    sys = make_singular_broyden(5)
    x = np.linspace(-1.0, 0.0, 5)
    if rows is None:
        with pytest.raises(IndexError, match="1-D integer array"):
            sys.gradient_rows(indices, x)
    else:
        G = sys.gradient_rows(indices, x)
        expected = np.array([sys.row_gradient(i, x) for i in rows]).reshape(len(rows), 5)
        assert G.shape == expected.shape and G.tobytes() == expected.tobytes()


def test_rows_out_of_range_are_refused():
    sys = make_brown(3)
    x = np.ones(3)
    for rows in ([3], [-1], [0, 3]):
        with pytest.raises(IndexError, match="^row index out of range$"):
            sys.gradient_rows(np.array(rows), x)
    with pytest.raises(IndexError, match="^row index out of range$"):
        check_lemma1(sys, np.array([3]), x, np.zeros(3), 0.1)


def test_h_equation_domain_error_carries_index():
    # N=1: s = 0.225 x, denominator 1 - s hits zero at x = 1/0.225
    sys = make_h_equation(1, c=0.9)
    with pytest.raises(DomainError) as exc:
        sys.residual(np.array([1.0 / 0.225]))
    assert exc.value.index == 0


def _solving(evaluate, *args):
    """``evaluate(*args)`` under the floating-point state ``run()`` solves in."""
    with np.errstate(all="ignore"):
        return evaluate(*args)


@pytest.mark.parametrize("evaluate,index", [
    (lambda sys, x: sys.row_gradient(0, x), 0),
    (lambda sys, x: sys.gradient_rows(np.array([0]), x), 0),
    (lambda sys, x: _solving(sys._eval_block_vjp, np.array([0]), np.ones(1), x), 0),
    (lambda sys, x: _solving(sys._eval_row_norms, x), 0),
    (lambda sys, x: sys.jacobian(x), 0),
], ids=["row_gradient", "gradient_rows", "block_vjp", "row_norms_sq", "jacobian"])
def test_direct_evaluation_at_a_singular_point_raises_without_warnings(evaluate, index):
    # N = 1: the denominator 1 - (c/4) x of every gradient entry vanishes at x = 4 / c;
    # the block product and the row norms are read through their _eval_* methods
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
    (f_new, r2), w_new = sys._eval_refresh(3, y, fx)
    assert np.array_equal(f_new, sys.residual(y)) and w_new is None
    assert r2 == f_new.dot(f_new)
    c = sys.counters
    assert (c.residual_evals, c.row_gradient_evals, c.jacobian_evals) == (2, 0, 0)
    # a non-finite row raises the residual's DomainError, without a warning
    y[4] = np.inf
    with pytest.raises(DomainError) as full:
        sys.residual(y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as refreshed:
            _solving(sys._eval_refresh, 3, y, fx)
    assert (str(refreshed.value), refreshed.value.index) == (str(full.value), full.value.index)
    wide = NonlinearSystem(2, 2, lambda x: x, lambda i, x: np.eye(2)[i],
                           refresh_after_row=lambda i, x, fx, w: (np.zeros(3), w))
    with pytest.raises(ValueError):
        wide._eval_refresh(0, np.zeros(2), np.zeros(2))


def test_residual_after_row_without_a_hook_is_the_residual():
    sys = make_brown(4)
    x = np.array([0.5, 1.0, 2.0, -1.0])
    fx = sys.residual(np.ones(4))
    sys.counters.reset()
    (f_new, _), w_new = sys._eval_refresh(1, x, fx)
    assert np.array_equal(f_new, sys.residual(x)) and w_new is None
    c = sys.counters
    assert (c.residual_evals, c.row_gradient_evals, c.jacobian_evals) == (2, 0, 0)


def test_row_norms_after_row_is_counted_and_checked_as_the_row_norms():
    sys = make_singular_broyden(8)
    x = np.full(8, -0.5)
    fx, w = sys.residual(x), sys._eval_row_norms(x)[0]
    y = x.copy()
    y[2:5] = (0.25, -3.0, 7.0)  # row 3's columns
    sys.counters.reset()
    (f_new, _), (w_new, w_sum) = sys._eval_refresh(3, y, fx, w)
    assert np.array_equal(f_new, sys.residual(y))
    assert np.array_equal(w_new, sys._eval_row_norms(y)[0])
    assert w_sum == np.add.reduce(w_new)
    c = sys.counters
    assert (c.residual_evals, c.row_gradient_evals, c.jacobian_evals) == (2, 0, 2)
    for bad in (lambda i, x, fx, w: (np.zeros(3), w), lambda i, x, fx, w: (fx, np.zeros(3))):
        wide = NonlinearSystem(2, 2, lambda x: x, lambda i, x: np.eye(2)[i],
                               refresh_after_row=bad)
        with pytest.raises(ValueError):
            wide._eval_refresh(0, np.zeros(2), np.zeros(2), np.ones(2))


def test_row_norms_after_row_without_a_hook_is_the_row_norms():
    # without a hook the refresh hands back no norms and counts no Jacobian;
    # RD-CNK then evaluates the row norms itself, once at every iterate it steps from
    sys = make_brown(4)
    x = np.array([0.5, 1.0, 2.0, -1.0])
    fx, w = sys.residual(np.ones(4)), sys._eval_row_norms(np.ones(4))[0]
    sys.counters.reset()
    (f_new, _), w_new = sys._eval_refresh(1, x, fx, w)
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
    fx, w = sys.residual(x), sys._eval_row_norms(x)[0]
    x[2] = 1e200  # row 4's column p = 2
    with pytest.raises(DomainError) as full:
        _solving(sys._eval_row_norms, x)
    sys.counters.reset()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as refreshed:
            _solving(sys._eval_refresh, 4, x, fx, w)
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
                           gradient_rows=rows, block_vjp=block_vjp, row_norms_sq=row_norms_sq)


def test_non_finite_hooks_raise_the_dense_domain_error():
    sys = _system_with_bad_row(2, lambda idx, w, x: np.full(3, np.nan),
                               lambda x: np.full(4, np.nan))
    x = np.ones(3)
    idx = np.array([0, 2, 3])
    with pytest.raises(DomainError) as dense:
        sys.gradient_rows(idx, x)
    sys.counters.reset()
    with pytest.raises(DomainError) as structured:
        _solving(sys._eval_block_vjp, idx, np.ones(3), x)
    assert structured.value.index == dense.value.index == 2
    assert sys.counters.row_gradient_evals == 3
    with pytest.raises(DomainError) as dense:
        sys.jacobian(x)
    sys.counters.reset()
    with pytest.raises(DomainError) as structured:
        _solving(sys._eval_row_norms, x)
    assert structured.value.index == dense.value.index
    assert sys.counters.jacobian_evals == 1


# -- the _eval_* methods and the public methods: one checked path ----------

_A = np.array([[2.0, 1.0, 0.0], [0.5, 3.0, 1.0], [1.0, 0.0, 4.0], [1.0, 1.0, 1.0]])
_NORMS = np.einsum("ij,ij->i", _A, _A)


def _spoiled_hooks(kind):
    """f(x) = A x with every hook, each of which spoils what it returns:
    "nan" puts a NaN in it while the dense rows (``gradient_rows``) stay
    finite, "row" does so and makes dense row 1 infinite too, and "huge"
    returns finite entries whose squares overflow.  The refresh hook spoils
    the row norms it returns, not the residual."""
    def spoil(v):
        v = np.array(v, dtype=float)
        if kind == "huge":
            v[:] = 1e200
        else:
            v[-1] = math.nan
        return v

    def rows(idx, x):
        G = _A[idx].copy()
        if kind == "row":
            G[idx == 1] = math.inf
        return G

    return NonlinearSystem(
        4, 3, lambda x: spoil(_A @ x), lambda i, x: spoil(_A[i]), gradient_rows=rows,
        block_vjp=lambda idx, w, x: spoil(w @ _A[idx]), row_norms_sq=lambda x: spoil(_NORMS),
        refresh_after_row=lambda i, x, fx, w: (_A @ x, None if w is None else spoil(_NORMS)))


# each evaluation's arguments, and the sum that its _eval_* method hands over with each value
_X = np.ones(3)
_ARGS = {"residual": (_X,), "row_gradient": (1, _X), "gradient_rows": (np.array([0, 1, 3]), _X),
         "block_vjp": (np.array([0, 1, 3]), np.ones(3), _X), "row_norms_sq": (_X,),
         "refresh_after_row": (2, _X, _A @ _X, _NORMS)}
_SUMS = {"residual": lambda f: float(f.dot(f)), "row_gradient": lambda g: g.dot(g),
         "block_vjp": lambda v: v.dot(v), "row_norms_sq": np.add.reduce}
# the _eval_* method that a solve calls for each evaluation
_EVAL = {"residual": "_eval_residual", "row_gradient": "_eval_row_gradient",
         "gradient_rows": "_eval_rows", "block_vjp": "_eval_block_vjp",
         "row_norms_sq": "_eval_row_norms",
         "refresh_after_row": "_eval_refresh"}


def _outcome(evaluate):
    """The bytes of each array ``evaluate()`` returns, or the message and
    row index of its DomainError."""
    try:
        return tuple(v.tobytes() for v in evaluate())
    except DomainError as exc:
        return str(exc), exc.index


def _values(name, out):
    """The values of an ``_eval_*`` method's result ``out``, each sum checked against them."""
    if name == "gradient_rows":  # rows come without a sum
        return (out,)
    if name == "refresh_after_row":
        (fx, r2), (w, w_sum) = out
        assert (r2, w_sum) == (_SUMS["residual"](fx), _SUMS["row_norms_sq"](w))
        return fx, w
    value, total = out
    assert total == _SUMS[name](value)
    return (value,)


def _public_outcome(name, kind):
    """The outcome and counters that ``_EVAL[name]`` must give on
    ``_spoiled_hooks(kind)``, from the public evaluations of an identical
    system.  ``residual``, ``row_gradient`` and ``gradient_rows`` are
    public methods.  The other three are reached through their ``_eval_*`` method alone: their
    hook's result is kept where it is finite ("huge" returns 1e200
    everywhere), and where it is not it is replaced by the dense rows'
    product or norms, from
    ``gradient_rows`` or ``jacobian``, which raise the DomainError that
    names the row and charge the same counters.  The refresh hook's
    residual is its own finite A x, charged as one residual evaluation."""
    ref = _spoiled_hooks(kind)

    def kept(dense):
        return np.full(dense.shape, 1e200) if kind == "huge" else dense

    def norms():
        J = ref.jacobian(_X)
        return kept(np.einsum("ij,ij->i", J, J))

    if name in ("residual", "row_gradient", "gradient_rows"):
        evaluate = lambda: (getattr(ref, name)(*_ARGS[name]),)
    elif name == "block_vjp":
        idx, w, x = _ARGS[name]
        evaluate = lambda: (kept(w @ ref.gradient_rows(idx, x)),)
    elif name == "row_norms_sq":
        evaluate = lambda: (norms(),)
    else:
        ref.counters.residual_evals += 1
        evaluate = lambda: (_A @ _X, norms())
    return _outcome(evaluate), vars(ref.counters)


@pytest.mark.parametrize("kind", ["nan", "row", "huge"])
@pytest.mark.parametrize("name", list(_ARGS))
def test_the_view_gives_the_public_methods_outcome(name, kind):
    # each _eval_* method that a solve calls gives the same value or the
    # same DomainError, and the same counters, as the public methods, with
    # the dense rows' fallback where a hook's product or norms are not
    # finite; the name, from when a solve read these methods through a view
    # of the system, is kept so that the test ids stay
    want, counters = _public_outcome(name, kind)
    solving = _spoiled_hooks(kind)
    with np.errstate(all="ignore"):
        got = _outcome(lambda: _values(name, getattr(solving, _EVAL[name])(*_ARGS[name])))
    assert got == want
    assert vars(solving.counters) == counters
    if kind == "row" and name in ("block_vjp", "row_norms_sq", "refresh_after_row"):
        assert want == ("non-finite gradient in row 1", 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_public_row_access_writes_no_warning_where_a_row_overflows():
    # the product row's entries, 1e200 ** 9, overflow: the public methods
    # hold their own error state, as the _eval_* methods do not
    sys = make_brown(10)
    x = np.full(10, 1e200)
    with pytest.raises(DomainError, match=r"^non-finite gradient in row 9$") as rows:
        sys.gradient_rows([9], x)
    with pytest.raises(DomainError, match=r"^non-finite gradient in row 9$") as full:
        sys.jacobian(x)
    assert rows.value.index == full.value.index == 9


def test_hooks_are_checked():
    sys = _system_with_bad_row(-1, lambda idx, w, x: np.zeros(2), lambda x: np.zeros(3))
    x = np.ones(3)
    with pytest.raises(ValueError, match=r"^block_vjp has shape \(2,\)"):
        sys._eval_block_vjp(np.array([0, 1]), np.ones(2), x)
    with pytest.raises(ValueError, match=r"^row_norms_sq has shape \(3,\)"):
        sys._eval_row_norms(x)
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
    assert np.array_equal(sys._eval_block_vjp(idx, w, x)[0], w @ A[idx])
    assert np.array_equal(sys._eval_row_norms(x)[0], np.einsum("ij,ij->i", A, A))
