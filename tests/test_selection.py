import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nlkaczmarz import (
    BreakdownError,
    DomainError,
    NonlinearSystem,
    select_mrnabk,
    select_ngabk,
    select_rdcnk,
)
from nlkaczmarz.solvers import BlockSelection

from conftest import make_affine


def test_ngabk_uniform_selects_all():
    sel = select_ngabk(np.array([1.0, 1.0, 1.0, 1.0]))
    assert list(sel.indices) == [0, 1, 2, 3]
    assert sel.threshold == pytest.approx(0.25)


def test_ngabk_single_spike():
    sel = select_ngabk(np.array([2.0, 0.0, 0.0, 0.0]))
    assert list(sel.indices) == [0]
    assert sel.threshold == pytest.approx(5.0 / 8.0)


def test_ngabk_hand_arithmetic():
    # ||f||^2 = 14, delta = (9/14 + 1/3)/2 = 41/84, cut = 41/6
    sel = select_ngabk(np.array([3.0, 2.0, 1.0]))
    assert list(sel.indices) == [0]
    assert sel.threshold == pytest.approx(41.0 / 84.0)


def test_mrnabk_hand_arithmetic():
    sel = select_mrnabk(np.array([3.0, 2.0, 1.0]), rho=0.1)
    assert list(sel.indices) == [0, 1, 2]
    assert sel.threshold == pytest.approx(0.9)


def test_mrnabk_rho_one_is_pure_max_rule():
    assert list(select_mrnabk(np.array([3.0, 2.0, 1.0]), rho=1.0).indices) == [0]
    # ties: the whole argmax set is kept
    assert list(select_mrnabk(np.array([-2.0, 2.0, 1.0]), rho=1.0).indices) == [0, 1]


def test_mrnabk_constant_residual_selects_all():
    for c in (0.3, -7.0):
        for rho in (0.1, 0.5, 1.0):
            sel = select_mrnabk(c * np.ones(6), rho=rho)
            assert list(sel.indices) == list(range(6))


def test_selection_rejects_zero_residual():
    with pytest.raises(ValueError):
        select_ngabk(np.zeros(4))
    with pytest.raises(ValueError):
        select_mrnabk(np.zeros(4), rho=0.1)


def test_mrnabk_rejects_bad_rho():
    with pytest.raises(ValueError):
        select_mrnabk(np.ones(3), rho=0.0)
    with pytest.raises(ValueError):
        select_mrnabk(np.ones(3), rho=1.5)


@pytest.mark.parametrize("select", [select_ngabk, lambda fx: select_mrnabk(fx, 0.1)],
                         ids=["ngabk", "mrnabk"])
def test_greedy_selections_refuse_a_residual_that_is_not_1d(select):
    with pytest.raises(ValueError, match=r"^residual has shape \(2, 3\), expected a 1-D array$"):
        select(np.ones((2, 3)))


nonzero_residuals = hnp.arrays(
    np.float64, st.integers(min_value=1, max_value=60),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
).filter(lambda v: np.any(v != 0.0))


@settings(max_examples=300, deadline=None)
@given(fx=nonzero_residuals)
def test_ngabk_nonempty_and_argmax_member(fx):
    sel = select_ngabk(fx)
    assert len(sel.indices) >= 1
    # compare on |f| — squaring raw components underflows for tiny values
    assert int(np.argmax(np.abs(fx))) in set(sel.indices)


@settings(max_examples=300, deadline=None)
@given(fx=nonzero_residuals, rho=st.floats(1e-6, 1.0))
def test_mrnabk_nonempty_and_argmax_member(fx, rho):
    sel = select_mrnabk(fx, rho)
    assert len(sel.indices) >= 1
    assert int(np.argmax(np.abs(fx))) in set(sel.indices)


@settings(max_examples=200, deadline=None)
@given(fx=nonzero_residuals)
def test_mrnabk_rho_one_is_argmax_tie_set(fx):
    sel = select_mrnabk(fx, rho=1.0)
    a = np.abs(fx)
    assert set(sel.indices) == set(np.flatnonzero(a == a.max()))


# -- RD-CNK selection ----------------------------------------------------


def test_rdcnk_symmetric_case_selects_all():
    sys = make_affine(np.eye(4), np.zeros(4))
    x = 0.7 * np.ones(4)
    sel = select_rdcnk(sys, x, sys.residual(x))
    assert list(sel.indices) == [0, 1, 2, 3]


def test_rdcnk_singleton_system():
    sys = make_affine(np.array([[2.0]]), np.array([1.0]))
    x = np.array([5.0])
    assert list(select_rdcnk(sys, x, sys.residual(x)).indices) == [0]
    # the point and the residual may be sequences, as the greedy selections' fx may
    assert list(select_rdcnk(sys, [5.0], [9.0]).indices) == [0]


def test_rdcnk_unit_gradients_reduce_to_ngabk_arithmetic():
    # identity Jacobian: per-row cut is delta * 14 = 41/6, selecting only row 0
    sys = make_affine(np.eye(3), np.zeros(3))
    x = np.array([3.0, 2.0, 1.0])
    sel = select_rdcnk(sys, x, sys.residual(x))
    assert list(sel.indices) == [0]
    assert sel.threshold == pytest.approx(41.0 / 84.0)


def test_rdcnk_zero_gradient_row_dominates():
    A = np.array([[1.0, 0.0], [0.0, 0.0]])
    sys = make_affine(A, np.array([0.0, 1.0]))
    x = np.array([2.0, 2.0])  # fx = (2, -1), row 1 grad = 0
    sel = select_rdcnk(sys, x, sys.residual(x))
    assert list(sel.indices) == [1]
    assert sel.threshold == np.inf


# -- RD-CNK selection against its earlier form -----------------------------


def _select_rdcnk_reference(sys, x, fx):
    """The capped selection as written before it took fewer passes: a full
    ``fx.any()`` and ``w.all()`` on every call, the ratios formed in either
    branch and the indices copied to intp."""
    if not fx.any():
        raise ValueError("selection from a zero residual: solver should have terminated")
    with np.errstate(all="ignore"):
        w = sys._eval_row_norms(x)[0]
        a2 = fx * fx
        r2 = a2.sum()
        if not math.isfinite(r2):
            raise BreakdownError(f"||f||^2 = {r2}: the threshold is undefined")
        if w.all():
            ratio = a2 / w
        else:
            zero_grad = (w == 0.0) & (a2 > 0.0)
            if zero_grad.any():
                return BlockSelection(indices=np.flatnonzero(zero_grad).astype(np.intp),
                                      threshold=float("inf"))
            if not w.any():
                raise BreakdownError("all row gradients are zero")
            ratio = np.divide(a2, w, out=np.zeros_like(a2), where=w > 0.0)
        delta = 0.5 * (ratio.max() / r2 + 1.0 / w.sum())
        idx = np.flatnonzero((a2 >= delta * r2 * w) & (a2 > 0.0)).astype(np.intp)
        if idx.size == 0:
            raise BreakdownError("capped selection is empty")
        return BlockSelection(indices=idx, threshold=float(delta))


def _norms_system(w):
    """A system whose row_norms_sq hook returns ``w``; its dense Jacobian has
    the rows sqrt(w_i), so a non-finite hook result raises the dense
    path's DomainError."""
    m = len(w)
    J = lambda x: np.sqrt(w)[:, None]
    return NonlinearSystem(m, 1, lambda x: np.zeros(m), lambda i, x: J(x)[i],
                           row_norms_sq=lambda x: w.copy())


# residual entries: zeros, squares that underflow (1e-170) or overflow
# (1e200), and magnitudes of 1e+-150
_F = st.one_of(st.sampled_from([0.0, 1e-170, -1e-170, 1e-150, -1e150, 1e150, 1e200, 0.7]),
               st.floats(-1e3, 1e3))
# squared row norms: zeros, 1e+-150, non-finite values a hook may return
_W = st.one_of(st.sampled_from([0.0, 1e-150, 1e150, 1.0, math.nan, math.inf]),
               st.floats(0.0, 1e3))


@st.composite
def _rdcnk_cases(draw):
    m = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["any", "tied", "zero-norms", "zero-residual"]))
    if kind == "tied":  # equal ratios: the empty-set breakdown
        fx = np.full(m, draw(st.sampled_from([0.7, 0.1, 3.0, 1e-150])))
        w = np.full(m, draw(st.sampled_from([1.0, 0.3, 1e150])))
    else:
        fx = np.array(draw(st.lists(_F, min_size=m, max_size=m)))
        w = np.array(draw(st.lists(_W, min_size=m, max_size=m)))
        if kind == "zero-norms":
            w[:] = 0.0
        elif kind == "zero-residual":
            fx[:] = 0.0
    return fx, w


def _outcome(select, sys, x, fx):
    try:
        sel = select(sys, x, fx)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "index", None)
    return (sel.indices.dtype, sel.indices.tolist(), struct.pack("<d", sel.threshold))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(case=_rdcnk_cases())
def test_rdcnk_selection_matches_the_reference(case):
    fx, w = case
    sys = _norms_system(w)
    x = np.zeros(1)
    assert _outcome(select_rdcnk, sys, x, fx) == _outcome(_select_rdcnk_reference, sys, x, fx)


def test_rdcnk_selection_kinds_are_reached():
    # each outcome of the selection, from inputs of the kinds the parity
    # property above draws
    one = np.zeros(1)
    cases = [
        (np.array([0.0, 0.0]), np.array([1.0, 1.0]), ValueError),
        (np.array([1.0, 2.0]), np.array([1.0, math.nan]), DomainError),
        (np.array([1e200, 1.0]), np.array([1.0, 1.0]), BreakdownError),
        (np.array([1e-170, 0.0]), np.array([0.0, 0.0]), BreakdownError),  # all norms zero
        (np.array([1.0, 2.0]), np.array([0.0, 1.0]), None),  # zero-gradient row
        (np.full(3, 0.7), np.ones(3), BreakdownError),  # tied ratios
    ]
    for fx, w, raises in cases:
        outcome = _outcome(select_rdcnk, _norms_system(w), one, fx)
        assert outcome[0] is (raises or np.dtype(np.intp))


# -- greedy selections against their earlier form ---------------------------


_ZERO = "selection from a zero residual: solver should have terminated"


def _scaled_reference(fx):
    with np.errstate(all="ignore"):
        scale = np.abs(fx).max()
        w = fx / scale
        return scale, w * w


def _select_ngabk_reference(fx):
    """NGABK's selection as written before it used that the largest scaled
    square is 1.0: a full ``fx.any()`` and ``a2.max()`` on every call."""
    fx = np.asarray(fx, dtype=float)
    if not fx.any():
        raise ValueError(_ZERO)
    _, a2 = _scaled_reference(fx)
    with np.errstate(all="ignore"):
        r2 = a2.sum()
        delta = 0.5 * (a2.max() / r2 + 1.0 / len(fx))
        return BlockSelection(indices=np.flatnonzero(a2 >= delta * r2), threshold=float(delta))


def _select_mrnabk_reference(fx, rho):
    """MRNABK's selection as written before, in the same way."""
    fx = np.asarray(fx, dtype=float)
    if not fx.any():
        raise ValueError(_ZERO)
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    scale, a2 = _scaled_reference(fx)
    with np.errstate(all="ignore"):
        indices = np.flatnonzero(a2 >= rho * a2.max())
        return BlockSelection(indices=indices, threshold=float(rho * (scale * scale)))


# residual entries: zeros of either sign, the smallest subnormal, 1e+-200,
# non-finite values
_G = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e200, -1e200, 1e-200, -1e-200,
                                math.inf, -math.inf, math.nan, 1.0, -0.7]),
               st.floats(-1e3, 1e3))
_RHO = st.one_of(st.sampled_from([0.1, 1.0, 5e-324, 0.0, -0.5, 1.5, math.nan, math.inf, 1]),
                 st.floats(1e-6, 1.0))


@st.composite
def _greedy_cases(draw):
    m = draw(st.integers(1, 12))
    fx = np.array(draw(st.lists(_G, min_size=m, max_size=m)))
    if draw(st.sampled_from(["any", "any", "zero"])) == "zero":
        fx[:] = draw(st.sampled_from([0.0, -0.0]))
    return fx, draw(_RHO)


def _selected(select, *args):
    try:
        sel = select(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return (sel.indices.dtype, sel.indices.tolist(), struct.pack("<d", sel.threshold))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(case=_greedy_cases())
def test_greedy_selections_match_the_reference(case):
    fx, rho = case
    assert _selected(select_ngabk, fx) == _selected(_select_ngabk_reference, fx)
    assert _selected(select_mrnabk, fx, rho) == _selected(_select_mrnabk_reference, fx, rho)
