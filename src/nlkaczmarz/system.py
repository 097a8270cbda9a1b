"""Problem-instance abstraction consumed by every solver.

A :class:`NonlinearSystem` packages the residual map f: R^n -> R^m together
with per-row gradient access (row i of the Jacobian).  Row gradients are
exposed individually because the block solvers only touch the selected
rows; a full-Jacobian view exists for the baselines and diagnostics that
genuinely need it, and its use is counted separately so per-iteration cost
differences stay visible.  Two structured views, the block vector-Jacobian
product and the row norms, let a problem with sparse rows serve the
averaged step and the capped selection without forming dense rows.  One
more, the refresh after a single-row step, lets it recompute the residual
and the row norms on the rows that read the step's columns alone.

Every evaluation ignores NumPy's floating-point warnings: a non-finite
result is reported as a :class:`DomainError` instead.  Each public method
checks its arguments, enters its own ``np.errstate`` and checks what it
returns.  ``run()`` evaluates through a view that the system builds once per
solve (``NonlinearSystem._view``), under one ``np.errstate`` for the whole
solve.  The view counts as the public methods do and checks the shape of
every array a hook returns, but leaves each other check to the solver:
each evaluation is checked once, by the solver's own reduction of it
(||f||^2, ||grad f_i||^2, ||d||^2 of the block product, the sum of the row
norms), and a non-finite reduction takes the same :class:`DomainError` or
dense fallback as the public method's own check.  ``run()``'s points and
rows were checked where they were made and are not checked again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

from .exceptions import DomainError

FD_H_SCALE = float(np.sqrt(np.finfo(float).eps))


def _check_residual(fx: np.ndarray) -> None:
    """Raise the DomainError of fx's first non-finite component, if any."""
    bad = ~np.isfinite(fx)
    if bad.any():
        i = int(bad.nonzero()[0][0])
        raise DomainError(f"non-finite residual component {i} at evaluation point", index=i)


def _check_gradient(g: np.ndarray, i: int) -> None:
    """Raise the DomainError of row i when its gradient g is not finite."""
    if not np.isfinite(g).all():
        raise DomainError(f"non-finite gradient in row {i}", index=i)


def _check_row_norms(system: "NonlinearSystem", x: np.ndarray, w: np.ndarray) -> tuple:
    """(w, w's sum) for the row norms w at x, or, when an entry of w is not
    finite, the same for the dense Jacobian's norms, which raise jacobian's
    DomainError: the check that the solve's view of ``row_norms_sq`` skips."""
    s = np.add.reduce(w)
    # a finite sum rules out inf and nan; scan only when it is not
    if math.isfinite(s) or np.isfinite(w).all():
        return w, s
    w = system._dense_row_norms(x)
    return w, np.add.reduce(w)


def _shaped(what: str, value, shape: tuple) -> np.ndarray:
    """``value`` as a float array, which must have ``shape``."""
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ValueError(f"{what} has shape {value.shape}, expected {shape}")
    return value


@dataclass
class EvalCounters:
    """Tally of evaluation work done through a NonlinearSystem.

    ``row_gradient_evals`` counts individual rows; a full Jacobian counts
    once under ``jacobian_evals`` (not as m row evaluations), so the cost
    split between row-access methods and full-Jacobian methods is explicit.
    """

    residual_evals: int = 0
    row_gradient_evals: int = 0
    jacobian_evals: int = 0

    def reset(self) -> None:
        self.residual_evals = 0
        self.row_gradient_evals = 0
        self.jacobian_evals = 0


class NonlinearSystem:
    """Evaluatable nonlinear map with row-wise Jacobian access.

    Parameters
    ----------
    m, n
        Number of equations and unknowns.
    residual
        Callable ``f(x) -> (m,) array``.
    row_gradient
        Callable ``(i, x) -> (n,) array``, the i-th Jacobian row.
    gradient_rows
        Optional vectorized ``(indices, x) -> (len(indices), n) array``.
        Falls back to stacking single rows.  The full Jacobian is
        ``gradient_rows(range(m), x)``, whose DomainError names the row.
    block_vjp
        Optional ``(indices, w, x) -> (n,) array`` returning
        ``w @ gradient_rows(indices, x)`` without forming the rows.
    row_norms_sq
        Optional ``x -> (m,) array`` of squared Jacobian row norms,
        without forming the Jacobian.
    refresh_after_row
        Optional ``(i, x, fx, w) -> ((m,) array, (m,) array or None)``
        returning ``(residual(x), row_norms_sq(x))`` bit for bit, given the
        residual ``fx`` and the row norms ``w`` at a point that differs from
        ``x`` only in the columns of row i's gradient: only the rows that
        read those columns are recomputed, in one pass, and the rest are
        copied from ``fx`` and ``w``, which are not written.  The second
        item is None when ``w`` is None.
    known_solution
        Optional root, when analytically available.

    Instances are immutable apart from the evaluation counters, and all
    evaluation functions must be pure.  A problem may keep a cache keyed on
    the exact bytes of x, so that each evaluation is still a pure function
    of x.
    """

    # no full-Jacobian hook: read only by perfbench/spans.py's installed(),
    # which looks up the raw callable behind every traced method
    _jacobian = None

    def __init__(
        self,
        m: int,
        n: int,
        residual: Callable[[np.ndarray], np.ndarray],
        row_gradient: Callable[[int, np.ndarray], np.ndarray],
        *,
        gradient_rows: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
        block_vjp: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None,
        row_norms_sq: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        refresh_after_row: Optional[Callable[..., tuple]] = None,
        known_solution: Optional[np.ndarray] = None,
    ):
        if m < 1 or n < 1:
            raise ValueError(f"m and n must be positive, got m={m}, n={n}")
        self.m = int(m)
        self.n = int(n)
        self._residual = residual
        self._row_gradient = row_gradient
        self._gradient_rows = gradient_rows
        self._block_vjp = block_vjp
        self._row_norms_sq = row_norms_sq
        self._refresh_after_row = refresh_after_row
        self.known_solution = None if known_solution is None else np.asarray(known_solution, dtype=float)
        self.counters = EvalCounters()

    # -- evaluation ------------------------------------------------------

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Evaluate f(x). Raises DomainError on non-finite output."""
        x = self._check_point(x)
        with np.errstate(all="ignore"):
            fx = self._eval_residual(x)
            # a finite fx.dot(fx) rules out inf and nan; scan only when it is not
            if not math.isfinite(fx.dot(fx)):
                _check_residual(fx)
        return fx

    def refresh_after_row(self, i: int, x: np.ndarray, fx: np.ndarray,
                          w: Optional[np.ndarray] = None) -> tuple:
        """(f(x), the row norms at x or None when ``w`` is None), from the
        residual ``fx`` and the row norms ``w`` at a point that differs from
        x only in the columns of row i's gradient: the ``refresh_after_row``
        hook, or ``(residual(x), None)`` without one.  Counted, checked and
        silenced as ``residual`` and, with ``w``, ``row_norms_sq`` are."""
        if self._refresh_after_row is None:
            return self.residual(x), None
        if not 0 <= i < self.m:
            raise IndexError(f"row index {i} out of range [0, {self.m})")
        x = self._check_point(x)
        fx = _shaped("fx", fx, (self.m,))
        w = None if w is None else _shaped("w", w, (self.m,))
        with np.errstate(all="ignore"):
            fx, w = self._eval_refresh(i, x, fx, w)
            if not math.isfinite(fx.dot(fx)):
                _check_residual(fx)
            return fx, None if w is None else _check_row_norms(self, x, w)[0]

    def row_gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        """Evaluate the i-th Jacobian row at x. Raises DomainError on
        non-finite output."""
        if not 0 <= i < self.m:
            raise IndexError(f"row index {i} out of range [0, {self.m})")
        x = self._check_point(x)
        with np.errstate(all="ignore"):
            g = self._eval_row_gradient(i, x)
            if not math.isfinite(g.dot(g)):
                _check_gradient(g, i)
        return g

    def gradient_rows(self, indices: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Stack the Jacobian rows listed in ``indices`` at x."""
        indices = self._check_rows(indices)
        x = self._check_point(x)
        self.counters.row_gradient_evals += len(indices)
        return self._rows(indices, x)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the full Jacobian (counted as one full evaluation)."""
        x = self._check_point(x)
        self.counters.jacobian_evals += 1
        return self._full_jacobian(x)

    def block_vjp(self, indices: np.ndarray, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``w @ gradient_rows(indices, x)``: the transposed block Jacobian
        applied to ``w``, counted as ``len(indices)`` row gradients."""
        indices = self._check_rows(indices)
        x = self._check_point(x)
        w = np.asarray(w, dtype=float)
        if w.shape != indices.shape:
            raise ValueError(f"weights have shape {w.shape}, expected {indices.shape}")
        with np.errstate(all="ignore"):
            v = self._eval_block_vjp(indices, w, x)
        if self._block_vjp is None or np.isfinite(v).all():
            return v
        return self._dense_vjp(indices, w, x)

    def row_norms_sq(self, x: np.ndarray) -> np.ndarray:
        """Squared norm of every Jacobian row (counted as one full Jacobian)."""
        x = self._check_point(x)
        with np.errstate(all="ignore"):
            return _check_row_norms(self, x, self._eval_row_norms(x))[0]

    # -- the evaluations of one solve --------------------------------------

    def _view(self) -> SimpleNamespace:
        """The evaluations that ``run()`` makes in one solve, inside its own
        ``np.errstate``: ``m``, ``n`` and each evaluation method under its
        public name.  Five are the ``_eval_*`` methods that the public ones
        call once their arguments are checked: each counts its call and
        checks the shape of what its hook returns, and nothing more, since
        ``run()`` passes the points and rows it made and checked and checks
        each result by its own reduction of it.  ``gradient_rows``,
        ``jacobian`` and the dense fallbacks are the system's own, looked up
        now, so that a wrapper set on the instance is the one called."""
        return SimpleNamespace(
            m=self.m, n=self.n, residual=self._eval_residual,
            refresh_after_row=self._eval_refresh, row_gradient=self._eval_row_gradient,
            gradient_rows=self.gradient_rows, jacobian=self.jacobian,
            block_vjp=self._eval_block_vjp, row_norms_sq=self._eval_row_norms,
            _dense_vjp=self._dense_vjp, _dense_row_norms=self._dense_row_norms)

    def _eval_residual(self, x):
        self.counters.residual_evals += 1
        return _shaped("residual", self._residual(x), (self.m,))

    def _eval_refresh(self, i, x, fx, w=None):
        if self._refresh_after_row is None:
            return self._eval_residual(x), None
        self.counters.residual_evals += 1
        if w is not None:
            self.counters.jacobian_evals += 1
        fx, v = self._refresh_after_row(i, x, fx, w)
        return (_shaped("refresh_after_row", fx, (self.m,)),
                None if w is None else _shaped("refresh_after_row", v, (self.m,)))

    def _eval_row_gradient(self, i, x):
        self.counters.row_gradient_evals += 1
        return _shaped("row_gradient", self._row_gradient(i, x), (self.n,))

    def _eval_block_vjp(self, indices, w, x):
        self.counters.row_gradient_evals += len(indices)
        if self._block_vjp is None:
            return self._dense_vjp(indices, w, x)
        return _shaped("block_vjp", self._block_vjp(indices, w, x), (self.n,))

    def _eval_row_norms(self, x):
        self.counters.jacobian_evals += 1
        if self._row_norms_sq is None:
            return self._dense_row_norms(x)
        return _shaped("row_norms_sq", self._row_norms_sq(x), (self.m,))

    def _dense_vjp(self, indices: np.ndarray, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``w @ gradient_rows(indices, x)`` from the dense rows, uncounted: the
        product without a hook, or in place of a non-finite one, whose
        DomainError (with its row index) is gradient_rows'."""
        return w @ self._rows(indices, x)

    def _dense_row_norms(self, x: np.ndarray) -> np.ndarray:
        """The row norms from the dense Jacobian, uncounted: the norms without
        a hook, or in place of a non-finite one, whose DomainError (with its
        row index) is gradient_rows'."""
        J = self._full_jacobian(x)
        return np.einsum("ij,ij->i", J, J)

    def _rows(self, indices: np.ndarray, x: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            if self._gradient_rows is not None:
                G = self._gradient_rows(indices, x)
            else:
                G = np.stack([self._row_gradient(i, x) for i in indices])
            G = _shaped("gradient_rows", G, (len(indices), self.n))
        if not np.isfinite(G).all():
            i = int(indices[np.flatnonzero(~np.isfinite(G).all(axis=1))[0]])
            raise DomainError(f"non-finite gradient in row {i}", index=i)
        return G

    def _full_jacobian(self, x: np.ndarray) -> np.ndarray:
        return self._rows(np.arange(self.m), x)

    def _check_rows(self, indices) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size and (indices.min() < 0 or indices.max() >= self.m):
            raise IndexError("row index out of range")
        return indices

    def _check_point(self, x) -> np.ndarray:
        return _shaped("point", x, (self.n,))


def fd_check(sys: NonlinearSystem, x: np.ndarray) -> np.ndarray:
    """Per-row maximum relative deviation between analytic and central-difference Jacobian.

    Step per coordinate is ``h_j = FD_H_SCALE * max(1, |x_j|)``.  Returns an
    (m,) array of deviations; callers decide thresholds.
    """
    x = np.asarray(x, dtype=float)
    n, m = sys.n, sys.m
    h = FD_H_SCALE * np.maximum(1.0, np.abs(x))
    J_num = np.empty((m, n))
    for j in range(n):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h[j]
        xm[j] -= h[j]
        J_num[:, j] = (sys.residual(xp) - sys.residual(xm)) / (2.0 * h[j])
    J_ana = sys.jacobian(x)
    scale = np.maximum(1.0, np.abs(J_ana).max(axis=1))
    return np.abs(J_ana - J_num).max(axis=1) / scale
