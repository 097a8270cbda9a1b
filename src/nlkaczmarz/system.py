"""Problem-instance abstraction consumed by every solver.

A :class:`NonlinearSystem` packages the residual map f: R^n -> R^m together
with per-row gradient access (row i of the Jacobian).  Row gradients are
exposed individually because the block solvers only touch the selected
rows; a full-Jacobian view exists for the baselines and diagnostics that
genuinely need it, and its use is counted separately so per-iteration cost
differences stay visible.  Three optional hooks, the block vector-Jacobian
product, the row norms and the refresh after a single-row step, let a
problem with sparse rows serve the solvers without forming dense rows; the
solvers alone read them, through the ``_eval_*`` methods.

Every evaluation ignores NumPy's floating-point warnings: a non-finite
result is reported as a :class:`DomainError` instead.  Each evaluation is
one ``_eval_*`` method, which counts the call, checks the shape of what the
hook returns and checks that it is finite, by the sum the solver needs
anyway: (f, ||f||^2), (grad f_i, ||grad f_i||^2), (J_tau^T w, its squared
norm) and (the row norms, their sum).  Only a sum that is not finite scans
for the bad entry; ``_eval_rows``, whose rows come with no sum, scans them
all.  A non-finite block product or row norms from a hook are replaced by
the dense rows', whose DomainError names the row.  No ``_eval_*`` method
enters an ``np.errstate``.  The public ``residual``, ``row_gradient``,
``gradient_rows`` and ``jacobian`` check their arguments and make one
evaluation inside their own ``np.errstate``, returning the value alone.
``run()``'s steps call the ``_eval_*`` methods themselves, under one
``np.errstate`` for the whole solve, and pass them points and rows that
``run()`` has already checked.  Newton's step alone calls a public method,
``jacobian``, looked up on each call, so that a wrapper set on the instance
still sees it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import DomainError

FD_H_SCALE = float(np.sqrt(np.finfo(float).eps))


def _finite_residual(fx: np.ndarray) -> tuple:
    """(fx, ||fx||^2), or the DomainError of fx's first non-finite component."""
    r2 = float(fx.dot(fx))
    # a finite sum rules out inf and nan; scan only when it is not
    if not math.isfinite(r2):
        bad = ~np.isfinite(fx)
        if bad.any():
            i = int(bad.nonzero()[0][0])
            raise DomainError(f"non-finite residual component {i} at evaluation point", index=i)
    return fx, r2


def _is_int(value) -> bool:
    """Whether value is a Python or NumPy integer other than a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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
        returning f(x) and the squared row norms at x bit for bit, given the
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
        if not (_is_int(m) and _is_int(n) and m >= 1 and n >= 1):
            raise ValueError(f"m and n must be positive integers, got m={m!r}, n={n!r}")
        self.m = int(m)
        self.n = int(n)
        self._residual = residual
        self._row_gradient = row_gradient
        self._gradient_rows = gradient_rows
        self._block_vjp = block_vjp
        self._row_norms_sq = row_norms_sq
        self._refresh_after_row = refresh_after_row
        self.known_solution = (None if known_solution is None
                               else _shaped("known_solution", known_solution, (self.n,)))
        self.counters = EvalCounters()

    # -- evaluation ------------------------------------------------------

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Evaluate f(x). Raises DomainError on non-finite output."""
        x = self._point(x)
        with np.errstate(all="ignore"):
            return self._eval_residual(x)[0]

    def row_gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        """Evaluate the i-th Jacobian row at x. Raises DomainError on
        non-finite output."""
        if not (_is_int(i) and 0 <= i < self.m):
            raise IndexError(f"row index must be an integer in [0, {self.m}), got {i!r}")
        x = self._point(x)
        with np.errstate(all="ignore"):
            return self._eval_row_gradient(i, x)[0]

    def gradient_rows(self, indices: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Stack the Jacobian rows listed in ``indices`` at x."""
        indices = self._check_rows(indices)
        x = self._point(x)
        with np.errstate(all="ignore"):
            return self._eval_rows(indices, x)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the full Jacobian (counted as one full evaluation)."""
        x = self._point(x)
        self.counters.jacobian_evals += 1
        with np.errstate(all="ignore"):
            return self._full_jacobian(x)

    # -- the checked evaluations -------------------------------------------

    def _eval_residual(self, x):
        """(f(x), ||f(x)||^2), counted."""
        self.counters.residual_evals += 1
        return _finite_residual(_shaped("residual", self._residual(x), (self.m,)))

    def _eval_refresh(self, i, x, fx, w=None):
        """((f(x), ||f(x)||^2), (the row norms at x, their sum) or None when
        ``w`` is None), counted and checked as ``_eval_residual`` and
        ``_eval_row_norms`` are."""
        if self._refresh_after_row is None:
            return self._eval_residual(x), None
        self.counters.residual_evals += 1
        if w is not None:
            self.counters.jacobian_evals += 1
        fx, v = self._refresh_after_row(i, x, fx, w)
        fx = _shaped("refresh_after_row", fx, (self.m,))
        v = None if w is None else _shaped("refresh_after_row", v, (self.m,))
        return _finite_residual(fx), None if v is None else self._norms(x, v)

    def _eval_row_gradient(self, i, x):
        """(grad f_i(x), its squared norm), counted as one row gradient."""
        self.counters.row_gradient_evals += 1
        g = _shaped("row_gradient", self._row_gradient(i, x), (self.n,))
        g2 = g.dot(g)
        # a finite sum rules out inf and nan; scan only when it is not
        if not math.isfinite(g2) and not np.isfinite(g).all():
            raise DomainError(f"non-finite gradient in row {i}", index=i)
        return g, g2

    def _eval_rows(self, indices, x):
        """The Jacobian rows ``indices`` at x, counted as ``len(indices)``
        row gradients and checked as ``_rows`` checks them."""
        self.counters.row_gradient_evals += len(indices)
        return self._rows(indices, x)

    def _eval_block_vjp(self, indices, w, x):
        """(``w @ gradient_rows(indices, x)``, its squared norm), counted as
        ``len(indices)`` row gradients.  A hook's product with an entry that
        is not finite is replaced by the dense rows', uncounted, whose
        DomainError names the row."""
        self.counters.row_gradient_evals += len(indices)
        if self._block_vjp is not None:
            v = _shaped("block_vjp", self._block_vjp(indices, w, x), (self.n,))
            v2 = v.dot(v)
            if math.isfinite(v2) or np.isfinite(v).all():
                return v, v2
        v = w.dot(self._rows(indices, x))
        return v, v.dot(v)

    def _eval_row_norms(self, x):
        """(the squared norm of every row, their sum), counted as one full
        Jacobian, and checked as ``_norms`` checks them."""
        self.counters.jacobian_evals += 1
        if self._row_norms_sq is None:
            return self._norms(x, None)
        return self._norms(x, _shaped("row_norms_sq", self._row_norms_sq(x), (self.m,)))

    def _norms(self, x, w):
        """(w, w's sum) for the row norms w at x, or, when w is None or has
        an entry that is not finite, the same for the dense rows' norms,
        uncounted, whose DomainError names the row."""
        if w is not None:
            s = np.add.reduce(w)
            if math.isfinite(s) or np.isfinite(w).all():
                return w, s
        J = self._full_jacobian(x)
        w = np.einsum("ij,ij->i", J, J)
        return w, np.add.reduce(w)

    def _rows(self, indices: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The rows ``indices`` at x, uncounted, of the shape (len(indices), n),
        or the DomainError of the first row that is not finite."""
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
        """indices as a 1-D np.intp array of rows of the system.  An array of
        another shape or kind, such as floats or a boolean mask, raises
        IndexError, where a cast would read other rows; an empty list, whose
        array is float, is no rows."""
        indices = np.asarray(indices)
        if indices.ndim != 1 or (indices.dtype.kind not in "iu" and indices.size):
            raise IndexError(f"row indices must be a 1-D integer array, got "
                             f"{indices.ndim}-D {indices.dtype}")
        indices = indices.astype(np.intp, copy=False)
        if indices.size and (indices.min() < 0 or indices.max() >= self.m):
            raise IndexError("row index out of range")
        return indices

    def _point(self, x) -> np.ndarray:
        """x as a float array of shape (n,), the point every public method checks."""
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
