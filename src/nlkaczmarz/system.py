"""Problem-instance abstraction consumed by every solver.

A :class:`NonlinearSystem` packages the residual map f: R^n -> R^m together
with per-row gradient access (row i of the Jacobian).  Row gradients are
exposed individually because the block solvers only touch the selected
rows; a full-Jacobian view exists for the baselines and diagnostics that
genuinely need it, and its use is counted separately so per-iteration cost
differences stay visible.  Two structured views, the block vector-Jacobian
product and the row norms, let a problem with sparse rows serve the
averaged step and the capped selection without forming dense rows.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .exceptions import DomainError

FD_H_SCALE = float(np.sqrt(np.finfo(float).eps))


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
        Falls back to stacking single rows.
    jacobian
        Optional full Jacobian ``x -> (m, n) array``; falls back to
        ``gradient_rows(range(m), x)``.
    block_vjp
        Optional ``(indices, w, x) -> (n,) array`` returning
        ``w @ gradient_rows(indices, x)`` without forming the rows.
    row_norms_sq
        Optional ``x -> (m,) array`` of squared Jacobian row norms,
        without forming the Jacobian.
    known_solution
        Optional root, when analytically available.

    Instances are immutable apart from the evaluation counters, and all
    evaluation functions must be pure.
    """

    def __init__(
        self,
        m: int,
        n: int,
        residual: Callable[[np.ndarray], np.ndarray],
        row_gradient: Callable[[int, np.ndarray], np.ndarray],
        *,
        gradient_rows: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
        jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        block_vjp: Optional[Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = None,
        row_norms_sq: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        known_solution: Optional[np.ndarray] = None,
        name: str = "",
    ):
        if m < 1 or n < 1:
            raise ValueError(f"m and n must be positive, got m={m}, n={n}")
        self.m = int(m)
        self.n = int(n)
        self._residual = residual
        self._row_gradient = row_gradient
        self._gradient_rows = gradient_rows
        self._jacobian = jacobian
        self._block_vjp = block_vjp
        self._row_norms_sq = row_norms_sq
        self.known_solution = None if known_solution is None else np.asarray(known_solution, dtype=float)
        self.name = name
        self.counters = EvalCounters()

    # -- evaluation ------------------------------------------------------

    def residual(self, x: np.ndarray) -> np.ndarray:
        """Evaluate f(x). Raises DomainError on non-finite output."""
        x = self._check_point(x)
        self.counters.residual_evals += 1
        with np.errstate(all="ignore"):
            fx = np.asarray(self._residual(x), dtype=float)
            if fx.shape != (self.m,):
                raise ValueError(f"residual returned shape {fx.shape}, expected ({self.m},)")
            # a finite fx.dot(fx) rules out inf and nan; scan only when it is not
            if not (math.isfinite(fx.dot(fx)) or np.isfinite(fx).all()):
                i = int(np.flatnonzero(~np.isfinite(fx))[0])
                raise DomainError(f"non-finite residual component {i} at evaluation point", index=i)
        return fx

    def row_gradient(self, i: int, x: np.ndarray) -> np.ndarray:
        """Evaluate the i-th Jacobian row at x."""
        if not 0 <= i < self.m:
            raise IndexError(f"row index {i} out of range [0, {self.m})")
        x = self._check_point(x)
        self.counters.row_gradient_evals += 1
        with np.errstate(all="ignore"):
            g = np.asarray(self._row_gradient(i, x), dtype=float)
            if g.shape != (self.n,):
                raise ValueError(f"row_gradient returned shape {g.shape}, expected ({self.n},)")
            if not (math.isfinite(g.dot(g)) or np.isfinite(g).all()):
                raise DomainError(f"non-finite gradient in row {i}", index=i)
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
        if self._block_vjp is None:
            return w @ self.gradient_rows(indices, x)
        self.counters.row_gradient_evals += len(indices)
        with np.errstate(all="ignore"):
            v = np.asarray(self._block_vjp(indices, w, x), dtype=float)
        if v.shape != (self.n,):
            raise ValueError(f"block_vjp returned shape {v.shape}, expected ({self.n},)")
        if np.isfinite(v).all():
            return v
        # the dense rows raise gradient_rows' DomainError, with its row index
        return w @ self._rows(indices, x)

    def row_norms_sq(self, x: np.ndarray) -> np.ndarray:
        """Squared norm of every Jacobian row (counted as one full Jacobian)."""
        x = self._check_point(x)
        if self._row_norms_sq is None:
            J = self.jacobian(x)
        else:
            self.counters.jacobian_evals += 1
            with np.errstate(all="ignore"):
                w = np.asarray(self._row_norms_sq(x), dtype=float)
            if w.shape != (self.m,):
                raise ValueError(f"row_norms_sq returned shape {w.shape}, expected ({self.m},)")
            if np.isfinite(w).all():
                return w
            J = self._full_jacobian(x)  # raises jacobian's DomainError
        return np.einsum("ij,ij->i", J, J)

    def _rows(self, indices: np.ndarray, x: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            if self._gradient_rows is not None:
                G = np.asarray(self._gradient_rows(indices, x), dtype=float)
            else:
                G = np.stack([np.asarray(self._row_gradient(i, x), dtype=float) for i in indices])
        if not np.isfinite(G).all():
            i = int(indices[np.flatnonzero(~np.isfinite(G).all(axis=1))[0]])
            raise DomainError(f"non-finite gradient in row {i}", index=i)
        return G

    def _full_jacobian(self, x: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            if self._jacobian is not None:
                J = np.asarray(self._jacobian(x), dtype=float)
            elif self._gradient_rows is not None:
                J = np.asarray(self._gradient_rows(np.arange(self.m), x), dtype=float)
            else:
                J = np.stack([np.asarray(self._row_gradient(i, x), dtype=float) for i in range(self.m)])
        if J.shape != (self.m, self.n):
            raise ValueError(f"jacobian returned shape {J.shape}, expected ({self.m}, {self.n})")
        if not np.isfinite(J).all():
            raise DomainError("non-finite entry in Jacobian")
        return J

    def _check_rows(self, indices) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.intp)
        if indices.size and (indices.min() < 0 or indices.max() >= self.m):
            raise IndexError("row index out of range")
        return indices

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.n},)")
        return x


@dataclass
class IterateState:
    """Current iterate with its cached residual and iteration counter."""

    x: np.ndarray
    fx: np.ndarray
    k: int = 0

    @classmethod
    def at(cls, sys: NonlinearSystem, x: np.ndarray, k: int = 0) -> "IterateState":
        x = np.asarray(x, dtype=float)
        return cls(x=x, fx=sys.residual(x), k=k)


def fd_check(sys: NonlinearSystem, x: np.ndarray, h_scale: float = FD_H_SCALE) -> np.ndarray:
    """Per-row maximum relative deviation between analytic and central-difference Jacobian.

    Step per coordinate is ``h_j = h_scale * max(1, |x_j|)``.  Returns an
    (m,) array of deviations; callers decide thresholds.
    """
    x = np.asarray(x, dtype=float)
    n, m = sys.n, sys.m
    h = h_scale * np.maximum(1.0, np.abs(x))
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
