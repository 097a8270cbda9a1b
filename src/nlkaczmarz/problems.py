"""The four benchmark problem families, with analytic Jacobian rows.

Each maker returns a :class:`NonlinearSystem` with vectorized row-block
gradient access.  The problems with sparse rows (Brown, Broyden,
overdetermined) also supply the block vector-Jacobian product and the row
norms, computed from the nonzeros alone with index arithmetic and
``np.bincount``.  The dense H-equation supplies the block product from one
gather of its kernel rows, without forming the gradient rows, and keeps the
dense default for the row norms.
``get_problem`` adds the conventional initial point and a per-coordinate
sampling box used for finite-difference validation and cone-constant
estimation.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .system import NonlinearSystem


def make_h_equation(N: int, c: float = 0.9) -> NonlinearSystem:
    """Discretized Chandrasekhar H-equation with N collocation points.

    F_i(x) = x_i - (1 - (c/2N) * sum_j mu_i x_j / (mu_i + mu_j))^-1,
    mu_i = (i - 1/2)/N.  Requires 0 < c < 1; the denominator hitting zero
    raises DomainError through the evaluation layer.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0, 1)")
    mu = (np.arange(1, N + 1) - 0.5) / N
    K = mu[:, None] / (mu[:, None] + mu[None, :])
    coef = c / (2.0 * N)

    def residual(x):
        s = coef * (K @ x)
        return x - 1.0 / (1.0 - s)

    def row_gradient(i, x):
        s_i = coef * (K[i] @ x)
        g = -((1.0 - s_i) ** -2) * coef * K[i]
        g[i] += 1.0
        return g

    def _row_scale(Kt, x):
        # row i of the Jacobian is a_i K_i + e_i, with a_i = -coef (1 - s_i)^-2
        return -((1.0 - coef * (Kt @ x)) ** -2) * coef

    def gradient_rows(idx, x):
        Kt = K[idx]
        G = _row_scale(Kt, x)[:, None] * Kt
        G[np.arange(len(idx)), idx] += 1.0
        return G

    def block_vjp(idx, w, x):
        # sum_i w_i (a_i K_i + e_i), from one gather of the rows of K
        Kt = K[idx]
        return np.bincount(idx, w, minlength=N) + (w * _row_scale(Kt, x)) @ Kt

    return NonlinearSystem(N, N, residual, row_gradient, gradient_rows=gradient_rows,
                           block_vjp=block_vjp, name=f"h-equation(N={N}, c={c})")


def make_brown(n: int) -> NonlinearSystem:
    """Brown almost linear system: n-1 affine rows plus one product row.

    f_k = x_k + sum(x) - (n+1) for k < n;  f_n = prod(x) - 1.
    Root at the all-ones vector.
    """
    if n < 2:
        raise ValueError("n must be >= 2")

    def residual(x):
        out = np.empty(n)
        out[: n - 1] = x[: n - 1] + x.sum() - (n + 1)
        out[n - 1] = np.prod(x) - 1.0
        return out

    def _product_row(x):
        # prod over all i != j, robust at zero entries
        zeros = np.flatnonzero(x == 0.0)
        if zeros.size == 0:
            return np.prod(x) / x
        g = np.zeros(n)
        if zeros.size == 1:
            j = zeros[0]
            g[j] = np.prod(np.delete(x, j))
        return g

    def row_gradient(i, x):
        if i < n - 1:
            g = np.ones(n)
            g[i] += 1.0
            return g
        return _product_row(x)

    def gradient_rows(idx, x):
        G = np.ones((len(idx), n))
        for r, i in enumerate(idx):
            if i < n - 1:
                G[r, i] += 1.0
            else:
                G[r] = _product_row(x)
        return G

    def jacobian(x):
        J = np.ones((n, n)) + np.eye(n)
        J[n - 1] = _product_row(x)
        return J

    def block_vjp(idx, w, x):
        # affine row k is ones + e_k; the product row is dense
        affine = idx < n - 1
        v = np.bincount(idx[affine], w[affine], minlength=n) + w[affine].sum()
        if not affine.all():
            v += w[~affine].sum() * _product_row(x)
        return v

    def row_norms_sq(x):
        out = np.full(n, n + 3.0)
        p = _product_row(x)
        out[n - 1] = p @ p
        return out

    return NonlinearSystem(n, n, residual, row_gradient,
                           gradient_rows=gradient_rows, jacobian=jacobian,
                           block_vjp=block_vjp, row_norms_sq=row_norms_sq,
                           known_solution=np.ones(n), name=f"brown(n={n})")


def make_singular_broyden(n: int) -> NonlinearSystem:
    """Squared Broyden tridiagonal system; Jacobian singular at the solution.

    f_k = g_k^2 with g_k = (3 - 2 x_k) x_k - x_{k-1} - 2 x_{k+1} + 1
    (boundary terms dropped at k = 1 and k = n).  Every row gradient
    2 g_k grad(g_k) vanishes wherever g_k = 0.
    """
    if n < 2:
        raise ValueError("n must be >= 2")

    def _g(x):
        out = (3.0 - 2.0 * x) * x + 1.0
        out[1:] -= x[:-1]
        out[:-1] -= 2.0 * x[1:]
        return out

    def residual(x):
        return _g(x) ** 2

    def row_gradient(i, x):
        gi = (3.0 - 2.0 * x[i]) * x[i] + 1.0
        if i > 0:
            gi -= x[i - 1]
        if i < n - 1:
            gi -= 2.0 * x[i + 1]
        grad = np.zeros(n)
        grad[i] = 3.0 - 4.0 * x[i]
        if i > 0:
            grad[i - 1] = -1.0
        if i < n - 1:
            grad[i + 1] = -2.0
        return 2.0 * gi * grad

    def gradient_rows(idx, x):
        g = _g(x)
        G = np.zeros((len(idx), n))
        r = np.arange(len(idx))
        G[r, idx] = 3.0 - 4.0 * x[idx]
        left = idx > 0
        G[r[left], idx[left] - 1] = -1.0
        right = idx < n - 1
        G[r[right], idx[right] + 1] = -2.0
        return 2.0 * g[idx][:, None] * G

    def block_vjp(idx, w, x):
        # row k holds s_k * (-1, 3 - 4 x_k, -2) in columns k-1, k, k+1, with
        # s_k = 2 g_k.  Columns are shifted by one so the boundary terms land
        # in two discarded pad slots; listing the right, centre and left
        # terms in that order sums each column in row order (sorted idx).
        s = 2.0 * _g(x)[idx]
        ws = w * s
        vals = np.concatenate((-2.0 * ws, w * (s * (3.0 - 4.0 * x[idx])), -ws))
        cols = np.concatenate((idx + 2, idx + 1, idx))
        return np.bincount(cols, vals, minlength=n + 2)[1:-1]

    def row_norms_sq(x):
        s = 2.0 * _g(x)
        out = (s * (3.0 - 4.0 * x)) ** 2
        out[1:] += s[1:] ** 2
        out[:-1] += (2.0 * s[:-1]) ** 2
        return out

    return NonlinearSystem(n, n, residual, row_gradient, gradient_rows=gradient_rows,
                           block_vjp=block_vjp, row_norms_sq=row_norms_sq,
                           name=f"broyden(n={n})")


def make_overdetermined_rational(n: int, squared_denominator: bool = False) -> NonlinearSystem:
    """Overdetermined rational system with m = 2(n-1) equations.

    Equation pair for each i in 1..n-1 (odd/even rows):
        f_odd  = 10 * (2 x_i / (1 + x_i^2) - x_{i+1})
        f_even = x_i - 1
    with root at the all-ones vector.  ``squared_denominator=True`` switches
    the odd rows to 2 x_i / (1 + x_i^2)^2, a variant with no exact root
    (the even rows force x_i = 1 but the odd rows then demand
    x_{i+1} = 0.5); it is kept for comparison runs only.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    m = 2 * (n - 1)

    def residual(x):
        xi = x[: n - 1]
        den = (1.0 + xi**2) ** 2 if squared_denominator else (1.0 + xi**2)
        out = np.empty(m)
        out[0::2] = 10.0 * (2.0 * xi / den - x[1:])
        out[1::2] = xi - 1.0
        return out

    def _rational_deriv(xi):
        if squared_denominator:
            return (2.0 - 6.0 * xi**2) / (1.0 + xi**2) ** 3
        return (2.0 - 2.0 * xi**2) / (1.0 + xi**2) ** 2

    def row_gradient(k, x):
        i = k // 2
        g = np.zeros(n)
        if k % 2 == 0:
            g[i] = 10.0 * _rational_deriv(x[i])
            g[i + 1] = -10.0
        else:
            g[i] = 1.0
        return g

    def gradient_rows(idx, x):
        G = np.zeros((len(idx), n))
        i = idx // 2
        odd = idx % 2 == 0
        r = np.arange(len(idx))
        G[r[odd], i[odd]] = 10.0 * _rational_deriv(x[i[odd]])
        G[r[odd], i[odd] + 1] = -10.0
        G[r[~odd], i[~odd]] = 1.0
        return G

    def block_vjp(idx, w, x):
        # row 2i holds (10 r'(x_i), -10) in columns i, i+1 and row 2i+1 holds
        # 1 in column i; listed so each column sums in row order (sorted idx)
        i = idx // 2
        odd = idx % 2 == 0
        io, wo = i[odd], w[odd]
        vals = np.concatenate((wo * -10.0, wo * (10.0 * _rational_deriv(x[io])), w[~odd]))
        cols = np.concatenate((io + 1, io, i[~odd]))
        return np.bincount(cols, vals, minlength=n)

    def row_norms_sq(x):
        a = 10.0 * _rational_deriv(x[: n - 1])
        out = np.ones(m)
        out[0::2] = a * a + 100.0
        return out

    known = None if squared_denominator else np.ones(n)
    return NonlinearSystem(m, n, residual, row_gradient, gradient_rows=gradient_rows,
                           block_vjp=block_vjp, row_norms_sq=row_norms_sq,
                           known_solution=known, name=f"overdetermined(n={n})")


@dataclass
class Problem:
    """A registered problem instance with its conventional starting point."""

    name: str
    system: NonlinearSystem
    x0: np.ndarray
    sample_box: np.ndarray  # (n, 2) per-coordinate [lo, hi]
    params: Dict[str, float] = field(default_factory=dict)


def _box(n: int, lo: float, hi: float) -> np.ndarray:
    return np.tile([lo, hi], (n, 1)).astype(float)


PROBLEM_NAMES = ("h-equation", "brown", "broyden", "overdetermined")


def get_problem(name: str, n: int, params: Optional[Dict[str, float]] = None) -> Problem:
    """Build a registered problem by name with its default initial point."""
    params = dict(params or {})
    if name == "h-equation":
        c = float(params.pop("c", 0.9))
        sys = make_h_equation(n, c)
        x0 = np.zeros(n)
        box = _box(n, 0.0, 1.0)
        used = {"c": c}
    elif name == "brown":
        sys = make_brown(n)
        x0 = 0.5 * np.ones(n)
        box = _box(n, 0.25, 1.5)
        used = {}
    elif name == "broyden":
        sys = make_singular_broyden(n)
        x0 = -0.5 * np.ones(n)
        box = _box(n, -1.0, 0.0)
        used = {}
    elif name == "overdetermined":
        squared = bool(params.pop("squared_denominator", False))
        sys = make_overdetermined_rational(n, squared_denominator=squared)
        x0 = np.zeros(n)
        box = _box(n, -0.5, 1.5)
        used = {"squared_denominator": float(squared)}
    else:
        raise KeyError(f"unknown problem {name!r}; known: {PROBLEM_NAMES}")
    if params:
        raise KeyError(f"unknown parameters for {name}: {sorted(params)}")
    return Problem(name=name, system=sys, x0=x0, sample_box=box, params=used)
