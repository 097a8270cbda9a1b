"""The four benchmark problem families, with analytic Jacobian rows.

Each maker returns a :class:`NonlinearSystem` with vectorized row-block
gradient access.  The problems with sparse rows (Brown, Broyden,
overdetermined) also supply the block vector-Jacobian product and the row
norms, computed from the nonzeros alone with index arithmetic and
``np.bincount``.  The dense H-equation supplies the block product without
forming the gradient rows, and the row norms in closed form from one product
K x and the kernel's row norms, which are suffix sums of h_k^2 = 1/(k + 1)^2
computed with the system.  Its products with the kernel over all rows, in
the residual, the row norms and the block product, go through a rank-r
factor of the kernel's Hankel part from N = ``LOWRANK_MIN_N`` on, in O(N r),
and are dense below.  From ``LOWRANK_MIN_N`` on the three share the last
product K x, kept with the bytes of its x, so an averaged step reads the
K x_k that the residual at x_k computed, and no N x N array exists: a
gradient row is computed when it is read, so a method takes O(N r) memory
besides the rows it reads.  Broyden and the overdetermined system, whose
rows read at most three neighbouring columns, also refresh the residual and
the row norms after a single-row step in one pass over the rows that read
that row's columns, and state each row's formula once, so that a row has the
same bits whichever method reads it: Broyden's block rows are its single-row
formula per row, and the overdetermined system's r'(x_i) is one function,
which squares by products on arrays and Python floats alike.  Brown's rows
agree bitwise too; the H-equation's single row (a dot product) and block rows
(a matrix-vector product) agree only to rounding.
``get_problem`` adds the conventional initial point and a per-coordinate
sampling box used for finite-difference validation and cone-constant
estimation.  Products on a solve's path call ``ndarray.dot``, not ``@``,
which goes through NumPy's matmul ufunc for the same BLAS routine and bits
at 0.2-0.8 us more per call (``timeit`` minima on 91d5854, NumPy 2.4.6, one
BLAS thread, a 2-vCPU x86-64 VM: K_i x 1.19 -> 0.73 us, K x at N = 50
1.94 -> 1.14 us, F y at N = 500 2.15 -> 1.65 us).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .system import NonlinearSystem


# the H-equation size from which a product with the kernel over all its rows
# goes through the low-rank factor of its Hankel part instead of the dense
# K @ y (make_h_equation): the first measured size at which NGABK's and
# MRNABK's steps were the faster with the factor in most of 40 alternated
# solves each, on a 2-vCPU x86-64 VM with one BLAS thread (at N = 150 and
# 175 they tied near 40 us per step, at N = 200 the factor won 30 and 38)
LOWRANK_MIN_N = 200

# the largest diagonal entry of H - F^T F at which _hankel_factor stops.  It
# moves (K y)_p by at most (p + 1/2) LOWRANK_TOL ||y||_1, at most half the
# bound N eps (|K| |y|)_p on the dense product's rounding, as every
# K_pq >= (p + 1/2)/(2N)
LOWRANK_TOL = np.finfo(float).eps / 4


def _hankel_factor(N: int) -> np.ndarray:
    """F, r x N, with H = F^T F within LOWRANK_TOL in every entry, where
    H_pq = h_{p+q}, h_k = 1/(k + 1), is the Hankel part of the H-equation's
    kernel.

    Diagonal-pivoted Cholesky (Harbrecht, Peters & Schneider, Appl. Numer.
    Math. 62, 2012) on the columns h[j:j + N] of H, which it never forms:
    each step takes the largest diagonal entry of H - F^T F as its pivot,
    and it stops once that entry is at most LOWRANK_TOL, which then bounds
    every entry, since H - F^T F is positive semidefinite.  H's singular
    values decay geometrically (Beckermann & Townsend, SIAM J. Matrix Anal.
    Appl. 38, 2017), so r grows as log N: 23 at N = 200, 26 at 500, 31 at
    2000 and 43 at 100 000.
    """
    h = 1.0 / np.arange(1.0, 2 * N)
    d = h[::2].copy()  # the diagonal of H - F^T F
    # room for 64 rows, more than r up to N ~ 1e8 (r gains about 2 each time N
    # doubles); only the rows written take up memory, as the untouched pages
    # of a large allocation are not resident
    F = np.empty((min(N, 64), N))
    r = 0
    for _ in range(N):
        j = int(np.argmax(d))
        if d[j] <= LOWRANK_TOL:
            break
        if r == len(F):
            F = np.concatenate((F, np.empty_like(F)))
        f = F[r]
        np.subtract(h[j:j + N], F[:r, j] @ F[:r], out=f)
        f /= np.sqrt(d[j])
        d -= f * f
        r += 1
    return F[:r]


def make_h_equation(N: int, c: float = 0.9) -> NonlinearSystem:
    """Discretized Chandrasekhar H-equation with N collocation points.

    F_i(x) = x_i - (1 - (c/2N) * sum_j mu_i x_j / (mu_i + mu_j))^-1,
    mu_i = (i - 1/2)/N.  Requires 0 < c < 1; the denominator hitting zero
    raises DomainError through the evaluation layer.

    The kernel K_pq = mu_p / (mu_p + mu_q) = (p + 1/2) / (p + q + 1) is a
    diagonal times a Hankel matrix H.  From N = ``LOWRANK_MIN_N`` on, the
    residual, the row norms and the block product multiply by it over all
    rows through a factor F, r x N with r from 23 at N = 200 to 43 at 100 000,
    whose F^T F matches H within ``LOWRANK_TOL`` in every entry
    (``_hankel_factor``), in O(N r) time and memory.  That product is kept,
    read-only, with the bytes of its input until the next different input,
    so the three evaluations at one point compute it once.

    Below ``LOWRANK_MIN_N``, K is built with the system and the gradient rows
    are its rows.  From it on, no N x N array exists: a gradient row computes
    the kernel's row alone, bitwise the entries of the dense K.  The norms of
    the Jacobian's rows a_i K_i + e_i are a_i^2 ||K_i||^2 + a_i + 1 for every
    N, as K_ii = 1/2 exactly, with
    ||K_i||^2 = (i + 1/2)^2 (tail_i - tail_{i+N}) from the suffix sums
    tail_k = sum_{j >= k} h_j^2, computed once with the system.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0, 1)")
    mu = (np.arange(1, N + 1) - 0.5) / N
    coef = c / (2.0 * N)
    half = np.arange(N) + 0.5
    # ||K_i||^2 = (i + 1/2)^2 sum_q h_{i+q}^2, h_k = 1/(k + 1), from the suffix
    # sums tail[k] = sum_{j >= k} h_j^2 over j < 2N - 1, added from the smallest
    h_sq = 1.0 / np.arange(2.0 * N - 1.0, 0.0, -1.0) ** 2
    tail = np.append(np.cumsum(h_sq)[::-1], 0.0)
    K_norms_sq = half * half * (tail[:N] - tail[N:])

    if N < LOWRANK_MIN_N:
        # built in place: no second N x N temporary for the denominators
        K = np.add.outer(mu, mu)
        np.divide(mu[:, None], K, out=K)

        def rows(idx):
            return K[idx]

        def kernel_product(y):
            return K.dot(y)
    else:
        # K = diag(p + 1/2) H with H = F^T F
        F = _hankel_factor(N)

        def rows(idx):
            # the dense build's two operations per entry, on the rows read alone
            m = mu[idx, None]
            return m / (m + mu)

        # the last (y.tobytes(), K y), so that the residual at x_k and the
        # next step's block product share K x_k.  Equal bytes are an equal
        # point (-0.0 and +0.0 differ), and a thread reads the tuple once, so
        # its key and product always match.
        last = (None, None)

        def kernel_product(y):
            nonlocal last
            key = y.tobytes()
            seen, ky = last
            if key != seen:
                ky = half * F.T.dot(F.dot(y))
                ky.flags.writeable = False
                last = (key, ky)
            return ky

    def residual(x):
        s = coef * kernel_product(x)
        return x - 1.0 / (1.0 - s)

    def _row_scale(kx):
        # row i of the Jacobian is a_i K_i + e_i, with a_i = -coef (1 - s_i)^-2
        # and s_i = coef (K x)_i
        return (1.0 - coef * kx) ** -2 * -coef

    def row_gradient(i, x):
        K_i = rows(i)
        g = _row_scale(K_i.dot(x)) * K_i
        g[i] += 1.0
        return g

    def gradient_rows(idx, x):
        Kt = rows(idx)
        G = _row_scale(Kt.dot(x))[:, None] * Kt
        G[np.arange(len(idx)), idx] += 1.0
        return G

    def block_vjp(idx, w, x):
        # sum_i w_i (a_i K_i + e_i)
        v = np.bincount(idx, w, minlength=N)
        if N < LOWRANK_MIN_N:  # from one gather of the rows of K
            Kt = K[idx]
            return v + (w * _row_scale(Kt.dot(x))).dot(Kt)
        # sum_i w_i a_i K_i = H u, u = sum_i w_i a_i (i + 1/2) e_i: no row of K,
        # and no gather of F's columns, which for a block of most rows would
        # copy most of F
        a = _row_scale(kernel_product(x)[idx])
        return v + F.T.dot(F.dot(np.bincount(idx, w * a * (idx + 0.5), minlength=N)))

    def row_norms_sq(x):
        # ||a_i K_i + e_i||^2 = a_i^2 ||K_i||^2 + 2 a_i K_ii + 1, from one
        # product K x, where 2 a_i K_ii = a_i, as K_ii = mu_i / (2 mu_i) = 1/2
        a = _row_scale(kernel_product(x))
        return a * a * K_norms_sq + a + 1.0

    return NonlinearSystem(N, N, residual, row_gradient, gradient_rows=gradient_rows,
                           block_vjp=block_vjp, row_norms_sq=row_norms_sq)


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
        affine = idx < n - 1
        G[np.flatnonzero(affine), idx[affine]] = 2.0
        if not affine.all():
            G[~affine] = _product_row(x)
        return G

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
        out[n - 1] = p.dot(p)
        return out

    return NonlinearSystem(n, n, residual, row_gradient,
                           gradient_rows=gradient_rows, block_vjp=block_vjp,
                           row_norms_sq=row_norms_sq, known_solution=np.ones(n))


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

    def _write_row(i, x, out):
        # row i is s (-1, 3 - 4 x_i, -2) in columns i-1, i, i+1, s = 2 g_i,
        # with g_i from _g's operations in its order, on Python floats; off
        # the band s * 0.0, a zero of s's sign or nan, as s times a zero-padded
        # row gives
        xi = x.item(i)
        gi = (3.0 - 2.0 * xi) * xi + 1.0
        if i > 0:
            gi -= x.item(i - 1)
        if i < n - 1:
            gi -= 2.0 * x.item(i + 1)
        s = 2.0 * gi
        out.fill(s * 0.0)
        out[i] = s * (3.0 - 4.0 * xi)
        if i > 0:
            out[i - 1] = s * -1.0
        if i < n - 1:
            out[i + 1] = s * -2.0
        return out

    def row_gradient(i, x):
        return _write_row(i, x, np.empty(n))

    def gradient_rows(idx, x):
        G = np.empty((len(idx), n))
        for r, i in enumerate(idx.tolist()):
            _write_row(i, x, G[r])
        return G

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

    def refresh_after_row(i, x, fx, w):
        # rows i-2..i+2, clipped to the system, read row i's columns
        # i-1..i+1; each g_k is recomputed with _g's operations in its order
        # and each norm with row_norms_sq's, on Python floats, squared by a
        # product, because a Python float's ** raises OverflowError where
        # NumPy's returns inf
        lo, hi = max(i - 2, 0), min(i + 3, n)
        start = max(lo - 1, 0)
        xs = x[start:hi + 1].tolist()
        fx = fx.copy()
        w = None if w is None else w.copy()
        for k in range(lo, hi):
            j = k - start
            xk = xs[j]
            gk = (3.0 - 2.0 * xk) * xk + 1.0
            if k > 0:
                gk -= xs[j - 1]
            if k < n - 1:
                gk -= 2.0 * xs[j + 1]
            fx[k] = gk * gk
            if w is not None:
                sk = 2.0 * gk
                a = sk * (3.0 - 4.0 * xk)
                v = a * a
                if k > 0:
                    v += sk * sk
                if k < n - 1:
                    b = 2.0 * sk
                    v += b * b
                w[k] = v
        return fx, w

    return NonlinearSystem(n, n, residual, row_gradient, gradient_rows=gradient_rows,
                           block_vjp=block_vjp, row_norms_sq=row_norms_sq,
                           refresh_after_row=refresh_after_row)


def make_overdetermined_rational(n: int) -> NonlinearSystem:
    """Overdetermined rational system with m = 2(n-1) equations.

    Equation pair for each i in 1..n-1 (odd/even rows):
        f_odd  = 10 * (2 x_i / (1 + x_i^2) - x_{i+1})
        f_even = x_i - 1
    with root at the all-ones vector.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    m = 2 * (n - 1)

    def residual(x):
        xi = x[: n - 1]
        out = np.empty(m)
        out[0::2] = 10.0 * (2.0 * xi / (1.0 + xi**2) - x[1:])
        out[1::2] = xi - 1.0
        return out

    def _rational_deriv(xi):
        # r'(x) of r(x) = 2x / (1 + x^2), squared by products, which are
        # NumPy's ** 2 on arrays.  On a scalar, ** raises OverflowError (a
        # Python float) or goes through pow and rounds otherwise (NumPy's)
        x2 = xi * xi
        d = 1.0 + x2
        return (2.0 - 2.0 * x2) / (d * d)

    def row_gradient(k, x):
        i = k // 2
        g = np.zeros(n)
        if k % 2 == 0:
            g[i] = 10.0 * _rational_deriv(x.item(i))
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

    def refresh_after_row(k, x, fx, w):
        # row k moves columns p and p+1 (p = k // 2), which the pairs p-1..p+1
        # read; an odd row's norm is the constant 1 and row 2q's reads x_q
        # alone, so rows 2p and 2p+2 are the norms to recompute.  Each uses
        # residual's or row_norms_sq's operations in its order, on Python
        # floats, squared by a product as _rational_deriv squares; 1 + x^2 is
        # never 0
        p = k // 2
        lo, hi = max(p - 1, 0), min(p + 2, n - 1)
        fx = fx.copy()
        w = None if w is None else w.copy()
        xs = x[lo:hi + 1].tolist()
        for q in range(lo, hi):
            xq = xs[q - lo]
            xq2 = xq * xq
            d = 1.0 + xq2
            fx[2 * q] = 10.0 * (2.0 * xq / d - xs[q + 1 - lo])
            fx[2 * q + 1] = xq - 1.0
            if w is not None and q >= p:
                a = 10.0 * _rational_deriv(xq)
                w[2 * q] = a * a + 100.0
        return fx, w

    return NonlinearSystem(m, n, residual, row_gradient, gradient_rows=gradient_rows,
                           block_vjp=block_vjp, row_norms_sq=row_norms_sq,
                           refresh_after_row=refresh_after_row, known_solution=np.ones(n))


@dataclass
class Problem:
    """A registered problem instance with its conventional starting point."""

    name: str
    system: NonlinearSystem
    x0: np.ndarray
    sample_box: np.ndarray  # (n, 2) per-coordinate [lo, hi]
    params: Dict[str, float] = field(default_factory=dict)


# name -> (maker, the start's value in every entry, the sampling box's
# [lo, hi] for every coordinate, the maker's parameters and their defaults)
_PROBLEMS = {
    "h-equation": (make_h_equation, 0.0, (0.0, 1.0), {"c": 0.9}),
    "brown": (make_brown, 0.5, (0.25, 1.5), {}),
    "broyden": (make_singular_broyden, -0.5, (-1.0, 0.0), {}),
    "overdetermined": (make_overdetermined_rational, 0.0, (-0.5, 1.5), {}),
}
PROBLEM_NAMES = tuple(_PROBLEMS)


def get_problem(name: str, n: int, params: Optional[Dict[str, float]] = None) -> Problem:
    """Build a registered problem by name with its default initial point."""
    params = dict(params or {})
    if name not in _PROBLEMS:
        raise KeyError(f"unknown problem {name!r}; known: {PROBLEM_NAMES}")
    make, start, box, defaults = _PROBLEMS[name]
    used = {key: float(params.pop(key, value)) for key, value in defaults.items()}
    sys, x0, box = make(n, **used), np.full(n, start), np.tile(box, (n, 1))
    if params:
        raise KeyError(f"unknown parameters for {name}: {sorted(params)}")
    return Problem(name=name, system=sys, x0=x0, sample_box=box, params=used)
