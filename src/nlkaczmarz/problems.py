"""The four benchmark problem families, with analytic Jacobian rows.

Each maker returns a :class:`NonlinearSystem` with vectorized row-block
gradient access.  The problems with sparse rows (Brown, Broyden,
overdetermined) also supply the block vector-Jacobian product and the row
norms, computed from the nonzeros alone with index arithmetic and
``np.bincount``.  The dense H-equation supplies the block product without
forming the gradient rows, and the row norms in closed form from one product
K x and the kernel's row norms and diagonal.  Its products with the kernel
over all rows, in the residual, the row norms and the block product, are
real-FFT convolutions from N = ``FFT_MIN_N`` on, and dense below.  From
``FFT_MIN_N`` on the three share the last product K x, kept with the bytes
of its x, so an averaged step reads the K x_k that the residual at x_k
computed, and the dense K, its row norms and its diagonal are built on the
first evaluation that reads one of them, so NGABK and MRNABK, which never
do, run in O(N) memory.  Broyden and the overdetermined system, whose
rows read at most three neighbouring columns, also refresh the residual and
the row norms after a single-row step in one pass over the rows that read
that row's columns.
``get_problem`` adds the conventional initial point and a per-coordinate
sampling box used for finite-difference validation and cone-constant
estimation.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .system import NonlinearSystem


# the H-equation size from which a product with the kernel over all its rows
# is a real-FFT convolution instead of the dense K @ y (make_h_equation): the
# first measured size at which the transform was the faster in every run, on
# a 2-vCPU x86-64 VM with one BLAS thread (at N = 400 they tied near 22 us,
# at N = 450 the dense product took 24-26 us and the transform 21-23 us)
FFT_MIN_N = 450


def make_h_equation(N: int, c: float = 0.9) -> NonlinearSystem:
    """Discretized Chandrasekhar H-equation with N collocation points.

    F_i(x) = x_i - (1 - (c/2N) * sum_j mu_i x_j / (mu_i + mu_j))^-1,
    mu_i = (i - 1/2)/N.  Requires 0 < c < 1; the denominator hitting zero
    raises DomainError through the evaluation layer.

    The kernel K_pq = mu_p / (mu_p + mu_q) = (p + 1/2) / (p + q + 1) is a
    diagonal times a Hankel matrix.  From N = ``FFT_MIN_N`` on, the
    residual, the row norms and the block product multiply by it over all
    rows with one real-FFT convolution, O(N log N), whose relative error is
    about 1e-15 of the norms in place of the dense product's rounding; an
    input too large for the transform takes ``K @ y``.  That product is
    kept, read-only, with the bytes of its input until the next different
    input, so the three evaluations at one point compute it once.  The
    single and block gradient rows are always rows of K.

    K, its row norms and its diagonal are built with the system below
    ``FFT_MIN_N``, and from it on by the first evaluation that reads one (a
    gradient row, the row norms, or the dense product), once, under a lock.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0, 1)")
    mu = (np.arange(1, N + 1) - 0.5) / N
    coef = c / (2.0 * N)

    def build():
        # built in place: no second N x N temporary for the denominators
        K = np.add.outer(mu, mu)
        np.divide(mu[:, None], K, out=K)
        return K, np.einsum("ij,ij->i", K, K), K.diagonal().copy()

    # (K, its row norms, its diagonal), or None until kernel() first builds it
    dense = build() if N < FFT_MIN_N else None
    lock = threading.Lock()

    def kernel():
        nonlocal dense
        if dense is None:
            with lock:
                if dense is None:
                    dense = build()
        return dense

    if N < FFT_MIN_N:
        K = dense[0]

        def kernel_product(y):
            return K @ y
    else:
        from numpy.fft import irfft, rfft

        # K = diag(p + 1/2) H with H_pq = h_{p+q}, h_k = 1/(k + 1) for
        # k < 2N - 1, so H y is entries N-1 .. 2N-2 of the convolution of h
        # with y reversed, which a cyclic one of length L >= 2N - 1 holds
        h = 1.0 / np.arange(1.0, 2 * N)
        L = 1 << (2 * N - 2).bit_length()
        h_hat = rfft(h, L)
        half = np.arange(N) + 0.5
        # every value the transforms form is at most L N sum(h) max|y|: rfft's
        # are at most sum|y| <= N max|y|, |h_hat| <= sum(h), and irfft's are
        # sums of L products before its 1/L.  Half the largest float over that
        # leaves room for the rounding, so a smaller max|y| overflows nothing.
        y_max = np.finfo(float).max / (2.0 * L * N * h.sum())

        def hankel(y):
            return irfft(rfft(y[::-1], L) * h_hat, L)[N - 1:2 * N - 1]

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
                # an entry above y_max, a nan or an inf takes the dense product
                ky = kernel()[0] @ y if not np.abs(y).max() <= y_max else half * hankel(y)
                ky.flags.writeable = False
                last = (key, ky)
            return ky

    def residual(x):
        s = coef * kernel_product(x)
        return x - 1.0 / (1.0 - s)

    def _row_scale(kx):
        # row i of the Jacobian is a_i K_i + e_i, with a_i = -coef (1 - s_i)^-2
        # and s_i = coef (K x)_i
        return -((1.0 - coef * kx) ** -2) * coef

    def row_gradient(i, x):
        K_i = kernel()[0][i]
        g = _row_scale(K_i @ x) * K_i
        g[i] += 1.0
        return g

    def gradient_rows(idx, x):
        Kt = kernel()[0][idx]
        G = _row_scale(Kt @ x)[:, None] * Kt
        G[np.arange(len(idx)), idx] += 1.0
        return G

    def block_vjp(idx, w, x):
        # sum_i w_i (a_i K_i + e_i)
        v = np.bincount(idx, w, minlength=N)
        if N < FFT_MIN_N:  # from one gather of the rows of K
            Kt = K[idx]
            return v + (w * _row_scale(Kt @ x)) @ Kt
        # sum_i w_i a_i K_i = H u, u = sum_i w_i a_i (i + 1/2) e_i: no row of K
        a = _row_scale(kernel_product(x)[idx])
        return v + hankel(np.bincount(idx, w * a * (idx + 0.5), minlength=N))

    def row_norms_sq(x):
        # ||a_i K_i + e_i||^2 = a_i^2 ||K_i||^2 + 2 a_i K_ii + 1, from one
        # product K x
        _, K_norms_sq, K_diag = kernel()
        a = _row_scale(kernel_product(x))
        return a * a * K_norms_sq + 2.0 * a * K_diag + 1.0

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
        out[n - 1] = p @ p
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

    def row_gradient(i, x):
        # _g's operations in its order, on Python floats
        xi = float(x[i])
        gi = (3.0 - 2.0 * xi) * xi + 1.0
        if i > 0:
            gi -= float(x[i - 1])
        if i < n - 1:
            gi -= 2.0 * float(x[i + 1])
        grad = np.zeros(n)
        grad[i] = 3.0 - 4.0 * xi
        if i > 0:
            grad[i - 1] = -1.0
        if i < n - 1:
            grad[i + 1] = -2.0
        return 2.0 * gi * grad

    def gradient_rows(idx, x):
        # row k is 2 g_k (-1, 3 - 4 x_k, -2) in columns k-1, k, k+1, with g
        # taken at the rows idx alone.  In a zero-padded copy of x a boundary
        # term subtracts 0.0, which leaves _g's value bitwise; in G a clipped
        # boundary column is the diagonal, which is written last.
        xp = np.zeros(n + 2)
        xp[1:-1] = x
        xi = xp[idx + 1]
        g = (3.0 - 2.0 * xi) * xi + 1.0 - xp[idx] - 2.0 * xp[idx + 2]
        G = np.zeros((len(idx), n))
        r = np.arange(len(idx))
        G[r, np.maximum(idx - 1, 0)] = -1.0
        G[r, np.minimum(idx + 1, n - 1)] = -2.0
        G[r, idx] = 3.0 - 4.0 * xi
        return 2.0 * g[:, None] * G

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

    def refresh_after_row(k, x, fx, w):
        # row k moves columns p and p+1 (p = k // 2), which the pairs p-1..p+1
        # read; an odd row's norm is the constant 1 and row 2q's reads x_q
        # alone, so rows 2p and 2p+2 are the norms to recompute.  Each uses
        # residual's or row_norms_sq's operations in its order, on Python
        # floats, squared by a product because ** raises OverflowError on
        # them; 1 + x^2 is never 0
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
                a = 10.0 * ((2.0 - 2.0 * xq2) / (d * d))
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
        sys = make_overdetermined_rational(n)
        x0 = np.zeros(n)
        box = _box(n, -0.5, 1.5)
        used = {}
    else:
        raise KeyError(f"unknown problem {name!r}; known: {PROBLEM_NAMES}")
    if params:
        raise KeyError(f"unknown parameters for {name}: {sorted(params)}")
    return Problem(name=name, system=sys, x0=x0, sample_box=box, params=used)
