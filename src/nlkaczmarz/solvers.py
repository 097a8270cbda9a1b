"""The six solvers behind a single run loop with a shared stopping rule.

NGABK and MRNABK take pseudoinverse-free averaged block steps
    x_{k+1} = x_k - (eta^T f / ||f'(x)^T eta||^2) f'(x)^T eta,
    eta = sum_{i in tau} (-f_i(x)) e_i,
touching only the Jacobian rows in the selected block.  Baselines: NRK
(single random row projection; its sampler is NumPy's ``Generator.choice``
done inline, same rows from the same stream, its uniforms drawn in blocks),
RD-CNK (capped selection, single draw), RB-CNK (minimum-norm least-squares
block step: a projection for one row; from ``CG_MIN_ROWS`` rows, conjugate
gradients that never form the Gram; else, or when they give up, a Gram
solve; each step residual-checked, with ``lstsq`` only as the last
fallback) and Newton-Raphson (``lstsq``).  ``run()``
builds each method's step for one solve as a closure; RD-CNK's keeps its row
norms and refreshes them with the residual after each projection.  Only NRK
and RD-CNK draw random numbers, so only their solves build a generator
(``np.random.default_rng(seed)``); a solve of the other four never loads
``numpy.random``.  ``SolverConfig`` checks the seed for every method.

Stopping rule for all methods: ||f(x_k)||^2 < tol_sq, checked before each
step, or the iteration cap.  The steps evaluate the system through its
``_eval_*`` methods, which check themselves and hand each value over with
its sum (||f||^2 with f, and so on), which the steps and the stopping rule
use; this module makes no check of its own for non-finite values.
``run()`` ignores NumPy's floating-point warnings for the whole solve, and
``select_rdcnk`` per call.  The greedy selections' kernels write none, so
``select_ngabk`` and ``select_mrnabk`` enter no error state of their own;
RB-CNK reads its block's rows through the system's ``_eval_rows``, which
checks neither the point nor the rows again.  RB-CNK's products call
``ndarray.dot``, not ``@``, which goes through NumPy's matmul ufunc for the
same BLAS routine and bits at 0.2-0.8 us more per call (``timeit`` minima
on 91d5854, NumPy 2.4.6, one BLAS thread, a 2-vCPU x86-64 VM, for a block
of 21 rows at n = 100: G G^T 4.72 -> 4.53 us, G^T b 0.93 -> 0.51 us, G d
0.97 -> 0.57 us).
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from . import kernels
from .exceptions import BreakdownError, DomainError
from .system import EvalCounters, NonlinearSystem, _is_int, _real

BREAKDOWN_EPS = 1e-30  # ||f'(x)^T eta||^2 below this with nonzero residual
GRAM_RTOL = 1e-10  # largest max|G d - b| / max|b| a Gram-solved RB-CNK step may leave
# RB-CNK blocks of CG_MIN_ROWS rows or more try CG_MAX_ITERS conjugate-gradient
# iterations before the Gram: from about 256 rows a try that gives up costs
# under half the Gram solve, and the large blocks that pass take 1-5
CG_MIN_ROWS = 256
CG_MAX_ITERS = 16
_TINY = np.finfo(float).tiny  # the smallest normal float


class Method(str, Enum):
    NGABK = "ngabk"
    MRNABK = "mrnabk"
    NRK = "nrk"
    RDCNK = "rdcnk"
    RBCNK = "rbcnk"
    NEWTON = "newton"


class Status(str, Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    BREAKDOWN = "breakdown"


@dataclass
class BlockSelection:
    """Selected row indices and the threshold value that produced them."""

    indices: np.ndarray
    threshold: float


def _is_real(value) -> bool:
    """Whether value is a real number (Python's or NumPy's) other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class SolverConfig:
    method: Method
    rho: float = 0.1
    max_iters: int = 200_000
    tol_sq: float = 1e-6
    seed: int = 0
    store_iterates: bool = False  # diagnostic runs keep full snapshots

    def __post_init__(self):
        self.method = Method(self.method)
        # a bool would act as 1 or 0, and math.isfinite raises TypeError on a
        # str or None
        if not (_is_real(self.rho) and math.isfinite(self.rho) and 0.0 < self.rho <= 1.0):
            raise ValueError(f"rho must lie in (0, 1], got {self.rho!r}")
        if not (_is_real(self.tol_sq) and math.isfinite(self.tol_sq) and self.tol_sq > 0.0):
            raise ValueError(f"tol_sq must be positive and finite, got {self.tol_sq!r}")
        # a float cap would stop past it, and nan or inf never
        if not _is_int(self.max_iters) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer 1 or more, got {self.max_iters!r}")
        # the seeds NumPy's generators take, checked for every method alike
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be an integer 0 or more, got {self.seed!r}")


@dataclass
class SolverReport:
    status: Status
    iters: int
    final_residual_sq: float
    # one record per executed step: (k, ||f(x_k)||^2, block size, ||x_{k+1}-x_k||)
    history: List[Tuple[int, float, int, float]] = field(default_factory=list)
    iterates: Optional[List[np.ndarray]] = None
    message: str = ""
    # the evaluations made through the system during this run alone
    counters: EvalCounters = field(default_factory=EvalCounters)


# -- block selection ---------------------------------------------------


def _residual_vector(fx) -> np.ndarray:
    """fx as a float array, which every selection needs 1-D."""
    fx = np.asarray(fx, dtype=float)
    if fx.ndim != 1:
        raise ValueError(f"residual has shape {fx.shape}, expected a 1-D array")
    return fx


def select_ngabk(fx: np.ndarray) -> BlockSelection:
    """Greedy block: tau = { i : f_i^2 >= delta ||f||^2 },
    delta = (max_i f_i^2 / ||f||^2 + 1/m) / 2.

    The argmax-residual index always satisfies the criterion, so tau is
    nonempty for any nonzero residual.
    """
    idx, delta = kernels.ngabk_select(_residual_vector(fx))
    return BlockSelection(indices=idx, threshold=delta)


def select_mrnabk(fx: np.ndarray, rho: float) -> BlockSelection:
    """Relaxed max-residual block: tau = { i : f_i^2 >= rho * max_j f_j^2 }."""
    fx = _residual_vector(fx)
    # the kernel raises the zero-residual ValueError; a zero residual is
    # reported before a bad rho, so only a bad rho scans fx here
    if not (isinstance(rho, float) and 0.0 < rho <= 1.0):
        if not fx.any():
            raise ValueError(kernels.ZERO_RESIDUAL)
        if not 0.0 < rho <= 1.0:
            raise ValueError(f"rho must lie in (0, 1], got {rho}")
    idx, threshold = kernels.mrnabk_select(fx, float(rho))
    return BlockSelection(indices=idx, threshold=threshold)


def select_rdcnk(sys: NonlinearSystem, x: np.ndarray, fx: np.ndarray) -> BlockSelection:
    """Capped selection at x, whose residual is fx, weighted by row-gradient norms,
    which cost one full Jacobian (the system's checked ``_eval_row_norms``,
    which hands them over with their sum).

    I = { i : f_i^2 >= delta ||f||^2 ||grad f_i||^2 } with
    delta = (max_i (f_i^2/||grad f_i||^2) / ||f||^2 + 1/||f'||_F^2) / 2.
    A zero-gradient row with nonzero residual has ratio +inf and dominates.
    Zero-gradient rows are looked for only when the largest ratio is not
    finite: a zero row norm always makes it inf, or nan for 0/0.  Inside
    ``run()`` the same selection reads row norms that the solve keeps from
    one step to the next.  A zero residual, then one with an entry that is
    not finite, raise ValueError before the row norms are evaluated.
    """
    fx = _residual_vector(fx)
    if not fx.any():  # tiny f_i can square to zero, so ||f||^2 cannot tell
        raise ValueError(kernels.ZERO_RESIDUAL)
    if not np.isfinite(fx).all():
        kernels.non_finite(fx)
    x = sys._point(x)
    with np.errstate(all="ignore"):
        idx, delta = _capped(fx, *sys._eval_row_norms(x))
    return BlockSelection(indices=idx, threshold=float(delta))


def _capped(fx, w, w_sum):
    """``select_rdcnk``'s (set, threshold) from the finite residual fx != 0,
    the squared row norms w and their sum."""
    a2 = fx * fx
    r2 = np.add.reduce(a2)
    if not math.isfinite(r2):  # every f_i is finite: the sum of squares overflowed
        raise BreakdownError(f"||f||^2 = {r2}: the threshold is undefined")
    top = np.maximum.reduce(a2 / w)
    if not math.isfinite(top):
        zero_grad = (w == 0.0) & (a2 > 0.0)
        if zero_grad.any():
            return zero_grad.nonzero()[0], math.inf
        if not w.any():
            raise BreakdownError("all row gradients are zero")
        top = np.divide(a2, w, out=np.zeros_like(a2), where=w > 0.0).max()
    delta = 0.5 * (top / r2 + 1.0 / w_sum)
    # a2 is >= 0 or nan, so a2 >= max(t, 5e-324) is a2 >= t and a2 > 0
    idx = (a2 >= np.maximum(delta * r2 * w, 5e-324)).nonzero()[0]
    if idx.size == 0:  # equal ratios: the largest can miss delta by rounding
        raise BreakdownError("capped selection is empty")
    return idx, delta


# -- single steps: one per method, called by run()'s step closures -----


def _averaged(sys: NonlinearSystem, x, fx, idx):
    """(x + (||f_tau||^2 / ||d||^2) d with d = -J_tau^T f_tau, its residual
    and ||f||^2, |tau|)."""
    f_tau = fx[idx]
    v, nd2 = sys._eval_block_vjp(idx, f_tau, x)  # v = -d
    s2 = float(f_tau.dot(f_tau))
    if not (math.isfinite(s2) and math.isfinite(nd2)):  # finite entries, overflowing squares
        raise BreakdownError(f"||f_tau||^2 = {s2}, ||d||^2 = {nd2}: the step length is undefined")
    if nd2 < BREAKDOWN_EPS:
        raise BreakdownError("block direction annihilated (singular Jacobian rows)")
    x = x - (s2 / nd2) * v
    return (x, *sys._eval_residual(x), len(idx))


def _sample_row(fx, r2, u) -> int:
    """NumPy's ``rng.choice(len(fx), p=fx*fx/r2)`` done inline, for the
    uniform draw u that ``choice`` takes with ``rng.random()``: the same row
    from the same stream, with a finite r2 in place of its validation of p.
    NRK takes its draws ``_DRAW_BLOCK`` at a time with ``rng.random(size)``,
    which yields the same values in the same order as repeated
    ``rng.random()``.  The row is the first j with cdf[j] / t > u, for the
    cumulative weights cdf and their total t.  It is searched for at u * t,
    without dividing all of cdf by t, and then stepped to: a rounded u * t
    can land a row off, and cdf[j] / t is monotone in cdf[j].  t and the
    entries the steps test are read with ``cdf.item`` as Python floats,
    whose division rounds as NumPy's does, without a NumPy scalar each."""
    if not math.isfinite(r2):
        raise BreakdownError(f"||f||^2 = {r2}: the row weights are undefined")
    cdf = np.add.accumulate(fx * fx / r2)
    last = len(cdf) - 1
    t = cdf.item(last)
    j = int(cdf.searchsorted(u * t, "right"))
    while j and cdf.item(j - 1) / t > u:
        j -= 1
    while j < last and cdf.item(j) / t <= u:
        j += 1
    return j


def _projected(sys: NonlinearSystem, x, fx, i, w=None):
    """(x - c grad f_i with c = f_i / ||grad f_i||^2, its residual and
    ||f||^2, its row norms and their sum or None), refreshed on the rows
    that read row i's columns from fx and, when given, the row norms w at
    x.  Inside run() c is finite, so c * 0 = 0 off those columns: a
    non-finite ||f||^2 breaks down before a row is picked, and
    ||grad f_i||^2 >= BREAKDOWN_EPS.  (A -0.0 off them
    can still turn into +0.0, which may flip the sign of a zero residual
    component; no step reads one, as a selected row has f_i != 0.)"""
    g, g2 = sys._eval_row_gradient(i, x)
    g2 = float(g2)
    if g2 < BREAKDOWN_EPS:
        raise BreakdownError(f"zero gradient in selected row {i}")
    # Python floats: g2 >= BREAKDOWN_EPS, so the division cannot raise
    x = x - (fx.item(i) / g2) * g
    (fx, r2), norms = sys._eval_refresh(i, x, fx, w)
    return x, fx, r2, norms


def rbcnk_step(sys: NonlinearSystem, x: np.ndarray, fx: np.ndarray,
               idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float, int]:
    """(x + G^+ (-f_tau), its residual and ||f||^2, |tau|): the
    minimum-norm least-squares step on the block idx, G its gradient rows
    (``_min_norm``) from the system's ``_eval_rows``, x and idx unchecked,
    as ``run()`` passes them."""
    G = sys._eval_rows(idx, x)
    if not G.any():
        raise BreakdownError("selected block has all-zero gradients")
    x = x + _min_norm(G, -fx[idx])
    return (x, *sys._eval_residual(x), len(idx))


def _min_norm(G, b):
    """G^+ b, without an SVD where a cheaper form is certified.  One row: the
    projection (b / ||g||^2) g, when ||g||^2 is a finite normal number.  A
    block: a d = G^T y, accepted when max|G d - b| <= GRAM_RTOL max|b|; d
    lies in the row space of G, so solving G d = b makes it the minimum-norm
    solution.  A block of ``CG_MIN_ROWS`` rows or more first tries conjugate
    gradients on G G^T y = b (``_craig``); a smaller block, or one where they
    give up, takes y = solve(G G^T, b).  Anything else (an overflowing or
    underflowing norm, a singular or ill-conditioned Gram) goes to ``lstsq``."""
    if len(G) == 1:
        g = G[0]
        w = g.dot(g)
        if _TINY <= w < math.inf:
            return (b[0] / w) * g
    else:
        tol = GRAM_RTOL * np.abs(b).max()
        d = _craig(G, b, tol) if len(G) >= CG_MIN_ROWS else None
        if d is not None:
            return d
        try:
            d = G.T.dot(np.linalg.solve(G.dot(G.T), b))
        except np.linalg.LinAlgError:
            pass
        else:
            # a non-finite d leaves a non-finite residual, which fails the test
            if np.abs(G.dot(d) - b).max() <= tol:
                return d
    return _lstsq(G, b)


def _craig(G, b, tol):
    """Conjugate gradients on G G^T y = b from y = 0, carrying d = G^T y in
    place of y (Craig's method): two products with G per iteration, G^T p
    and G times that.  Returns d once the recurrence residual and then the
    true one, max|G d - b|, are both at most tol; None if the curvature
    ||G^T p||^2 is not finite and positive, or after ``CG_MAX_ITERS``
    iterations.  A non-finite alpha leaves a nan residual, which fails the
    test and makes the next curvature nan."""
    d = np.zeros(G.shape[1])
    r = b.copy()
    p = b
    rr = r.dot(r)
    for _ in range(CG_MAX_ITERS):
        q = G.T.dot(p)
        curvature = q.dot(q)
        if not 0.0 < curvature < math.inf:
            return None
        alpha = rr / curvature
        d += alpha * q
        r -= alpha * G.dot(q)
        if np.abs(r).max() <= tol and np.abs(G.dot(d) - b).max() <= tol:
            return d
        rr, rr_old = r.dot(r), rr
        p = r + (rr / rr_old) * p
    return None


def _lstsq(A, b):
    try:
        return np.linalg.lstsq(A, b, rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise BreakdownError(f"least-squares factorization failed: {exc}") from exc


# methods that draw their rows at random: the only ones a seed changes, and
# the only ones whose next step draws a new row, so one zero step need not repeat
RANDOM_ROW = (Method.NRK, Method.RDCNK)
_DRAW_BLOCK = 1024  # NRK's uniform draws taken from the stream per call


def _step(sys: NonlinearSystem, method, rho, rng):
    """``run()``'s step for one solve of ``sys``: (x, fx, ||fx||^2) ->
    (the next x, its residual and ||f||^2, block size), drawing from rng
    (None for the methods outside ``RANDOM_ROW``), calling the selections
    and ``rbcnk_step`` by module lookup and ``sys``'s evaluations by
    attribute lookup, so that a wrapper set on the module or the instance
    sees each call.
    RD-CNK's step keeps its iterate's row norms, which the projection
    refreshes; it computes them all at its first step or without a hook."""
    if method is Method.NGABK:
        def step(x, fx, r2):
            return _averaged(sys, x, fx, select_ngabk(fx).indices)
    elif method is Method.MRNABK:
        def step(x, fx, r2):
            return _averaged(sys, x, fx, select_mrnabk(fx, rho).indices)
    elif method is Method.NRK:
        draws = []  # the stream's next uniforms, the next one last

        def step(x, fx, r2):
            if not draws:
                draws.extend(rng.random(_DRAW_BLOCK)[::-1].tolist())
            x, fx, r2, _ = _projected(sys, x, fx, _sample_row(fx, r2, draws.pop()))
            return x, fx, r2, 1
    elif method is Method.RDCNK:
        norms = None  # (the row norms, their sum) at the step's x, once refreshed

        def step(x, fx, r2):
            nonlocal norms
            w, w_sum = sys._eval_row_norms(x) if norms is None else norms
            rows = _capped(fx, w, w_sum)[0]
            # the same draw and stream as rng.integers(len(rows)), at half the
            # call cost; for one row it would return 0 and draw nothing from
            # the stream, so a one-row set skips the call
            i = rows.item(rng.integers(0, len(rows)) if len(rows) > 1 else 0)
            x, fx, r2, norms = _projected(sys, x, fx, i, w)
            return x, fx, r2, 1
    elif method is Method.RBCNK:
        def step(x, fx, r2):
            return rbcnk_step(sys, x, fx, select_ngabk(fx).indices)
    else:
        def step(x, fx, r2):
            x = x + _lstsq(sys.jacobian(x), -fx)
            return (x, *sys._eval_residual(x), sys.m)
    return step


# -- run loop ----------------------------------------------------------


def run(sys: NonlinearSystem, x0: np.ndarray, cfg: SolverConfig) -> SolverReport:
    """Iterate the configured method until convergence, the iteration cap,
    or numerical breakdown.  History is recorded every iteration.  An x0
    of another shape than (n,), or of a complex dtype, raises ValueError
    before any evaluation.  A bad start, a collapsed step, a non-finite evaluation, (NRK, RD-CNK) an
    ||f||^2 that overflows and (the other methods) a step that leaves x
    unchanged all end in ``Status.BREAKDOWN`` with a message.  The steps
    call ``sys``'s ``_eval_*`` methods, which check what they return and
    hand over each residual with the ||f||^2 that checked it.  NumPy's
    floating-point warnings are ignored for the whole solve.  The report's
    counters are ``sys.counters`` at the end less those at the start."""
    x = _real("x0", x0).astype(float)
    if x.shape != (sys.n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({sys.n},)")
    # NumPy loads np.random on first use: only a method that draws rows pays for it
    rng = np.random.default_rng(cfg.seed) if cfg.method in RANDOM_ROW else None
    step = _step(sys, cfg.method, cfg.rho, rng)
    tol_sq, max_iters = cfg.tol_sq, cfg.max_iters
    stall_ends = cfg.method not in RANDOM_ROW

    history: List[Tuple[int, float, int, float]] = []
    iterates = [x.copy()] if cfg.store_iterates else None
    start = vars(sys.counters).copy()

    def report(status, k, r2, message=""):
        counters = {key: n - start[key] for key, n in vars(sys.counters).items()}
        return SolverReport(status, k, r2, history, iterates, message, EvalCounters(**counters))

    if not np.isfinite(x).all():
        return report(Status.BREAKDOWN, 0, float("nan"), "non-finite starting point")
    # no warning for a non-finite intermediate: the report carries the outcome
    with np.errstate(all="ignore"):
        try:
            fx, r2 = sys._eval_residual(x)
        except DomainError as exc:
            return report(Status.BREAKDOWN, 0, float("nan"), f"at the starting point: {exc}")
        k = 0
        while True:
            if r2 < tol_sq:
                return report(Status.CONVERGED, k, r2)
            if k >= max_iters:
                return report(Status.MAX_ITERS, k, r2)
            try:
                x_new, fx, r2_new, block_size = step(x, fx, r2)
            except (BreakdownError, DomainError) as exc:
                return report(Status.BREAKDOWN, k, r2, str(exc))
            dx = x_new - x
            step_norm = math.sqrt(dx.dot(dx))
            # a deterministic step that moves nothing would repeat until the cap
            if step_norm == 0.0 and stall_ends and not dx.any():
                return report(Status.BREAKDOWN, k, r2,
                              f"the step at iteration {k} left x unchanged")
            history.append((k, r2, block_size, step_norm))
            x, r2 = x_new, r2_new
            k += 1
            if iterates is not None:
                iterates.append(x.copy())
