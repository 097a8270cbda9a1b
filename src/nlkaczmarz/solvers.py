"""The six solvers behind a single run loop with a shared stopping rule.

NGABK and MRNABK take pseudoinverse-free averaged block steps
    x_{k+1} = x_k - (eta^T f / ||f'(x)^T eta||^2) f'(x)^T eta,
    eta = sum_{i in tau} (-f_i(x)) e_i,
touching only the Jacobian rows in the selected block.  Baselines: NRK
(single random row projection; its sampler is NumPy's ``Generator.choice``
done inline, same rows from the same stream), RD-CNK (capped selection,
single draw), RB-CNK (minimum-norm least-squares block step, from a
projection or a residual-checked Gram solve, with ``lstsq`` only as the
fallback) and Newton-Raphson (``lstsq``).

Stopping rule for all methods: ||f(x_k)||^2 < tol_sq, checked before each
step, or the iteration cap.  The public steps and selections ignore NumPy's
floating-point warnings, as ``run()`` does for a whole solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from . import kernels
from .exceptions import BreakdownError, DomainError
from .system import (IterateState, NonlinearSystem, _check_gradient, _check_residual, _quiet,
                     solve_scope)

BREAKDOWN_EPS = 1e-30  # ||f'(x)^T eta||^2 below this with nonzero residual
GRAM_RTOL = 1e-10  # largest max|G d - b| / max|b| a Gram-solved RB-CNK step may leave
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
        if not (math.isfinite(self.rho) and 0.0 < self.rho <= 1.0):
            raise ValueError(f"rho must lie in (0, 1], got {self.rho}")
        if not (math.isfinite(self.tol_sq) and self.tol_sq > 0.0):
            raise ValueError(f"tol_sq must be positive and finite, got {self.tol_sq}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


@dataclass
class SolverReport:
    status: Status
    iters: int
    final_residual_sq: float
    # one record per executed step: (k, ||f(x_k)||^2, block size, ||x_{k+1}-x_k||)
    history: List[Tuple[int, float, int, float]] = field(default_factory=list)
    iterates: Optional[List[np.ndarray]] = None
    message: str = ""


# -- block selection ---------------------------------------------------


def select_ngabk(fx: np.ndarray) -> BlockSelection:
    """Greedy block: tau = { i : f_i^2 >= delta ||f||^2 },
    delta = (max_i f_i^2 / ||f||^2 + 1/m) / 2.

    The argmax-residual index always satisfies the criterion, so tau is
    nonempty for any nonzero residual.
    """
    fx = np.asarray(fx, dtype=float)
    if not fx.any():
        raise ValueError("selection from a zero residual: solver should have terminated")
    with _quiet():
        idx, delta = kernels.ngabk_select(fx)
    return BlockSelection(indices=idx, threshold=float(delta))


def select_mrnabk(fx: np.ndarray, rho: float) -> BlockSelection:
    """Relaxed max-residual block: tau = { i : f_i^2 >= rho * max_j f_j^2 }."""
    fx = np.asarray(fx, dtype=float)
    if not fx.any():
        raise ValueError("selection from a zero residual: solver should have terminated")
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    with _quiet():  # rho * max f_i^2 may overflow
        idx, threshold = kernels.mrnabk_select(fx, float(rho))
    return BlockSelection(indices=idx, threshold=float(threshold))


def select_rdcnk(sys: NonlinearSystem, state: IterateState) -> BlockSelection:
    """Capped selection weighted by row-gradient norms, which cost one full
    Jacobian (``sys.row_norms_sq``).

    I = { i : f_i^2 >= delta ||f||^2 ||grad f_i||^2 } with
    delta = (max_i (f_i^2/||grad f_i||^2) / ||f||^2 + 1/||f'||_F^2) / 2.
    A zero-gradient row with nonzero residual has ratio +inf and dominates.
    Zero-gradient rows are looked for only when the largest ratio is not
    finite: a zero row norm always makes it inf, or nan for 0/0.
    """
    fx = state.fx
    with _quiet():
        a2 = fx * fx
        r2 = a2.sum()
        if r2 == 0.0 and not fx.any():  # tiny f_i can square to zero
            raise ValueError("selection from a zero residual: solver should have terminated")
        w = sys.row_norms_sq(state.x)
        if not math.isfinite(r2):  # every f_i is finite: the sum of squares overflowed
            raise BreakdownError(f"||f||^2 = {r2}: the threshold is undefined", iteration=state.k)
        top = np.maximum.reduce(a2 / w)
        if not math.isfinite(top):
            zero_grad = (w == 0.0) & (a2 > 0.0)
            if zero_grad.any():
                return BlockSelection(indices=zero_grad.nonzero()[0], threshold=float("inf"))
            if not w.any():
                raise BreakdownError("all row gradients are zero", iteration=state.k)
            top = np.divide(a2, w, out=np.zeros_like(a2), where=w > 0.0).max()
        delta = 0.5 * (top / r2 + 1.0 / w.sum())
        idx = ((a2 >= delta * r2 * w) & (a2 > 0.0)).nonzero()[0]
        if idx.size == 0:  # equal ratios: the largest can miss delta by rounding
            raise BreakdownError("capped selection is empty", iteration=state.k)
        return BlockSelection(indices=idx, threshold=float(delta))


# -- single steps: one per method, for the public steps and run() ------


def average_block_step(sys: NonlinearSystem, state: IterateState, sel: BlockSelection) -> IterateState:
    """One pseudoinverse-free averaged step over the selected block."""
    idx = np.asarray(sel.indices, dtype=np.intp)
    if idx.size == 0:
        raise ValueError("empty block selection")
    with _quiet():
        return IterateState(*_averaged(sys, state.x, state.fx, idx, state.k)[:2], state.k + 1)


def _averaged(sys, x, fx, idx, k):
    """(x + (||f_tau||^2 / ||d||^2) d with d = -J_tau^T f_tau, its residual, |tau|)."""
    f_tau = fx[idx]
    d = -sys.block_vjp(idx, f_tau, x)
    nd2 = d.dot(d)
    s2 = float(f_tau.dot(f_tau))
    if not (math.isfinite(s2) and math.isfinite(nd2)):  # finite entries, overflowing squares
        raise BreakdownError(f"||f_tau||^2 = {s2}, ||d||^2 = {nd2}: the step length is undefined",
                             iteration=k)
    if nd2 < BREAKDOWN_EPS:
        raise BreakdownError("block direction annihilated (singular Jacobian rows)",
                             iteration=k)
    x = x + (s2 / nd2) * d
    return x, sys.residual(x), len(idx)


def nrk_step(sys: NonlinearSystem, state: IterateState,
             rng: np.random.Generator, index: Optional[int] = None) -> IterateState:
    """One single-row projection; the row is sampled with probability
    f_i^2 / ||f||^2 (``rng.choice``'s draw) unless ``index`` forces it."""
    fx = state.fx
    with _quiet():
        r2 = fx @ fx
        if r2 == 0.0:
            raise ValueError("step from a zero residual: solver should have terminated")
        if index is None:
            index = _sample_row(fx, r2, rng, state.k)
        return IterateState(*_projected(sys, state.x, fx, index, state.k)[:2], state.k + 1)


def _sample_row(fx, r2, rng, k) -> int:
    """NumPy's ``rng.choice(len(fx), p=fx*fx/r2)`` done inline: the same row
    from the same stream, with a finite r2 in place of its validation of p."""
    if not math.isfinite(r2):
        raise BreakdownError(f"||f||^2 = {r2}: the row weights are undefined", iteration=k)
    cdf = (fx * fx / r2).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _projected(sys, x, fx, i, k):
    """(x - (f_i / ||grad f_i||^2) grad f_i, its residual, 1)."""
    g = sys.row_gradient(i, x)
    w = g.dot(g)
    if not math.isfinite(w):  # inside run() the only check that g is finite
        _check_gradient(g, i)
    if w < BREAKDOWN_EPS:
        raise BreakdownError(f"zero gradient in selected row {i}", iteration=k)
    x = x - (fx[i] / w) * g
    return x, sys.residual(x), 1


def rbcnk_step(sys: NonlinearSystem, state: IterateState,
               sel: Optional[BlockSelection] = None) -> IterateState:
    """One minimum-norm least-squares step on the selected block: the
    pseudoinverse of the row submatrix applied to -f_tau (``_min_norm``)."""
    with _quiet():
        if sel is None:
            sel = select_ngabk(state.fx)
        idx = np.asarray(sel.indices, dtype=np.intp)
        G = sys.gradient_rows(idx, state.x)
        if not G.any():
            raise BreakdownError("selected block has all-zero gradients", iteration=state.k)
        return IterateState.at(sys, state.x + _min_norm(G, -state.fx[idx], state.k), state.k + 1)


def _min_norm(G, b, k):
    """G^+ b, without an SVD where a cheaper form is certified.  One row: the
    projection (b / ||g||^2) g, when ||g||^2 is a finite normal number.  A
    block: d = G^T solve(G G^T, b), accepted when max|G d - b| <= GRAM_RTOL
    max|b|; d lies in the row space of G, so solving G d = b makes it the
    minimum-norm solution.  Anything else (an overflowing or underflowing
    norm, a singular or ill-conditioned Gram) goes to ``lstsq``."""
    if len(G) == 1:
        g = G[0]
        w = g.dot(g)
        if _TINY <= w < math.inf:
            return (b[0] / w) * g
    else:
        try:
            d = G.T @ np.linalg.solve(G @ G.T, b)
        except np.linalg.LinAlgError:
            pass
        else:
            # a non-finite d leaves a non-finite residual, which fails the test
            if np.abs(G @ d - b).max() <= GRAM_RTOL * np.abs(b).max():
                return d
    return _lstsq(G, b, k)


def newton_step(sys: NonlinearSystem, state: IterateState) -> IterateState:
    """One full Newton-Raphson step via minimum-norm least squares."""
    with _quiet():
        d = _lstsq(sys.jacobian(state.x), -state.fx, state.k)
        return IterateState.at(sys, state.x + d, state.k + 1)


def _lstsq(A, b, k):
    try:
        return np.linalg.lstsq(A, b, rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        raise BreakdownError(f"least-squares factorization failed: {exc}", iteration=k) from exc


# run()'s step per method: (sys, x, fx, ||fx||^2, k, rng, rho) -> (x_{k+1}, f(x_{k+1}),
# block size); selections and steps are module attributes looked up at call time.


def _rdcnk(sys, x, fx, r2, k, rng, rho):
    rows = select_rdcnk(sys, IterateState(x, fx, k)).indices
    # the same draw and stream as rng.integers(len(rows)), at half the call cost
    return _projected(sys, x, fx, int(rows[rng.integers(0, len(rows))]), k)


def _rbcnk(sys, x, fx, r2, k, rng, rho):
    sel = select_ngabk(fx)
    state = rbcnk_step(sys, IterateState(x, fx, k), sel)
    return state.x, state.fx, len(sel.indices)


def _newton(sys, x, fx, r2, k, rng, rho):
    state = newton_step(sys, IterateState(x, fx, k))
    return state.x, state.fx, sys.m


# methods whose next step draws a new row, so one zero step need not repeat
_RANDOM_ROW = (Method.NRK, Method.RDCNK)

_STEPS = {
    Method.NGABK: lambda sys, x, fx, r2, k, rng, rho:
        _averaged(sys, x, fx, select_ngabk(fx).indices, k),
    Method.MRNABK: lambda sys, x, fx, r2, k, rng, rho:
        _averaged(sys, x, fx, select_mrnabk(fx, rho).indices, k),
    Method.NRK: lambda sys, x, fx, r2, k, rng, rho:
        _projected(sys, x, fx, _sample_row(fx, r2, rng, k), k),
    Method.RDCNK: _rdcnk,
    Method.RBCNK: _rbcnk,
    Method.NEWTON: _newton,
}


# -- run loop ----------------------------------------------------------


def run(sys: NonlinearSystem, x0: np.ndarray, cfg: SolverConfig) -> SolverReport:
    """Iterate the configured method until convergence, the iteration cap,
    or numerical breakdown.  History is recorded every iteration.  A bad
    start, a collapsed step, a non-finite evaluation, (NRK, RD-CNK) an
    ||f||^2 that overflows and (the other methods) a step that leaves x
    unchanged all end in ``Status.BREAKDOWN`` with a message.  NumPy's
    floating-point warnings are ignored for the whole solve.  Each ||f||^2
    doubles as the finiteness check of the residual it sums, which the
    solved system's evaluations leave to it (``solve_scope``)."""
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (sys.n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({sys.n},)")
    rng = np.random.default_rng(cfg.seed)
    step, rho, tol_sq, max_iters = _STEPS[cfg.method], cfg.rho, cfg.tol_sq, cfg.max_iters
    stall_ends = cfg.method not in _RANDOM_ROW

    history: List[Tuple[int, float, int, float]] = []
    iterates = [x.copy()] if cfg.store_iterates else None

    if not np.isfinite(x).all():
        return SolverReport(Status.BREAKDOWN, 0, float("nan"), history, iterates,
                            message="non-finite starting point")
    # no warning for a non-finite intermediate: the report carries the outcome
    with solve_scope(sys):
        try:
            fx = sys.residual(x)
            r2 = float(fx.dot(fx))
            if not math.isfinite(r2):  # finite components can overflow it too
                _check_residual(fx)
        except DomainError as exc:
            return SolverReport(Status.BREAKDOWN, 0, float("nan"), history, iterates,
                                message=f"at the starting point: {exc}")
        k = 0
        while True:
            if r2 < tol_sq:
                return SolverReport(Status.CONVERGED, k, r2, history, iterates)
            if k >= max_iters:
                return SolverReport(Status.MAX_ITERS, k, r2, history, iterates)
            try:
                x_new, fx, block_size = step(sys, x, fx, r2, k, rng, rho)
                r2_new = float(fx.dot(fx))
                if not math.isfinite(r2_new):
                    _check_residual(fx)
            except (BreakdownError, DomainError) as exc:
                return SolverReport(Status.BREAKDOWN, k, r2, history, iterates, message=str(exc))
            dx = x_new - x
            step_norm = math.sqrt(dx.dot(dx))
            # a deterministic step that moves nothing would repeat until the cap
            if step_norm == 0.0 and stall_ends and not dx.any():
                return SolverReport(Status.BREAKDOWN, k, r2, history, iterates,
                                    message=f"the step at iteration {k} left x unchanged")
            history.append((k, r2, block_size, step_norm))
            x, r2 = x_new, r2_new
            k += 1
            if iterates is not None:
                iterates.append(x.copy())
