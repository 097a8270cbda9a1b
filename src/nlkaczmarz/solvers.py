"""The six solvers behind a single run loop with a shared stopping rule.

NGABK and MRNABK take pseudoinverse-free averaged block steps
    x_{k+1} = x_k - (eta^T f / ||f'(x)^T eta||^2) f'(x)^T eta,
    eta = sum_{i in tau} (-f_i(x)) e_i,
touching only the Jacobian rows in the selected block.  Baselines: NRK
(single random row projection; its sampler is NumPy's ``Generator.choice``
done inline, same rows from the same stream), RD-CNK (capped selection,
single draw), RB-CNK (true least-squares block step) and Newton-Raphson.

Stopping rule for all methods: ||f(x_k)||^2 < tol_sq, checked before each
step, or the iteration cap.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

import numpy as np

from . import kernels
from .exceptions import BreakdownError, DomainError
from .system import IterateState, NonlinearSystem

BREAKDOWN_EPS = 1e-30  # ||f'(x)^T eta||^2 below this with nonzero residual


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
    fx = np.ascontiguousarray(fx, dtype=float)
    if not fx.any():
        raise ValueError("selection from a zero residual: solver should have terminated")
    idx, delta = kernels.ngabk_select(fx)
    return BlockSelection(indices=idx, threshold=float(delta))


def select_mrnabk(fx: np.ndarray, rho: float) -> BlockSelection:
    """Relaxed max-residual block: tau = { i : f_i^2 >= rho * max_j f_j^2 }."""
    fx = np.ascontiguousarray(fx, dtype=float)
    if not fx.any():
        raise ValueError("selection from a zero residual: solver should have terminated")
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    idx, threshold = kernels.mrnabk_select(fx, float(rho))
    return BlockSelection(indices=idx, threshold=float(threshold))


def select_rdcnk(sys: NonlinearSystem, state: IterateState) -> BlockSelection:
    """Capped selection weighted by row-gradient norms, which cost one full
    Jacobian (``sys.row_norms_sq``).

    I = { i : f_i^2 >= delta ||f||^2 ||grad f_i||^2 } with
    delta = (max_i (f_i^2/||grad f_i||^2) / ||f||^2 + 1/||f'||_F^2) / 2.
    A zero-gradient row with nonzero residual has ratio +inf and dominates.
    """
    fx = state.fx
    if not fx.any():
        raise ValueError("selection from a zero residual: solver should have terminated")
    w = sys.row_norms_sq(state.x)
    a2 = fx * fx
    r2 = a2.sum()
    if not math.isfinite(r2):  # every f_i is finite: the sum of squares overflowed
        raise BreakdownError(f"||f||^2 = {r2}: the threshold is undefined", iteration=state.k)
    if w.all():  # no zero-gradient row: the usual case
        ratio = a2 / w
    else:
        zero_grad = (w == 0.0) & (a2 > 0.0)
        if zero_grad.any():
            return BlockSelection(indices=np.flatnonzero(zero_grad).astype(np.intp),
                                  threshold=float("inf"))
        if not w.any():
            raise BreakdownError("all row gradients are zero", iteration=state.k)
        ratio = np.divide(a2, w, out=np.zeros_like(a2), where=w > 0.0)
    delta = 0.5 * (ratio.max() / r2 + 1.0 / w.sum())
    idx = np.flatnonzero((a2 >= delta * r2 * w) & (a2 > 0.0)).astype(np.intp)
    if idx.size == 0:  # equal ratios: the largest can miss delta by rounding
        raise BreakdownError("capped selection is empty", iteration=state.k)
    return BlockSelection(indices=idx, threshold=float(delta))


# -- single steps: one per method, for the public steps and run() ------


def average_block_step(sys: NonlinearSystem, state: IterateState, sel: BlockSelection) -> IterateState:
    """One pseudoinverse-free averaged step over the selected block."""
    idx = np.asarray(sel.indices, dtype=np.intp)
    if idx.size == 0:
        raise ValueError("empty block selection")
    return IterateState(*_averaged(sys, state.x, state.fx, idx, state.k)[:2], state.k + 1)


def _averaged(sys, x, fx, idx, k):
    """(x + (||f_tau||^2 / ||d||^2) d with d = -J_tau^T f_tau, its residual, |tau|)."""
    f_tau = fx[idx]
    d = -sys.block_vjp(idx, f_tau, x)
    nd2 = d.dot(d)
    if nd2 < BREAKDOWN_EPS:
        raise BreakdownError("block direction annihilated (singular Jacobian rows)",
                             iteration=k)
    x = x + (float(f_tau.dot(f_tau)) / nd2) * d
    return x, sys.residual(x), len(idx)


def nrk_step(sys: NonlinearSystem, state: IterateState,
             rng: np.random.Generator, index: Optional[int] = None) -> IterateState:
    """One single-row projection; the row is sampled with probability
    f_i^2 / ||f||^2 (``rng.choice``'s draw) unless ``index`` forces it."""
    fx = state.fx
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
    if w < BREAKDOWN_EPS:
        raise BreakdownError(f"zero gradient in selected row {i}", iteration=k)
    x = x - (fx[i] / w) * g
    return x, sys.residual(x), 1


def rbcnk_step(sys: NonlinearSystem, state: IterateState,
               sel: Optional[BlockSelection] = None) -> IterateState:
    """One minimum-norm least-squares step on the selected block
    (the pseudoinverse applied to the row submatrix)."""
    if sel is None:
        sel = select_ngabk(state.fx)
    idx = np.asarray(sel.indices, dtype=np.intp)
    G = sys.gradient_rows(idx, state.x)
    if not G.any():
        raise BreakdownError("selected block has all-zero gradients", iteration=state.k)
    return IterateState.at(sys, state.x + _lstsq(G, -state.fx[idx], state.k), state.k + 1)


def newton_step(sys: NonlinearSystem, state: IterateState) -> IterateState:
    """One full Newton-Raphson step via minimum-norm least squares."""
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
    return _projected(sys, x, fx, int(rows[rng.integers(len(rows))]), k)


def _rbcnk(sys, x, fx, r2, k, rng, rho):
    sel = select_ngabk(fx)
    state = rbcnk_step(sys, IterateState(x, fx, k), sel)
    return state.x, state.fx, len(sel.indices)


def _newton(sys, x, fx, r2, k, rng, rho):
    state = newton_step(sys, IterateState(x, fx, k))
    return state.x, state.fx, sys.m


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
    start, a collapsed step, a non-finite evaluation and (NRK, RD-CNK) an
    ||f||^2 that overflows all end in ``Status.BREAKDOWN`` with a message."""
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (sys.n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({sys.n},)")
    rng = np.random.default_rng(cfg.seed)
    step, rho, tol_sq, max_iters = _STEPS[cfg.method], cfg.rho, cfg.tol_sq, cfg.max_iters

    history: List[Tuple[int, float, int, float]] = []
    iterates = [x.copy()] if cfg.store_iterates else None

    if not np.isfinite(x).all():
        return SolverReport(Status.BREAKDOWN, 0, float("nan"), history, iterates,
                            message="non-finite starting point")
    try:
        fx = sys.residual(x)
    except DomainError as exc:
        return SolverReport(Status.BREAKDOWN, 0, float("nan"), history, iterates,
                            message=f"at the starting point: {exc}")
    # a finite residual whose square overflows is reported, not warned about
    with np.errstate(over="ignore"):
        r2 = float(fx.dot(fx))
        k = 0
        while True:
            if r2 < tol_sq:
                return SolverReport(Status.CONVERGED, k, r2, history, iterates)
            if k >= max_iters:
                return SolverReport(Status.MAX_ITERS, k, r2, history, iterates)
            try:
                x_new, fx, block_size = step(sys, x, fx, r2, k, rng, rho)
            except (BreakdownError, DomainError) as exc:
                return SolverReport(Status.BREAKDOWN, k, r2, history, iterates, message=str(exc))
            dx = x_new - x
            history.append((k, r2, block_size, math.sqrt(dx.dot(dx))))
            x = x_new
            r2 = float(fx.dot(fx))
            k += 1
            if iterates is not None:
                iterates.append(x.copy())
