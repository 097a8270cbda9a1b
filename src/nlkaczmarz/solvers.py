"""The six solvers behind a single run loop with a shared stopping rule.

NGABK and MRNABK take pseudoinverse-free averaged block steps
    x_{k+1} = x_k - (eta^T f / ||f'(x)^T eta||^2) f'(x)^T eta,
    eta = sum_{i in tau} (-f_i(x)) e_i,
touching only the Jacobian rows in the selected block.  Baselines: NRK
(single random row projection), RD-CNK (capped selection, single draw),
RB-CNK (true least-squares block step) and Newton-Raphson.

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
    zero_grad = (w == 0.0) & (a2 > 0.0)
    if zero_grad.any():
        return BlockSelection(indices=np.flatnonzero(zero_grad).astype(np.intp),
                              threshold=float("inf"))
    if not w.any():
        raise BreakdownError("all row gradients are zero")
    ratio = np.divide(a2, w, out=np.zeros_like(a2), where=w > 0.0)
    delta = 0.5 * (ratio.max() / r2 + 1.0 / w.sum())
    mask = (a2 >= delta * r2 * w) & (a2 > 0.0)
    return BlockSelection(indices=np.flatnonzero(mask).astype(np.intp), threshold=float(delta))


# -- single steps ------------------------------------------------------


def average_block_step(sys: NonlinearSystem, state: IterateState, sel: BlockSelection) -> IterateState:
    """One pseudoinverse-free averaged step over the selected block."""
    idx = np.asarray(sel.indices, dtype=np.intp)
    if idx.size == 0:
        raise ValueError("empty block selection")
    x_new = _averaged_point(sys, state.x, state.fx, idx, state.k)
    return IterateState.at(sys, x_new, state.k + 1)


def _averaged_point(sys: NonlinearSystem, x: np.ndarray, fx: np.ndarray,
                    idx: np.ndarray, k: Optional[int] = None) -> np.ndarray:
    """x + (||f_tau||^2 / ||d||^2) d with d = -J_tau^T f_tau."""
    f_tau = fx[idx]
    d = -sys.block_vjp(idx, f_tau, x)
    nd2 = d @ d
    if nd2 < BREAKDOWN_EPS:
        raise BreakdownError("block direction annihilated (singular Jacobian rows)",
                             iteration=k)
    return x + (float(f_tau @ f_tau) / nd2) * d


def nrk_step(sys: NonlinearSystem, state: IterateState,
             rng: np.random.Generator, index: Optional[int] = None) -> IterateState:
    """One single-row projection; the row is sampled with probability
    f_i^2 / ||f||^2 unless ``index`` forces it."""
    fx = state.fx
    r2 = fx @ fx
    if r2 == 0.0:
        raise ValueError("step from a zero residual: solver should have terminated")
    if index is None:
        index = int(rng.choice(sys.m, p=fx * fx / r2))
    g = sys.row_gradient(index, state.x)
    w = g @ g
    if w < BREAKDOWN_EPS:
        raise BreakdownError(f"zero gradient in selected row {index}", iteration=state.k)
    x_new = state.x - (fx[index] / w) * g
    return IterateState.at(sys, x_new, state.k + 1)


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
    try:
        d, *_ = np.linalg.lstsq(G, -state.fx[idx], rcond=None)
    except np.linalg.LinAlgError as exc:
        raise BreakdownError(f"least-squares factorization failed: {exc}",
                             iteration=state.k) from exc
    return IterateState.at(sys, state.x + d, state.k + 1)


def newton_step(sys: NonlinearSystem, state: IterateState) -> IterateState:
    """One full Newton-Raphson step via minimum-norm least squares."""
    J = sys.jacobian(state.x)
    try:
        d, *_ = np.linalg.lstsq(J, -state.fx, rcond=None)
    except np.linalg.LinAlgError as exc:
        raise BreakdownError(f"least-squares factorization failed: {exc}",
                             iteration=state.k) from exc
    return IterateState.at(sys, state.x + d, state.k + 1)


# -- run loop ----------------------------------------------------------


def run(sys: NonlinearSystem, x0: np.ndarray, cfg: SolverConfig) -> SolverReport:
    """Iterate the configured method until convergence, the iteration cap,
    or numerical breakdown.  History is recorded every iteration."""
    x = np.asarray(x0, dtype=float).copy()
    if x.shape != (sys.n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({sys.n},)")
    rng = np.random.default_rng(cfg.seed)
    method = cfg.method

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
    r2 = float(fx @ fx)
    k = 0
    while True:
        if r2 < cfg.tol_sq:
            return SolverReport(Status.CONVERGED, k, r2, history, iterates)
        if k >= cfg.max_iters:
            return SolverReport(Status.MAX_ITERS, k, r2, history, iterates)
        try:
            x_new, fx_new, block_size = _advance(sys, x, fx, r2, method, cfg.rho, rng)
        except (BreakdownError, DomainError) as exc:
            return SolverReport(Status.BREAKDOWN, k, r2, history, iterates, message=str(exc))
        history.append((k, r2, block_size, float(np.linalg.norm(x_new - x))))
        x, fx = x_new, fx_new
        r2 = float(fx @ fx)
        k += 1
        if iterates is not None:
            iterates.append(x.copy())


def _advance(sys, x, fx, r2, method, rho, rng):
    """One step of the chosen method on raw arrays; returns (x, fx, block size)."""
    if method in (Method.NGABK, Method.MRNABK):
        cfx = np.ascontiguousarray(fx)
        if method is Method.NGABK:
            idx, _ = kernels.ngabk_select(cfx)
        else:
            idx, _ = kernels.mrnabk_select(cfx, rho)
        x_new = _averaged_point(sys, x, cfx, idx)
        return x_new, sys.residual(x_new), len(idx)

    if method is Method.NRK:
        i = int(rng.choice(sys.m, p=fx * fx / r2))
        g = sys.row_gradient(i, x)
        w = g @ g
        if w < BREAKDOWN_EPS:
            raise BreakdownError(f"zero gradient in selected row {i}")
        x_new = x - (fx[i] / w) * g
        return x_new, sys.residual(x_new), 1

    if method is Method.RDCNK:
        sel = select_rdcnk(sys, IterateState(x=x, fx=fx, k=0))
        i = int(sel.indices[rng.integers(len(sel.indices))])
        g = sys.row_gradient(i, x)
        w = g @ g
        if w < BREAKDOWN_EPS:
            raise BreakdownError(f"zero gradient in selected row {i}")
        x_new = x - (fx[i] / w) * g
        return x_new, sys.residual(x_new), 1

    if method is Method.RBCNK:
        sel = select_ngabk(fx)
        state = rbcnk_step(sys, IterateState(x=x, fx=fx, k=0), sel)
        return state.x, state.fx, len(sel.indices)

    if method is Method.NEWTON:
        state = newton_step(sys, IterateState(x=x, fx=fx, k=0))
        return state.x, state.fx, sys.m

    raise ValueError(f"unknown method {method!r}")
