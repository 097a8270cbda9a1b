"""Numerical checks of the convergence theory.

Estimates the tangential-cone constant xi from sampled point pairs, checks
the block lower-bound inequality, evaluates the per-step contraction-factor
bounds for both averaged block methods (via dense singular values, so
diagnostic use only), and compares against the single-row bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .solvers import BlockSelection, Method, SolverReport, select_mrnabk, select_ngabk
from .system import NonlinearSystem, _shaped

DEGENERATE_SV_RTOL = 1e-12  # sigma_min below this times sigma_max counts as rank-deficient
SKIP_BELOW = 1e-14  # a residual difference below this carries no cone information


@dataclass
class ConeEstimate:
    """Empirical per-row tangential-cone constants over sampled pairs.

    Rows with no usable pair (all residual differences below the skip
    threshold) carry NaN and are excluded from the max.
    """

    xi_per_row: np.ndarray
    xi: float
    pairs_used: int

    @property
    def condition_holds(self) -> bool:
        return self.xi < 0.5


@dataclass
class Lemma1Check:
    lhs: float  # ||f_tau(x1) - f_tau(x2)||^2
    rhs: float  # ||f'_tau(x1)(x1 - x2)||^2 / (1 + xi^2)
    holds: bool


@dataclass
class StepBound:
    """Contraction-factor bound for one averaged block step."""

    rho_bound: float
    sigma_min_full: float
    sigma_max_block: float
    block_size: int
    applicable: bool  # False when the full Jacobian is rank-deficient
    jacobian_fro_sq: float  # ||J||_F^2 of the full Jacobian


@dataclass
class OrderingReport:
    rho_block: float
    rho_nrk: float
    strict: bool


def sample_pairs(box: np.ndarray, count: int, radius: float,
                 rng: np.random.Generator) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Draw point pairs inside the box: x1 uniform, x2 = x1 + perturbation
    of the given radius, clipped back into the box.  ``count`` must be 0 or
    more and ``radius`` finite and positive."""
    if count < 0:
        raise ValueError(f"pair count must be 0 or more, got {count}")
    if not 0.0 < radius < math.inf:
        raise ValueError(f"pair radius must be finite and positive, got {radius}")
    lo, hi = box[:, 0], box[:, 1]
    pairs = []
    for _ in range(count):
        x1 = rng.uniform(lo, hi)
        step = rng.normal(size=len(lo))
        step *= radius / max(np.linalg.norm(step), 1e-300)
        x2 = np.clip(x1 + step, lo, hi)
        pairs.append((x1, x2))
    return pairs


def estimate_cone(sys: NonlinearSystem,
                  x_pairs: Iterable[Tuple[np.ndarray, np.ndarray]]) -> ConeEstimate:
    """Estimate xi_i = max over pairs of
    |f_i(x1) - f_i(x2) - grad f_i(x1)^T (x1 - x2)| / |f_i(x1) - f_i(x2)|,
    skipping pairs whose denominator is below ``SKIP_BELOW`` per row."""
    return _cone(sys.m, (_pair_terms(sys, x1, x2) for x1, x2 in x_pairs))


def _pair_terms(sys: NonlinearSystem, x1, x2) -> Tuple[np.ndarray, np.ndarray]:
    """(f(x1) - f(x2), f'(x1)(x1 - x2)) for the pair (x1, x2)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    return sys.residual(x1) - sys.residual(x2), sys.jacobian(x1) @ (x1 - x2)


def _cone(m: int, terms: Iterable[Tuple[np.ndarray, np.ndarray]]) -> ConeEstimate:
    """``estimate_cone`` from each pair's ``_pair_terms``."""
    xi_per_row = np.full(m, np.nan)
    used = 0
    for df, lin in terms:
        usable = np.abs(df) >= SKIP_BELOW
        if not usable.any():
            continue
        used += 1
        ratio = np.abs(df - lin)[usable] / np.abs(df)[usable]
        rows = np.flatnonzero(usable)
        xi_per_row[rows] = np.fmax(xi_per_row[rows], ratio)
    finite = np.isfinite(xi_per_row)
    xi = float(xi_per_row[finite].max()) if finite.any() else float("nan")
    return ConeEstimate(xi_per_row=xi_per_row, xi=xi, pairs_used=used)


def check_lemma1(sys: NonlinearSystem, tau: np.ndarray, x1: np.ndarray,
                 x2: np.ndarray, xi: float, rel_slack: float = 1e-10) -> Lemma1Check:
    """Check ||f_tau(x1) - f_tau(x2)||^2 >= ||f'_tau(x1)(x1-x2)||^2 / (1+xi^2)."""
    _check_xi(xi)
    tau = sys._check_rows(tau)
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    df = (sys.residual(x1) - sys.residual(x2))[tau]
    return _lemma1(df, sys.gradient_rows(tau, x1) @ (x1 - x2), xi, rel_slack)


def _check_xi(xi: float) -> None:
    """Refuse a negative cone constant xi.  nan passes: it is
    ``estimate_cone``'s xi when no pair is usable, and makes no bound apply."""
    if xi < 0.0:
        raise ValueError(f"xi must be 0 or more, got {xi}")


def _lemma1(df: np.ndarray, lin: np.ndarray, xi: float, rel_slack: float) -> Lemma1Check:
    """``check_lemma1`` from f_tau(x1) - f_tau(x2) and f'_tau(x1)(x1 - x2)."""
    lhs = float(df @ df)
    rhs = float(lin @ lin) / (1.0 + xi * xi)
    return Lemma1Check(lhs=lhs, rhs=rhs, holds=lhs >= rhs * (1.0 - rel_slack))


def theorem_bound(sys: NonlinearSystem, x: np.ndarray, sel: BlockSelection,
                  xi: float, method: Method = Method.NGABK, rho: float = 0.1) -> StepBound:
    """Per-step contraction-factor bound at the iterate x via dense singular values.

    NGABK:  1 - (1-2xi)/(1+xi^2) * delta |tau| sigma_min^2(J) / sigma_max^2(J_tau)
    MRNABK: 1 - (1-2xi)/(1+xi^2) * rho |tau| sigma_min^2(J) / (m sigma_max^2(J_tau))

    A rank-deficient full Jacobian degenerates the bound to 1 (reported,
    not an error).  The selection's rows must be rows of the system, at
    least one.
    """
    method = Method(method)
    if method not in (Method.NGABK, Method.MRNABK):
        raise ValueError("bounds exist for the averaged block methods only")
    _check_xi(xi)
    if not sys._check_rows(sel.indices).size:
        raise ValueError("the selection has no rows")
    return _bound(_spectra(sys.jacobian(x), sel), sel, xi, method, rho, sys.m)


def _spectra(J: np.ndarray, sel: BlockSelection) -> tuple:
    """What a bound needs of the Jacobian J at its iterate: (the singular
    values of J, the largest one of its selected rows, ||J||_F^2)."""
    sv = np.linalg.svd(J, compute_uv=False)
    sigma_max_block = float(np.linalg.svd(J[np.asarray(sel.indices, dtype=np.intp)],
                                          compute_uv=False)[0])
    return sv, sigma_max_block, float((J * J).sum())


def _bound(spectra: tuple, sel: BlockSelection, xi: float, method: Method, rho: float,
           m: int) -> StepBound:
    """``theorem_bound`` from the ``_spectra`` of the iterate's Jacobian."""
    sv, sigma_max_block, fro_sq = spectra
    sigma_min = float(sv[-1])
    applicable = sigma_min > DEGENERATE_SV_RTOL * float(sv[0]) and xi < 0.5
    size = len(sel.indices)
    if method is Method.NGABK:
        factor = sel.threshold * size * sigma_min**2 / sigma_max_block**2
    else:
        factor = rho * size * sigma_min**2 / (m * sigma_max_block**2)
    if applicable:
        rho_bound = 1.0 - (1.0 - 2.0 * xi) / (1.0 + xi * xi) * factor
    else:
        rho_bound = 1.0
    return StepBound(rho_bound=rho_bound, sigma_min_full=sigma_min,
                     sigma_max_block=sigma_max_block, block_size=size,
                     applicable=applicable, jacobian_fro_sq=fro_sq)


def _select(fx: np.ndarray, method: Method, rho: float) -> BlockSelection:
    return select_ngabk(fx) if method is Method.NGABK else select_mrnabk(fx, rho)


def _cone_and_bounds(sys: NonlinearSystem, report: SolverReport,
                     pairs: List[Tuple[np.ndarray, np.ndarray]],
                     x_star: Optional[np.ndarray], method: Method,
                     rho: float) -> Tuple[ConeEstimate, List[StepBound]]:
    """The cone estimate from ``pairs`` and, when x* is given, the pairs
    (x_k, x*) of the run's iterates, and each step's theorem_bound under
    it.  Each iterate's residual and Jacobian are evaluated once, for its
    pair and its bound, and f(x*) once for all pairs."""
    terms = [_pair_terms(sys, x1, x2) for x1, x2 in pairs]
    f_star = None if x_star is None else sys.residual(x_star)
    steps = []
    for x in report.iterates[:len(report.history)]:
        fx = sys.residual(x)
        sel = _select(fx, method, rho)
        J = sys.jacobian(x)
        steps.append((sel, _spectra(J, sel)))
        if f_star is not None:
            terms.append((fx - f_star, J @ (x - x_star)))
    cone = _cone(sys.m, terms)
    return cone, [_bound(spectra, sel, cone.xi, method, rho, sys.m) for sel, spectra in steps]


def _nrk_rate(sigma_min: float, fro2: float, m: int, xi: float) -> float:
    return 1.0 - (1.0 - 2.0 * xi) / (1.0 + xi) ** 2 * sigma_min**2 / (m * fro2)


def nrk_bound(sys: NonlinearSystem, x: np.ndarray, xi: float) -> float:
    """Single-row contraction bound at the iterate x,
    1 - (1-2xi)/(1+xi)^2 * sigma_min^2(J) / (m ||J||_F^2)."""
    _check_xi(xi)
    J = sys.jacobian(x)
    sv = np.linalg.svd(J, compute_uv=False)
    return _nrk_rate(float(sv[min(sys.m, sys.n) - 1]), float((J * J).sum()), sys.m, xi)


def remark2_compare(bound_block: StepBound, sys: NonlinearSystem,
                    xi: float) -> OrderingReport:
    """Check the strict ordering rho_block < rho_nrk at the iterate
    ``bound_block`` was computed at: the single-row bound reuses its
    sigma_min(J) and ||J||_F^2 instead of evaluating J again.  The ordering
    is strict only where the block bound applies (xi < 1/2 and a Jacobian
    that is not rank-deficient); elsewhere both bounds are vacuous, and for
    xi > 1/2 the single-row rate exceeds 1."""
    _check_xi(xi)
    rho_nrk = _nrk_rate(bound_block.sigma_min_full, bound_block.jacobian_fro_sq, sys.m, xi)
    return OrderingReport(rho_block=bound_block.rho_bound, rho_nrk=rho_nrk,
                          strict=bound_block.applicable and bound_block.rho_bound < rho_nrk)


@dataclass
class VerifiedStep:
    """One trajectory step whose bound hypotheses were verified numerically."""

    k: int
    xi: float
    measured_ratio: float
    rho_bound: float


def verified_contraction_steps(sys: NonlinearSystem, report: SolverReport,
                               x_star: np.ndarray, method: Method = Method.NGABK,
                               rho: float = 0.1) -> List[VerifiedStep]:
    """Trajectory steps where the contraction theorem's hypotheses hold
    verifiably for the pair (x_k, x*), with the bound evaluated there.

    A step qualifies when every row's residual difference is usable
    (above ``SKIP_BELOW``), the resulting pairwise cone constant is below
    1/2, the block lower-bound inequality holds for the pair, and the full
    Jacobian is not rank-deficient.  On qualifying steps the measured
    ratio ||x_{k+1}-x*||^2 / ||x_k-x*||^2 must obey the bound (up to
    rounding); steps where a hypothesis fails carry no claim and are
    skipped.
    """
    method = Method(method)
    x_star = np.asarray(x_star, dtype=float)
    ratios = per_step_contraction(report, x_star)
    f_star = sys.residual(x_star)
    out: List[VerifiedStep] = []
    for k in range(len(ratios)):
        x = np.asarray(report.iterates[k], dtype=float)
        fx = sys.residual(x)
        df = fx - f_star
        if not (np.abs(df) >= SKIP_BELOW).all():
            continue
        J = sys.jacobian(x)
        lin = J @ (x - x_star)
        xi = float((np.abs(df - lin) / np.abs(df)).max())
        # the lemma on all rows, from the residuals and the Jacobian at hand
        if xi >= 0.5 or not _lemma1(df, lin, xi, 0.0).holds:
            continue
        sel = _select(fx, method, rho)
        bound = _bound(_spectra(J, sel), sel, xi, method, rho, sys.m)
        if not bound.applicable:
            continue
        out.append(VerifiedStep(k=k, xi=xi, measured_ratio=float(ratios[k]),
                                rho_bound=bound.rho_bound))
    return out


def per_step_contraction(report: SolverReport, x_star: np.ndarray) -> np.ndarray:
    """Measured ratios ||x_{k+1} - x*||^2 / ||x_k - x*||^2 along a run.

    Requires the run to have stored iterate snapshots, and x* of their
    shape.  The sequence is truncated at the first iterate coinciding with
    x* (zero denominator).
    """
    if report.iterates is None:
        raise ValueError("run was made without store_iterates=True")
    x_star = _shaped("x_star", x_star, report.iterates[0].shape)
    err2 = np.array([float(np.sum((x - x_star) ** 2)) for x in report.iterates])
    ratios = []
    for k in range(len(err2) - 1):
        if err2[k] == 0.0:
            break
        ratios.append(err2[k + 1] / err2[k])
    return np.asarray(ratios)
