"""Pseudoinverse-free greedy average block nonlinear Kaczmarz solvers."""

from .diagnostics import (
    ConeEstimate,
    Lemma1Check,
    OrderingReport,
    StepBound,
    VerifiedStep,
    check_lemma1,
    estimate_cone,
    nrk_bound,
    per_step_contraction,
    remark2_compare,
    sample_pairs,
    theorem_bound,
    verified_contraction_steps,
)
from .exceptions import BreakdownError, DomainError
from .problems import (
    Problem,
    get_problem,
    make_brown,
    make_h_equation,
    make_overdetermined_rational,
    make_singular_broyden,
)
from .solvers import (
    BlockSelection,
    Method,
    SolverConfig,
    SolverReport,
    Status,
    run,
    select_mrnabk,
    select_ngabk,
    select_rdcnk,
)
from .system import NonlinearSystem, fd_check

__all__ = [
    "BlockSelection", "BreakdownError", "ConeEstimate", "DomainError",
    "Lemma1Check", "Method", "NonlinearSystem", "OrderingReport", "Problem", "SolverConfig",
    "SolverReport", "StepBound", "Status", "VerifiedStep",
    "check_lemma1", "estimate_cone", "fd_check", "get_problem", "make_brown",
    "make_h_equation", "make_overdetermined_rational", "make_singular_broyden",
    "nrk_bound", "per_step_contraction", "remark2_compare", "run",
    "sample_pairs", "select_mrnabk", "select_ngabk", "select_rdcnk",
    "theorem_bound", "verified_contraction_steps",
]

__version__ = "0.1.0"
