"""Pseudoinverse-free greedy average block nonlinear Kaczmarz solvers.

``import nlkaczmarz`` loads the solvers, the problems and the system alone.
The numerical checks of the theory in :mod:`nlkaczmarz.diagnostics`, and
``fd_check``, are imported on first use: reading one of their names here
loads that module (PEP 562), so a solve never compiles or runs it.
"""

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
from .system import NonlinearSystem

_DIAGNOSTICS = (
    "ConeEstimate", "Lemma1Check", "OrderingReport", "StepBound", "VerifiedStep",
    "check_lemma1", "estimate_cone", "fd_check", "nrk_bound", "per_step_contraction",
    "remark2_compare", "sample_pairs", "theorem_bound", "verified_contraction_steps",
)

__all__ = [
    "BlockSelection", "BreakdownError", "DomainError", "Method", "NonlinearSystem",
    "Problem", "SolverConfig", "SolverReport", "Status",
    "get_problem", "make_brown", "make_h_equation", "make_overdetermined_rational",
    "make_singular_broyden", "run", "select_mrnabk", "select_ngabk", "select_rdcnk",
    *_DIAGNOSTICS,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """A name of :mod:`nlkaczmarz.diagnostics`, imported on first access."""
    if name in _DIAGNOSTICS:
        from . import diagnostics
        return getattr(diagnostics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
