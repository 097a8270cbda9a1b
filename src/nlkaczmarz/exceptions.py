"""Exception types shared across the package."""


class DomainError(ArithmeticError):
    """A residual or gradient evaluation produced a non-finite value.

    Raised when the point is outside the natural domain of the map
    (e.g. a denominator hits zero), so callers can distinguish bad
    arithmetic from slow convergence.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class BreakdownError(ArithmeticError):
    """The update direction was annihilated (division by ~0).

    Occurs at singular-Jacobian points where the step denominator
    vanishes while the residual is still nonzero.  It carries its message
    alone: ``run()``, which catches it, reports the iteration.
    """
