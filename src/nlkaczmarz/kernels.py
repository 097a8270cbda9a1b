"""The greedy block selections' O(m) NumPy passes, behind the public
``select_ngabk``/``select_mrnabk`` in :mod:`nlkaczmarz.solvers`.  No
direction is computed here: the averaged step takes its direction from the
system's ``_eval_block_vjp``.  Under NumPy's default error state neither
selection writes a floating-point warning on any input, so the public
selections need no ``np.errstate`` of their own."""
import math

import numpy as np

ZERO_RESIDUAL = "selection from a zero residual: solver should have terminated"


def _scaled_squares(fx):
    """(max|f_i|, (f / max|f_i|)^2, the largest of those squares).

    Scaling by max|f_i| first keeps the squares from under/overflowing for
    |f_i| beyond ~1e±154, which would empty the selection.  For a finite
    nonzero scale the largest square is exactly 1.0, since x / x = 1 and
    |f_i| <= scale; only a scale of inf or nan needs the pass.  Raises
    ValueError for a zero residual (a scale of 0).  Only inf / inf can
    warn (the squares' underflow is ignored by default), so only that
    division ignores invalid values."""
    scale = np.maximum.reduce(np.abs(fx), initial=0.0)
    if scale == 0.0:
        raise ValueError(ZERO_RESIDUAL)
    if scale < math.inf:
        w = fx / scale
        return scale, w * w, 1.0
    with np.errstate(invalid="ignore"):
        w = fx / scale
    a2 = w * w
    return scale, a2, np.maximum.reduce(a2)


def ngabk_select(fx):
    """Greedy relative-residual block selection.

    Returns (indices, delta) with
    delta = (max_i f_i^2 / ||f||^2 + 1/m) / 2 and
    indices = { i : f_i^2 >= delta * ||f||^2 }.
    """
    _, a2, top = _scaled_squares(fx)
    r2 = np.add.reduce(a2)
    delta = 0.5 * (top / r2 + 1.0 / len(fx))
    return (a2 >= delta * r2).nonzero()[0], float(delta)


def mrnabk_select(fx, rho):
    """Relaxed max-residual block selection.

    Returns (indices, threshold) with threshold = rho * max_i f_i^2 and
    indices = { i : f_i^2 >= threshold }.  The threshold is a product of
    Python floats, which overflows to inf without a warning.
    """
    scale, a2, top = _scaled_squares(fx)
    scale = float(scale)
    return (a2 >= rho * top).nonzero()[0], rho * (scale * scale)


# no function: read only by perfbench/spans.py, which names it among the
# traced layers, as it does NonlinearSystem._jacobian
block_direction = None
