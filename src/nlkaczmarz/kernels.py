"""The greedy block selections' O(m) NumPy passes, behind the public
``select_ngabk``/``select_mrnabk`` in :mod:`nlkaczmarz.solvers`."""
import numpy as np


def ngabk_select(fx):
    """Greedy relative-residual block selection.

    Returns (indices, delta) with
    delta = (max_i f_i^2 / ||f||^2 + 1/m) / 2 and
    indices = { i : f_i^2 >= delta * ||f||^2 }.
    """
    # scale by max|f_i| first: squaring raw components under/overflows for
    # |f_i| beyond ~1e±154 and would empty the selection
    scale = np.abs(fx).max()
    w = fx / scale
    a2 = w * w
    r2 = a2.sum()
    delta = 0.5 * (a2.max() / r2 + 1.0 / len(fx))
    return np.flatnonzero(a2 >= delta * r2), float(delta)


def mrnabk_select(fx, rho):
    """Relaxed max-residual block selection.

    Returns (indices, threshold) with threshold = rho * max_i f_i^2 and
    indices = { i : f_i^2 >= threshold }.
    """
    scale = np.abs(fx).max()
    w = fx / scale
    a2 = w * w
    indices = np.flatnonzero(a2 >= rho * a2.max())
    return indices, float(rho * (scale * scale))


# No solver calls block_direction: the averaged step takes its direction from
# NonlinearSystem.block_vjp.  It stays only because perfbench/spans.py wraps it
# by name.
def block_direction(f_tau, g_tau):
    """Averaged block direction d = sum_i (-f_i) grad f_i over the block.

    Returns (d, s2) where s2 = sum_i f_i^2 (the eta^T(-f) weight of the
    step scale); the update is x - (-s2 / ||d||^2) * d.
    """
    d = -(f_tau @ g_tau)
    return d, float(f_tau @ f_tau)
