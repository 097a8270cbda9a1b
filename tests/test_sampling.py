"""NRK's inline row sampler against NumPy's ``Generator.choice``, its reference."""
import numpy as np
import pytest

from nlkaczmarz import BreakdownError
from nlkaczmarz.solvers import _sample_row


def _weight_vectors(rng):
    yield np.array([3.0])  # m = 1
    yield np.array([0.0, 0.0, 2.5, 0.0])  # a single nonzero weight
    yield np.array([1e-150, 1e150, 1e-150])
    for _ in range(600):
        m = int(rng.integers(1, 2001))
        fx = rng.normal(size=m) * 10.0 ** rng.uniform(-150, 150, size=m)
        if rng.random() < 0.2:
            fx[rng.random(m) < 0.7] = 0.0
        if fx.any():
            yield fx


def test_inline_draw_equals_numpy_choice():
    ours = np.random.default_rng(2024)
    ref = np.random.default_rng(2024)
    draws = 0
    for fx in _weight_vectors(np.random.default_rng(7)):
        r2 = float(fx.dot(fx))
        for _ in range(5):
            assert _sample_row(fx, r2, ours, 0) == int(ref.choice(len(fx), p=fx * fx / r2))
            draws += 1
        # both generators consumed the same stream
        assert ours.bit_generator.state == ref.bit_generator.state
    assert draws > 2500


def test_single_nonzero_weight_is_always_drawn():
    rng = np.random.default_rng(0)
    fx = np.zeros(9)
    fx[4] = -1e-120
    assert {_sample_row(fx, float(fx.dot(fx)), rng, 0) for _ in range(50)} == {4}


class _Fixed:
    """A generator stand-in whose uniform draw is fixed."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_draw_on_a_cumulative_weight_takes_the_next_row():
    # as in Generator.choice (side="right"): a zero-weight row is never drawn,
    # even by u = 0, and u equal to a cumulative weight moves past it
    fx = np.array([0.0, 1.0, 1.0])
    assert _sample_row(fx, 2.0, _Fixed(0.0), 0) == 1
    assert _sample_row(fx, 2.0, _Fixed(0.5), 0) == 2


def test_draw_depends_on_weight_ratios_only():
    # the cumulative weights are normalized, as in Generator.choice, so an
    # ||f||^2 scaled by a power of two (exact in binary) draws the same rows
    fx = np.random.default_rng(3).normal(size=40)
    r2 = float(fx.dot(fx))
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        assert _sample_row(fx, r2, a, 0) == _sample_row(fx, 4.0 * r2, b, 0)


def test_overflowing_weights_raise_breakdown():
    fx = np.array([1e200, 1.0])
    with pytest.raises(BreakdownError) as exc:
        _sample_row(fx, float("inf"), np.random.default_rng(0), 12)
    assert exc.value.iteration == 12
