"""NRK's inline row sampler against NumPy's ``Generator.choice``, its reference,
NRK's blocks of uniform draws against one ``Generator.random()`` per draw,
and RD-CNK's uniform draw against ``Generator.integers(k)``, which over one
value draws nothing."""
import math

import numpy as np
import pytest

from nlkaczmarz import BreakdownError, Method, SolverConfig, Status, get_problem, run
from nlkaczmarz.solvers import _DRAW_BLOCK, _sample_row


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
            want = int(ref.choice(len(fx), p=fx * fx / r2))
            assert _sample_row(fx, r2, ours.random()) == want
            draws += 1
        # both generators consumed the same stream
        assert ours.bit_generator.state == ref.bit_generator.state
    assert draws > 2500


def test_single_nonzero_weight_is_always_drawn():
    rng = np.random.default_rng(0)
    fx = np.zeros(9)
    fx[4] = -1e-120
    assert {_sample_row(fx, float(fx.dot(fx)), rng.random()) for _ in range(50)} == {4}


def test_draw_on_a_cumulative_weight_takes_the_next_row():
    # as in Generator.choice (side="right"): a zero-weight row is never drawn,
    # even by u = 0, and u equal to a cumulative weight moves past it
    fx = np.array([0.0, 1.0, 1.0])
    assert _sample_row(fx, 2.0, 0.0) == 1
    assert _sample_row(fx, 2.0, 0.5) == 2


def test_draw_depends_on_weight_ratios_only():
    # the cumulative weights are normalized, as in Generator.choice, so an
    # ||f||^2 scaled by a power of two (exact in binary) draws the same rows
    fx = np.random.default_rng(3).normal(size=40)
    r2 = float(fx.dot(fx))
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(200):
        assert _sample_row(fx, r2, a.random()) == _sample_row(fx, 4.0 * r2, b.random())


def test_overflowing_weights_raise_breakdown():
    fx = np.array([1e200, 1.0])
    with pytest.raises(BreakdownError) as exc:
        _sample_row(fx, float("inf"), np.random.default_rng(0).random())
    assert str(exc.value) == "||f||^2 = inf: the row weights are undefined"


def test_blocks_of_draws_equal_one_draw_at_a_time():
    # NRK takes its uniforms _DRAW_BLOCK at a time: across the block
    # boundaries, the same values in the same order as one rng.random() each
    blocks = np.random.default_rng(31)
    ref = np.random.default_rng(31)
    drawn = []
    while len(drawn) < 2500:
        drawn += blocks.random(_DRAW_BLOCK).tolist()
    assert len(drawn) > 2 * _DRAW_BLOCK
    assert drawn[:2500] == [ref.random() for _ in range(2500)]


def test_nrk_solve_is_a_loop_of_one_choice_per_step():
    # a solve longer than one block of draws picks, row for row, the rows of
    # one rng.choice per step and records the same history, bit for bit
    prob = get_problem("broyden", 50)
    sys, rows = prob.system, []
    # the solve evaluates rows through _eval_row_gradient, which calls the raw callable
    row_gradient = sys._row_gradient
    sys._row_gradient = lambda i, x: rows.append(i) or row_gradient(i, x)
    report = run(sys, prob.x0, SolverConfig(method=Method.NRK))
    assert report.status is Status.CONVERGED and report.iters > _DRAW_BLOCK

    ref = get_problem("broyden", 50).system
    rng = np.random.default_rng(0)
    x = prob.x0.copy()
    fx = ref.residual(x)
    r2 = float(fx.dot(fx))
    want_rows, history = [], []
    while r2 >= SolverConfig(Method.NRK).tol_sq:
        i = int(rng.choice(ref.m, p=fx * fx / r2))
        g = ref.row_gradient(i, x)
        x_new = x - (fx[i] / g.dot(g)) * g
        fx = ref.residual(x_new)
        dx = x_new - x
        history.append((len(history), r2, 1, math.sqrt(dx.dot(dx))))
        want_rows.append(i)
        x, r2 = x_new, float(fx.dot(fx))
    assert rows == want_rows
    assert report.history == history


def test_integers_from_zero_equals_integers_up_to_k():
    # RD-CNK draws its row with rng.integers(0, k): the same draws and the
    # same stream as rng.integers(k), for every capped-set size k
    ours = np.random.default_rng(11)
    ref = np.random.default_rng(11)
    for k in range(1, 3001):
        for _ in range(3):
            assert ours.integers(0, k) == ref.integers(k)
        assert ours.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("seed", [0, 7, 8, 2**70])
def test_integers_over_one_value_draws_nothing_from_the_stream(seed):
    # RD-CNK takes a one-row capped set's row without calling the generator
    rng = np.random.default_rng(seed)
    rng.random(3)  # a stream already drawn from, as at a later step
    before = rng.bit_generator.state
    assert rng.integers(0, 1) == 0
    assert rng.bit_generator.state == before


def _reference_row(fx, r2, u):
    """Generator.choice's row for the uniform draw u: the normalized
    cumulative weights searched for u."""
    cdf = (fx * fx / r2).cumsum()
    return int(np.searchsorted(cdf / cdf[-1], u, "right"))


def _boundary_cases():
    # (fx, r2): leading and trailing zero weights, m = 1, totals so small
    # (a few 5e-324) that u * t rounds up to the total t itself, and r2
    # scaled away from ||f||^2, so that the total is far from 1 and a
    # rounded u * t lands on either side of the row
    tiny = 2.0 ** -100  # tiny**2 / 2**874 = 5e-324
    yield np.array([3.0]), 9.0
    yield np.array([0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 0.0, 0.0]), 14.0
    yield np.array([tiny, tiny, tiny]), 2.0 ** 874
    yield np.array([tiny, 0.0, tiny, tiny, 0.0, 0.0]), 2.0 ** 874
    rng = np.random.default_rng(17)
    for _ in range(300):
        m = int(rng.integers(1, 60))
        fx = rng.normal(size=m) * 10.0 ** rng.uniform(-3, 3, size=m)
        fx[rng.random(m) < 0.3] = 0.0
        if fx.any():
            yield fx, float(fx.dot(fx)) * float(rng.choice([1.0, 3.0, 0.7, 10.0]))


def test_draw_at_each_cumulative_weight_and_its_neighbours_is_choices_row():
    rounded_up = 0
    for fx, r2 in _boundary_cases():
        cdf = (fx * fx / r2).cumsum()
        t = cdf[-1]
        for c in cdf / t:
            for u in (np.nextafter(c, -1.0), c, np.nextafter(c, 2.0)):
                if not 0.0 <= u < 1.0:
                    continue
                u = float(u)
                rounded_up += u * t == t
                assert _sample_row(fx, r2, u) == _reference_row(fx, r2, u), (fx, u)
    assert rounded_up  # the search for u * t did land past the last row
