import math

import numpy as np
import pytest

from nlkaczmarz import kernels


def _random_residuals(rng, count=200):
    for _ in range(count):
        m = int(rng.integers(1, 80))
        fx = rng.normal(scale=rng.choice([1e-6, 1.0, 1e6]), size=m)
        if np.any(fx != 0.0):
            yield fx


def _ngabk_reference(fx):
    """NGABK selection in scalar Python: exact sum, one component at a time."""
    scale = max(abs(float(v)) for v in fx)
    a2 = [(float(v) / scale) ** 2 for v in fx]
    r2 = math.fsum(a2)
    delta = 0.5 * (max(a2) / r2 + 1.0 / len(a2))
    return [i for i, a in enumerate(a2) if a >= delta * r2], delta


def test_ngabk_parity_with_pure_python(rng):
    for fx in _random_residuals(rng):
        idx_a, thr_a = kernels.ngabk_select(fx)
        idx_b, thr_b = _ngabk_reference(fx)
        assert np.array_equal(idx_a, idx_b)
        assert thr_a == pytest.approx(thr_b, rel=1e-15)


def test_ngabk_formula(rng):
    for fx in [rng.normal(size=25), *_random_residuals(rng)]:
        idx, thr = kernels.ngabk_select(fx)
        r2 = float(fx @ fx)
        expected_thr = 0.5 * (float(np.max(fx**2)) / r2 + 1.0 / len(fx))
        assert thr == pytest.approx(expected_thr, rel=1e-14)
        assert idx.dtype == np.intp
        assert np.array_equal(idx, np.flatnonzero(fx**2 >= thr * r2))


def test_mrnabk_formula(rng):
    for fx in _random_residuals(rng):
        # rho = 1 puts the largest component exactly on the threshold
        for rho in (float(rng.uniform(0.05, 1.0)), 1.0):
            idx, thr = kernels.mrnabk_select(fx, rho)
            assert thr == pytest.approx(rho * float(np.max(fx**2)), rel=1e-14)
            assert idx.dtype == np.intp
            assert np.array_equal(idx, np.flatnonzero(fx**2 >= thr))

