import numpy as np
import pytest

from nlkaczmarz import NonlinearSystem


def make_affine(A, b):
    """NonlinearSystem for f(x) = A x - b (exactly linear rows)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    return NonlinearSystem(
        m, n,
        residual=lambda x: A @ x - b,
        row_gradient=lambda i, x: A[i].copy(),
        gradient_rows=lambda idx, x: A[idx].copy(),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
