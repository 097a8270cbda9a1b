import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlkaczmarz
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


def fresh_interpreter(*args, stdout=subprocess.PIPE):
    """A new interpreter run with ``args``, importing this checkout's package;
    its stdout goes to ``stdout`` (captured by default), its stderr is captured."""
    src = Path(nlkaczmarz.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=120)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
