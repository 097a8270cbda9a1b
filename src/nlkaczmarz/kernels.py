"""Kernel backend selection: compiled extension if built, numpy fallback otherwise.

Set ``NLKACZMARZ_PURE_PYTHON=1`` to force the fallback (used by the kernel
benchmark and parity tests).
"""
import os

if os.environ.get("NLKACZMARZ_PURE_PYTHON"):
    from . import _kernels_py as _impl
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _kernels_py as _impl

COMPILED = _impl.COMPILED
BACKEND = "compiled" if COMPILED else "python"

ngabk_select = _impl.ngabk_select
mrnabk_select = _impl.mrnabk_select

# No solver calls block_direction: the averaged step takes its direction from
# NonlinearSystem.block_vjp.  It is kept, in its NumPy version only, for
# benchmarks/kernel_bench.py, tests/test_kernels.py and perfbench/spans.py,
# which wraps it by name.
from ._kernels_py import block_direction  # noqa: E402
