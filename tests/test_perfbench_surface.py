"""The package surface that the solve benchmark's tracer wraps.

``perfbench/spans.py`` routes ``run()`` through its spans by replacing the
module functions listed in ``MODULE_FUNCTIONS`` and, on each system, the
methods listed in ``SYSTEM_METHODS`` and the raw callables behind them.  A
change under ``src/`` that renames or drops one of these breaks
``perfbench/run.py --trace 1``; here it fails the package's own tests.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

from nlkaczmarz import Method, SolverConfig, get_problem, run
from nlkaczmarz.problems import PROBLEM_NAMES

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_tracer_enters_and_leaves_every_problems_system(spans):
    problems = [get_problem(name, 6) for name in PROBLEM_NAMES]
    systems = [p.system for p in problems]
    functions = {}
    for module, attr in spans.MODULE_FUNCTIONS:
        mod = importlib.import_module(f"nlkaczmarz.{module}")
        functions[mod, attr] = getattr(mod, attr)
    raw = [{m: getattr(s, "_" + m) for m in spans.SYSTEM_METHODS} for s in systems]
    tracer = spans.Tracer()
    with spans.installed(tracer, systems):
        assert all(getattr(mod, attr) is not fn for (mod, attr), fn in functions.items())
        assert all(m in vars(s) for s in systems for m in spans.SYSTEM_METHODS)
        # a few traced steps of every method on every system
        for p in problems:
            for method in Method:
                run(p.system, p.x0, SolverConfig(method=method, max_iters=3))
    # run() evaluates residuals, single rows and RB-CNK's row blocks through the
    # _eval_* methods, which call the raw callables that the tracer wraps in place
    assert {"problems.residual", "problems.row_gradient", "problems.gradient_rows",
            "system.jacobian"} <= set(tracer.names)
    assert set(spans.layer_totals(tracer)) == set(tracer.names)
    # and everything is restored on exit
    assert all(getattr(mod, attr) is fn for (mod, attr), fn in functions.items())
    for s, callables in zip(systems, raw):
        assert not set(spans.SYSTEM_METHODS) & set(vars(s))
        assert all(getattr(s, "_" + m) is fn for m, fn in callables.items())


@pytest.mark.parametrize("method,names", [
    (Method.NGABK, ("solvers.select_ngabk", "kernels.ngabk_select")),
    (Method.MRNABK, ("kernels.mrnabk_select",)),
    (Method.RBCNK, ("solvers.select_ngabk", "kernels.ngabk_select", "solvers.rbcnk_step")),
])
def test_each_step_calls_the_traced_functions(spans, method, names):
    # a step holding these functions from import time would bypass the
    # wrappers and leave their spans empty
    problem = get_problem("h-equation", 20)
    tracer = spans.Tracer()
    with spans.installed(tracer, [problem.system]):
        report = run(problem.system, problem.x0, SolverConfig(method=method))
    calls = {name: count for name, (_, count) in spans.layer_totals(tracer).items()}
    assert report.iters > 0
    assert {name: calls.get(name, 0) for name in names} == dict.fromkeys(names, report.iters)
