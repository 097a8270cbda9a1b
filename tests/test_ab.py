"""The summary of ``benchmarks/ab.py``, the alternating-pairs comparison of
two checkouts, on fixed numbers."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

METRICS = [{"name": "pass_ms.p50", "better": "lower"},
           {"name": "iters_per_s", "better": "higher"},
           {"name": "iters_total", "better": "lower"}]


def _runs(p50, rate, total):
    return [{"pass_ms.p50": a, "iters_per_s": b, "iters_total": c}
            for a, b, c in zip(p50, rate, total)]


def test_summary_gives_quartiles_and_pairs_won():
    parent = _runs([240.0, 236.0, 238.0, 250.0, 230.0],
                   [70.0, 72.0, 71.0, 69.0, 73.0], [17549] * 5)
    change = _runs([210.0, 236.0, 212.0, 209.0, 231.0],
                   [80.0, 72.0, 79.0, 68.0, 82.0], [17549] * 5)
    rows = ab.summary(parent, change, METRICS)
    assert [name for name, *_ in rows] == ["pass_ms.p50", "iters_per_s", "iters_total"]
    p50, rate, total = rows
    # inclusive quartiles of 230, 236, 238, 240, 250 and of 209, 210, 212, 231, 236
    assert p50[1:] == ((236.0, 238.0, 240.0), (210.0, 212.0, 231.0), 3)
    # a tie (236 and 72) counts for neither side; higher is better for a rate
    assert rate[3] == 3
    assert total[1:] == ((17549,) * 3, (17549,) * 3, 0)


def test_quartiles_of_one_and_of_two_runs():
    assert ab.quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert ab.quartiles([1.0, 3.0]) == pytest.approx((1.5, 2.0, 2.5))


def test_pairs_must_be_positive(capsys):
    with pytest.raises(SystemExit):
        ab.main(["a", "b", "--workload", "row-stream", "--pairs", "0"])
    assert "--pairs must be positive" in capsys.readouterr().err


def _one(name, values):
    return [{name: v} for v in values]


PARENT = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


@pytest.mark.parametrize("change,verdict", [
    # 10/10 pairs won, the medians 10 apart against the parent's q3 - q1 = 4.5
    ([v - 10.0 for v in PARENT], "gain"),
    # 9/10 is enough
    ([v - 10.0 for v in PARENT[:9]] + [200.0], "gain"),
    # 8/10 is not, however far the medians are apart
    ([v - 10.0 for v in PARENT[:8]] + [200.0, 200.0], "hold"),
    # 10/10 pairs won, the medians 4 apart: within the parent's spread
    ([v - 4.0 for v in PARENT], "hold"),
    # the median 26% worse against a bound of 25%
    ([v * 1.26 for v in PARENT], "worse"),
    # 24% worse: within the bound
    ([v * 1.24 for v in PARENT], "hold"),
    # every pair a tie
    (PARENT, "hold"),
], ids=["gain", "gain-9-of-10", "hold-8-of-10", "hold-within-spread", "worse",
        "hold-within-bound", "all-tie"])
def test_summary_gives_each_metric_its_verdict(change, verdict):
    metrics = [{"name": "pass_ms.p50", "better": "lower", "bound": 0.25}]
    (row,) = ab.summary(_one("pass_ms.p50", PARENT), _one("pass_ms.p50", change), metrics)
    assert row.verdict == verdict


def test_the_verdict_follows_the_metric_direction():
    metrics = [{"name": "iters_per_s", "better": "higher", "bound": 0.25}]
    verdicts = [ab.summary(_one("iters_per_s", PARENT), _one("iters_per_s", change),
                           metrics)[0].verdict
                for change in ([v + 10.0 for v in PARENT], [v * 0.74 for v in PARENT])]
    assert verdicts == ["gain", "worse"]


def test_a_metric_without_a_bound_is_never_worse():
    parent = _runs([240.0] * 3, [70.0] * 3, [100] * 3)
    change = _runs([480.0] * 3, [7.0] * 3, [200] * 3)
    assert [row.verdict for row in ab.summary(parent, change, METRICS)] == ["hold"] * 3


@pytest.mark.parametrize("environ,compiled", [
    ({"PYTHONDONTWRITEBYTECODE": "1"},
     "PYTHONDONTWRITEBYTECODE=1: no run writes bytecode, so every set-up compiles the "
     "package unless the checkout holds it already"),
    ({}, "PYTHONDONTWRITEBYTECODE unset: each checkout's first run writes bytecode, and "
         "the later set-ups read it instead of compiling"),
    ({"PYTHONDONTWRITEBYTECODE": ""}, "PYTHONDONTWRITEBYTECODE unset: each checkout's first "
                                      "run writes bytecode, and the later set-ups read it "
                                      "instead of compiling"),
], ids=["set", "unset", "empty"])
def test_the_header_says_whether_the_set_ups_compiled_the_package(environ, compiled):
    # setup_s includes the import, so the same trees read differently with
    # and without cached bytecode
    assert ab.header("dense-block", 10, 30, 7, environ).splitlines() == [
        "dense-block, 10 pairs of 30 s, seed 7; quartiles as q1 / median / q3",
        f"{compiled}; setup_s includes any compile",
    ]
