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
