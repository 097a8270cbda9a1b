"""Every command line ends in a documented exit code, by property.

Each example draws one command's argv with edge values in its flags (nan,
inf, 0, negative numbers, unknown names, unwritable outputs), small sizes
and a small iteration cap, and runs it in-process.  It must exit with 0, 2,
3 or 4 and write no traceback; every output lands in the test's directory.
"""
import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nlkaczmarz import Method
from nlkaczmarz.cli import SUITE_SIZES, main
from nlkaczmarz.problems import PROBLEM_NAMES


def _mix(valid, edge):
    """A value from ``valid`` about three times in four, else one from
    ``edge``."""
    return st.sampled_from(valid * (3 * len(edge) // len(valid) + 1) + edge)


REAL = _mix(["0.1", "0.5", "1e-6"],
            ["0", "-1", "1e-300", "1", "2", "1e300", "nan", "-nan", "inf", "-inf", "x", ""])
COUNT = _mix(["0", "1", "7"], ["-1", "1.5", "x", "99999999999999999999"])
SIZE = _mix(["2", "3", "6"], ["0", "1", "-2", "x", ""])
ITERS = _mix(["1", "5", "30"], ["0", "-3", "x"])
PROBLEM = _mix(list(PROBLEM_NAMES), ["nope"])
METHOD = _mix([m.value for m in Method], ["nope"])
X0 = _mix(["default", "zeros", "const:-1"],
          ["const:0", "const:1e200", "const:-1e300", "const:nan", "const:inf", "const:", "nope"])
PARAM = _mix(["c=0.5"], ["c=0", "c=1", "c=nan", "c=inf", "c=-1", "c", "c=x", "nope=1"])
# relative outputs land in the test's directory; "blocker" is a file there
OUT = _mix(["out.json", "sub/dir/out.csv"], ["blocker/out.json", ""])


def _list(values):
    return st.lists(values, min_size=1, max_size=2).map(",".join)


def _flag(name, value):
    # --name=value, so that a value such as -2 is not read as a flag
    return value.map(lambda v: [f"--{name}={v}"])


def _argv(command, required, **options):
    """``command``'s argv: each required flag, any subset of the optional
    ones, at times a flag that no command knows, and always the iteration
    cap, so that no draw runs the default 200 000 steps."""
    optional = [st.one_of(st.just([]), st.just([]), _flag(name.replace("_", "-"), value))
                for name, value in options.items()]
    unknown = st.sampled_from([[]] * 5 + [["--nope=1"]])
    return st.tuples(*required, *optional, unknown, _flag("max-iters", ITERS)).map(
        lambda parts: [command] + [token for part in parts for token in part])


ARGV = st.one_of(
    _argv("solve", [_flag("problem", PROBLEM), _flag("n", SIZE), _flag("method", METHOD)],
          seed=COUNT, x0=X0, history=OUT, tol_sq=REAL, out=OUT, rho=REAL, param=PARAM),
    _argv("bench", [_flag("suite", _mix(list(SUITE_SIZES) + ["all"], ["nope"])),
                    _flag("sizes", _list(SIZE)),
                    _flag("repeats", _mix(["1", "2"], ["0", "-1", "x"]))],
          seed_base=COUNT, json=OUT, tol_sq=REAL, out=OUT, rho=REAL),
    _argv("rho-sweep", [_flag("sizes", _list(SIZE))],
          problem=PROBLEM, rhos=_list(REAL), json=OUT, tol_sq=REAL, out=OUT, param=PARAM),
    _argv("diagnose", [_flag("problem", PROBLEM),
                       _flag("n", _mix(["2", "3", "6"], ["0", "1", "-2", "x", "", "3000"])),
                       _flag("pairs", _mix(["0", "3"], ["-1", "x"]))],
          method=METHOD, pair_radius=REAL, seed=COUNT, tol_sq=REAL, out=OUT, rho=REAL,
          param=PARAM),
)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=ARGV)
@example(argv=["solve", "--problem=broyden", "--n=6", "--method=nrk", "--x0=const:nan",
               "--max-iters=5"])
@example(argv=["diagnose", "--problem=brown", "--n=3000", "--max-iters=5"])
def test_every_command_line_ends_in_a_documented_exit_code(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("NLKACZMARZ_OUTDIR", str(tmp_path))
    (tmp_path / "blocker").touch()
    err = io.StringIO()
    # anything but a SystemExit escaping main() would be a traceback
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
