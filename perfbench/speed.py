"""Yardsticks for the CPU speed a benchmark process is getting.

On a small shared machine the speed a process gets drifts by up to 2x over
tens of seconds.  A yardstick is a fixed piece of code, independent of the
program under test, timed just before each solve; a wall time t measured
beside a yardstick time q is reported as t * REF_NS / q.  Each yardstick
takes about REF_NS at its fastest on an idle 2-vCPU x86-64 VM.  The
scaled time moves with the program's own cost, as wall time does, but much
less with the machine's drift.

A slowdown does not hit all code alike, so no one yardstick tracks every
workload equally well; ``cells.py`` picks one per workload by measurement.
NumPy is imported only when a NumPy yardstick is first timed, so timing the
loop yardstick around the set-up does not move the import out of it.
"""
from time import perf_counter_ns


def loop_ns() -> int:
    """A pure-Python integer loop."""
    t0 = perf_counter_ns()
    acc = 0
    for i in range(15_000):
        acc += i * i % 7
    return perf_counter_ns() - t0


def kaczmarz_ns() -> int:
    """Sixty single-row Kaczmarz steps on a fixed 60 x 40 linear system: the
    small NumPy calls from a Python loop that a row-action solver makes."""
    import numpy as np

    t0 = perf_counter_ns()
    A = np.random.default_rng(0).standard_normal((60, 40))
    b = A @ np.ones(40)
    rng = np.random.default_rng(1)
    x = np.zeros(40)
    with np.errstate(all="ignore"):
        for _ in range(60):
            f = A @ x - b
            i = int(rng.choice(60, p=f * f / float(f @ f)))
            g = A[i]
            x = x - (f[i] / (g @ g)) * g
    return perf_counter_ns() - t0


REF_NS = 900_000
YARDSTICKS = {"loop": loop_ns, "kaczmarz": kaczmarz_ns}


def speed(kind: str) -> float:
    """How much faster than the reference speed the process runs right now."""
    return REF_NS / YARDSTICKS[kind]()
