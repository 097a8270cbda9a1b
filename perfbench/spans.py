"""In-process span tracing for the solve benchmark.

The tracer wraps the public layer boundaries of ``nlkaczmarz`` from the
outside: selection, direction and step functions as module attributes, and
each ``NonlinearSystem`` instance's evaluation methods together with the raw
problem callables they delegate to.  Nothing in the package is edited; the
wrappers exist only while :func:`installed` is active.

A span is (name, start ns, end ns, parent span index, solve id).  Spans stay
in memory, in flat integer arrays, until the run writes them out.  A span's
self time is its duration minus the part of it that its child spans cover.

This module imports no NumPy, so that importing it does not move work out of
the benchmark's timed set-up.
"""
from __future__ import annotations

import gzip
import importlib
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

ROOT_SPAN = "solvers.run"
STATS_SPAN = "trace.stats"  # the tracer's own counting, kept out of every layer

# (module, attribute) pairs that run() reaches through a module lookup
MODULE_FUNCTIONS = (
    ("kernels", "ngabk_select"),
    ("kernels", "mrnabk_select"),
    ("kernels", "block_direction"),
    ("solvers", "select_rdcnk"),
    ("solvers", "select_ngabk"),
    ("solvers", "rbcnk_step"),
)
SYSTEM_METHODS = ("residual", "row_gradient", "gradient_rows", "jacobian")


def _rows_stat(args, out, count_nnz):
    return {"rows": len(args[0])}


def _matrix_stat(args, out, count_nnz):
    # bytes are computed from the shape (8 per float64 entry), not measured
    stats = {"bytes": 8 * out.size}
    if count_nnz:
        stats.update(nnz=int((out != 0).sum()), nnz_entries=out.size)
    return stats


def _direction_stat(args, out, count_nnz):
    f_tau, g_tau = args
    return {"bytes": 8 * (g_tau.size + f_tau.size + out[0].size)}


STATS = {
    "system.gradient_rows": _rows_stat,
    "problems.gradient_rows": _matrix_stat,
    "problems.jacobian": _matrix_stat,
    "kernels.block_direction": _direction_stat,
}


class Tracer:
    """Records nested spans and per-layer counts for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.solve_id = array("q")
        self.counts: dict[str, dict[str, int]] = {}
        # counting nonzeros costs as much as building a sparse Jacobian, so a
        # run counts them on its first traced pass only
        self.count_nnz = True
        self.solve = -1
        self._stack: list[int] = []

    def __len__(self):
        return len(self.start)

    def _open(self, name: str, t0: int) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.solve_id.append(self.solve)
        return i

    def call(self, name, fn, *args):
        """Call ``fn(*args)`` inside a span named ``name``."""
        i = self._open(name, perf_counter_ns())
        self._stack.append(i)
        try:
            out = fn(*args)
        finally:
            self._stack.pop()
            self.end[i] = perf_counter_ns()
        stat = STATS.get(name)
        if stat is not None:
            j = self._open(STATS_SPAN, perf_counter_ns())
            tally = self.counts.setdefault(name, {})
            for key, value in stat(args, out, self.count_nnz).items():
                tally[key] = tally.get(key, 0) + value
            self.end[j] = perf_counter_ns()
        return out

    def wrap(self, name, fn):
        def traced(*args):
            return self.call(name, fn, *args)
        return traced

    def write(self, path):
        """Write every span as one gzip-compressed JSON line."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for i in range(len(self.start)):
                fh.write('{"name":"%s","start_ns":%d,"end_ns":%d,"parent":%d,"solve":%d}\n'
                         % (self.names[self.name[i]], self.start[i], self.end[i],
                            self.parent[i], self.solve_id[i]))


@contextmanager
def installed(tracer: Tracer, systems):
    """Route the layer boundaries of ``run()`` through ``tracer``.

    Module functions are replaced as attributes, so the solver's own
    module-level lookups reach the wrappers.  Each system gets instance
    attributes that shadow its evaluation methods, and its raw callables
    are wrapped in place.  Everything is restored on exit.
    """
    patched = []
    try:
        for module, attr in MODULE_FUNCTIONS:
            mod = importlib.import_module(f"nlkaczmarz.{module}")
            original = getattr(mod, attr)
            patched.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(f"{module}.{attr}", original))
        for system in systems:
            for method in SYSTEM_METHODS:
                setattr(system, method, tracer.wrap(f"system.{method}", getattr(system, method)))
                raw = getattr(system, "_" + method)
                if raw is not None:
                    patched.append((system, "_" + method, raw))
                    setattr(system, "_" + method, tracer.wrap(f"problems.{method}", raw))
        yield tracer
    finally:
        for obj, attr, original in reversed(patched):
            setattr(obj, attr, original)
        for system in systems:
            for method in SYSTEM_METHODS:
                system.__dict__.pop(method, None)


def self_times(start, end, parent):
    """Self time of every span: its duration minus the part of it that its
    children's intervals cover.  ``parent[i]`` is the index of span i's
    parent, or -1 for a root; spans are listed in the order they opened."""
    n = len(start)
    covered = array("q", bytes(8 * n))
    reach = array("q", start)  # end of the covered part of each span so far
    for i in range(n):
        p = parent[i]
        if p >= 0:
            lo = max(start[i], reach[p])
            hi = min(end[i], end[p])
            if hi > lo:
                covered[p] += hi - lo
                reach[p] = hi
    return array("q", (end[i] - start[i] - covered[i] for i in range(n)))


def layer_totals(tracer: Tracer):
    """Per span name: (self ns, calls), summed over every recorded span."""
    totals: dict[str, list[int]] = {}
    for nid, ns in zip(tracer.name, self_times(tracer.start, tracer.end, tracer.parent)):
        entry = totals.setdefault(tracer.names[nid], [0, 0])
        entry[0] += ns
        entry[1] += 1
    return totals
