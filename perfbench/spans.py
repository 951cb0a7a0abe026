"""Spans around each module's public entry points, and the per-layer numbers.

The traced run wraps library functions from outside: ``src/`` is untouched.
A wrapper is installed wherever the name is looked up at call time:

* class attributes for ``Observable.gradient``, ``value_and_gradient`` and
  ``__call__``;
* module globals that callers resolve on each call (``spaces.metric``, which
  ``curvature`` looks up inside its metric lambda; ``dynamics.integrate``;
  ``cli.main``; ...);
* both bindings of a name another module imported by name
  (``coalgebra.run_table`` / ``symmetry.run_table``, ``phase.grad`` /
  ``coalgebra.grad`` / ``symmetry.grad``, ``spaces.hamiltonian`` /
  ``symmetry.hamiltonian``).

A span records a name, a start, an end and its parent.  Spans stay in memory
and are written out when the benchmark ends; a span's self time is its
duration minus its direct children's.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict

import workloads  # noqa: F401  (puts the library's src/ on the import path)
from curvkepler import cli, coalgebra, dynamics, kernel, phase, spaces, symmetry

_GRADIENT = ("phase.gradient", "phase.value_and_gradient", "phase.grad")


def _sim_time(trajectory):
    return {"sim_time": float(trajectory.times[-1]) if len(trajectory.times) else 0.0}


def _checks(report):
    return {"checks": len(report.results) * report.samples}


def _csv_bytes(text):
    return {"bytes": len(text.encode())}


# (owner, attribute, span name, note taken from the call's result)
_TARGETS = (
    (phase.Observable, "gradient", "phase.gradient", None),
    (phase.Observable, "value_and_gradient", "phase.value_and_gradient", None),
    (phase.Observable, "__call__", "phase.value", None),
    (phase, "grad", "phase.grad", None),
    (coalgebra, "grad", "phase.grad", None),
    (symmetry, "grad", "phase.grad", None),
    (coalgebra, "run_table", "coalgebra.run_table", _checks),
    (symmetry, "run_table", "coalgebra.run_table", _checks),
    (spaces, "curvature", "spaces.curvature", None),
    (spaces, "metric", "spaces.metric", None),
    (spaces, "hamiltonian", "spaces.hamiltonian", None),
    (symmetry, "hamiltonian", "spaces.hamiltonian", None),
    (symmetry, "verify_so4", "symmetry.verify", None),
    (symmetry, "verify_lrl_algebra", "symmetry.verify", None),
    (symmetry, "independence_rank", "symmetry.rank", None),
    (symmetry, "constants", "symmetry.constants", None),
    (dynamics, "integrate", "dynamics.integrate", _sim_time),
    (dynamics, "trajectory_csv", "dynamics.csv", _csv_bytes),
    (cli, "main", "cli.main", None),
)


class Tracer:
    """In-memory span log: parallel lists of name, parent, start, end, note."""

    def __init__(self):
        self.name, self.parent, self.start, self.end = [], [], [], []
        self.notes = {}
        self._stack = []

    def __len__(self):
        return len(self.name)

    def _wrap(self, fn, span_name, note):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(self.name)
            self.name.append(span_name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                self.notes[i] = note(result)
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block, then restore."""
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _TARGETS]
        try:
            for owner, attr, span_name, note in _TARGETS:
                setattr(owner, attr, self._wrap(owner.__dict__[attr], span_name, note))
            yield self
        finally:
            for owner, attr, fn in saved:
                setattr(owner, attr, fn)

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,parent,start_s,end_s\n")
            for i, (n, p, s, e) in enumerate(zip(self.name, self.parent,
                                                 self.start, self.end)):
                fh.write(f"{i},{n},{p},{s:.9f},{e:.9f}\n")


def aggregate(tracer, lo, hi):
    """Per-layer counts and times over spans [lo, hi) (one traced pass)."""
    name, parent = tracer.name, tracer.parent
    dur = [tracer.end[i] - tracer.start[i] for i in range(lo, hi)]
    child = [0.0] * (hi - lo)
    for i in range(lo, hi):
        if parent[i] >= lo:
            child[parent[i] - lo] += dur[i - lo]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_s = defaultdict(float)
    nested = defaultdict(int)        # (child name, parent name) -> count
    nested_s = defaultdict(float)
    notes = defaultdict(float)
    for i in range(lo, hi):
        n = name[i]
        pn = name[parent[i]] if parent[i] >= lo else ""
        key = n
        if n.startswith("phase.") and pn.startswith("phase."):
            continue                 # grad -> gradient: count the outer call
        if n in _GRADIENT:
            key = "phase.gradients"
        calls[key] += 1
        total[key] += dur[i - lo]
        self_s[key] += dur[i - lo] - child[i - lo]
        nested[key, pn] += 1
        nested_s[key, pn] += dur[i - lo]
        for k, v in tracer.notes.get(i, {}).items():
            notes[n, k] += v
    checks = notes["coalgebra.run_table", "checks"]
    sim_time = notes["dynamics.integrate", "sim_time"]
    grad_calls = calls["phase.gradients"]
    rhs = nested["phase.gradients", "dynamics.integrate"]
    table_evals = nested["phase.gradients", "coalgebra.run_table"]
    return {
        "phase.gradient_calls": grad_calls,
        "phase.gradient_s": total["phase.gradients"],
        "phase.gradient_us": 1e6 * total["phase.gradients"] / grad_calls if grad_calls else 0.0,
        "phase.value_calls": calls["phase.value"],
        "phase.value_s": total["phase.value"],
        "coalgebra.run_table_calls": calls["coalgebra.run_table"],
        "coalgebra.run_table_s": total["coalgebra.run_table"],
        "coalgebra.run_table_self_s": self_s["coalgebra.run_table"],
        "coalgebra.identity_checks": int(checks),
        "coalgebra.evals_per_check": table_evals / checks if checks else 0.0,
        "spaces.curvature_calls": calls["spaces.curvature"],
        "spaces.curvature_s": total["spaces.curvature"],
        "spaces.curvature_self_s": self_s["spaces.curvature"],
        "spaces.metric_calls": calls["spaces.metric"],
        "spaces.metric_s": total["spaces.metric"],
        "spaces.hamiltonian_s": total["spaces.hamiltonian"],
        "symmetry.verify_s": total["symmetry.verify"],
        "symmetry.verify_self_s": self_s["symmetry.verify"],
        "symmetry.rank_calls": calls["symmetry.rank"],
        "symmetry.rank_s": total["symmetry.rank"],
        "symmetry.constants_s": total["symmetry.constants"],
        "dynamics.integrate_calls": calls["dynamics.integrate"],
        "dynamics.integrate_s": total["dynamics.integrate"],
        "dynamics.integrate_self_s": self_s["dynamics.integrate"],
        "dynamics.rhs_evals": rhs,
        "dynamics.rhs_evals_per_time": rhs / sim_time if sim_time else 0.0,
        "dynamics.monitor_evals": nested["phase.value", "dynamics.integrate"],
        "dynamics.monitor_s": nested_s["phase.value", "dynamics.integrate"],
        "dynamics.csv_s": total["dynamics.csv"],
        "dynamics.csv_bytes": int(notes["dynamics.csv", "bytes"]),
        "cli.main_calls": calls["cli.main"],
        "cli.main_s": total["cli.main"],
        "cli.self_s": self_s["cli.main"],
    }


def count_duals(run_items):
    """KScalars built per gradient evaluation while ``run_items()`` runs.

    Wrapping ``KScalar.__init__`` costs about as much as the construction it
    counts, so this is a one-off pass kept apart from every timed run.
    """
    built = [0]
    init = kernel.KScalar.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    tracer = Tracer()
    kernel.KScalar.__init__ = counting_init
    try:
        with tracer.installed():
            run_items()
    finally:
        kernel.KScalar.__init__ = init
    grads = aggregate(tracer, 0, len(tracer))["phase.gradient_calls"]
    return built[0] / grads if grads else 0.0


def dual_mul_ns(repeats=7, loops=2000):
    """Median time of one ``KScalar * KScalar``, in nanoseconds."""
    ks = kernel.KScalar
    a = ks(1.25, (0.1, 0.2, 0.3, 0.4, 0.5, 0.6))
    b = ks(0.75, (0.6, 0.5, 0.4, 0.3, 0.2, 0.1))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        for _ in range(loops):
            a * b; a * b; a * b; a * b; a * b      # noqa: E702
            a * b; a * b; a * b; a * b; a * b      # noqa: E702
        samples.append((time.perf_counter_ns() - t0) / (10 * loops))
    return statistics.median(samples)
