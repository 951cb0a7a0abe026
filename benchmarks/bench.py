"""Time each row of curvkepler's cost table and write the medians to JSON.

Usage (from the repository root):

    python3 benchmarks/bench.py --against ../parent/src --out bench.json
    python3 benchmarks/bench.py --label change --out bench.json
    python3 benchmarks/bench.py --src ../parent/src --label parent --out bench.json

Every row is timed ``--repeats`` times (default 5); the file keeps each
repeat and their median.  Around each repeat the script reads
``perfbench/hostspeed.py``'s host-speed index (1.0 on the nominal host, 1.2
on one 20% slower) ``_HOST_READINGS`` times just before and as many times
just after, and stores the median of those readings in ``host_index``,
beside ``repeats``; ``scaled_median`` is the median of each repeat divided
by its index, so host drift between repeats moves it less than the raw
``median``, and one stray reading does not move it.  A row timed in
rounds spread over seconds (the ``run_tables_*`` rows) takes the readings
around each round instead, keeps the round with the least scaled time and
stores that round's index.  The ``tier1_suite`` row, a pytest run of some
20 s, keeps its readings in ``host_index`` but reports its raw median as
``scaled_median`` too: readings taken in the moments around so long a run
swing more than the run itself on a shared host, and dividing by them once
turned a 9% fall of the raw median into a 20% rise.  A run is stored
under its ``--label``, and the runs with other labels already in the file
are kept, so one file holds the parent and the change measured on the same
machine.  With ``--against``, the tree given there (stored as ``parent``)
and ``--src`` are timed alternately, one fresh interpreter per repeat and
tree, so drift of the host over the minutes of a session moves both runs
alike; use that mode for any comparison between two trees.  A run records the git
SHA of the tree that holds ``--src`` (``-dirty`` when tracked files differ
from it; empty outside a git checkout), the SHA-256 of the tree's ``*.py``
files (``src_sha256``, the recipe ``perfbench/run.py`` uses), the Python and
numpy versions and the host.  The script needs
only the library, numpy and this checkout's ``perfbench/hostspeed.py``; the ``tier1_suite`` row runs pytest on that
tree's ``tests/`` in a fresh interpreter.

In-process rows run once untimed first, so lazily built state (compiled
code, caches) is warm, as it is for a library caller that repeats a call;
``verify_all_fresh_process`` times the same call as the first one in a new
interpreter (imports excluded), as one CLI invocation pays it, and
``verify_all_new_params_in_process`` at a ``z`` the process has never seen,
so work moved into the per-process caches still shows.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import tempfile
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _git(src, *args):
    try:
        out = subprocess.run(["git", "-C", src, *args], capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return ""
    return out.stdout.strip()


def _tree_sha256(src):
    """SHA-256 over the ``*.py`` files under ``src``, each file's path
    relative to ``src`` and then its bytes, in sorted path order: the
    ``src_sha256`` recipe of ``perfbench/run.py``, so it names a tree that
    is not a git checkout too."""
    h = hashlib.sha256()
    for path in sorted(pathlib.Path(src).rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _per_call(fn, number):
    """Seconds per call of ``fn`` over ``number`` back-to-back calls."""
    t0 = time.perf_counter()
    for _ in range(number):
        fn()
    return (time.perf_counter() - t0) / number


def _median_call(fn, number):
    """Median seconds of ``number`` calls of ``fn``, each timed on its own:
    for calls of a few ms, where a burst of host load would move a mean."""
    return statistics.median(_timed(fn) for _ in range(number))


# Seconds between the rounds of _least_scaled_median_call.
_ROUND_GAP_S = 0.5


def _least_scaled_median_call(hostspeed, fn, rounds, number):
    """(median, host index) of the round with the least scaled time among
    ``rounds`` medians of ``number`` calls each, the rounds
    ``_ROUND_GAP_S`` apart, each with the host readings around it: for
    calls of well under a ms.  A shared host can run slower for seconds at a
    time, longer than a median of many such calls, so rounds spread over
    seconds catch it at its usual speed, and each round is scaled by the
    readings taken next to it rather than by readings seconds away."""
    best = None
    for i in range(rounds):
        if i:
            time.sleep(_ROUND_GAP_S)
        t, index = _scaled_repeat(hostspeed, lambda: _median_call(fn, number))
        if best is None or t / index < best[0] / best[1]:
            best = t, index
    return best


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


# Host-speed readings taken just before each repeat, and as many just after.
_HOST_READINGS = 2


def _scaled_repeat(hostspeed, fn):
    """``fn()``'s result and the median of the host-speed readings around it."""
    readings = [hostspeed.sample()[0] for _ in range(_HOST_READINGS)]
    result = fn()
    readings += [hostspeed.sample()[0] for _ in range(_HOST_READINGS)]
    return result, statistics.median(readings)


class Rows:
    """The cost-table rows; each method times one repeat of its row."""

    def __init__(self, src, tmp, hostspeed):
        from curvkepler import cli, coalgebra, codegen, kernel
        from curvkepler.dynamics import IntegratorConfig, integrate
        from curvkepler.phase import Chart, Observable, PhaseState
        from curvkepler.spaces import (Family, HamiltonianSpec, SpaceParams,
                                       chart_guard, curvature, hamiltonian)
        from curvkepler.symmetry import constants, verify_lrl_algebra

        self.src, self.tmp, self.cli, self.hostspeed = src, tmp, cli, hostspeed
        self.integrate, self.config = integrate, IntegratorConfig
        self.lrl_suite = verify_lrl_algebra
        self.params = SpaceParams.preset("spherical", gamma=0.45)
        spec = HamiltonianSpec(Family.KEPLER_CC, self.params)
        self.h = hamiltonian(spec, Chart.POLAR_CONSTANT)
        self.h_dual = Observable(self.h.fn, chart=self.h.chart)
        self.monitors = dict(constants(spec, Chart.POLAR_CONSTANT), H=self.h)
        self.compiled = list(self.monitors.values())
        # An observable keeps its code in these slots.  Filled here from
        # codegen.compile_roots, the rows time the compiled code on a tree
        # that compiles on first use and on one that compiles on request.
        self.h._compiled = codegen.compile_roots([self.h._node], (True,))
        for m in self.compiled:
            m._values = codegen.compile_roots([m._node], (False,))
        if not (self.h._compiled and all(m._values for m in self.compiled)):
            raise RuntimeError("the Hamiltonian or a monitor does not compile")
        self.guard = chart_guard(Chart.POLAR_CONSTANT, self.params)
        self.state = PhaseState.polar_constant(1.1, 1.2, 0.4, 0.2, 0.4, 0.9)
        self.a, self.b = kernel.seeded((1.3, 0.7))
        self.new_z = (0.2 + i / 997 for i in itertools.count())
        self.curvature_point = functools.partial(
            curvature, Chart.POLAR_VARIABLE, "nc", (1.0, 1.1, 0.8), SpaceParams(-0.4, 1.0))
        # The (jobs, sampler) of each run_tables batch of _VERIFY_10, as the CLI builds them.
        self.run_tables, self.batches = coalgebra.run_tables, []
        coalgebra.run_tables = lambda jobs, sampler, samples, seed: self.batches.append(
            (jobs, sampler)) or self.run_tables(jobs, sampler, samples, seed)
        try:
            self._cli(*self._VERIFY_10)
        finally:
            coalgebra.run_tables = self.run_tables

    # micro rows, in microseconds per call
    def kscalar_mul(self):
        a, b = self.a, self.b
        return 1e6 * _per_call(lambda: a * b, 20000)

    def h_gradient_compiled(self):
        h, s = self.h, self.state
        return 1e6 * _per_call(lambda: h.gradient(s), 5000)

    def h_gradient_dual(self):
        h, s = self.h_dual, self.state
        return 1e6 * _per_call(lambda: h.gradient(s), 2000)

    def monitors_7_evaluator(self):
        mons, coords = self.compiled, self.state.coords
        return 1e6 * _per_call(lambda: [m.fn(*coords) for m in mons], 500)

    def monitors_7_compiled(self):
        mons, s = self.compiled, self.state
        return 1e6 * _per_call(lambda: [m(s) for m in mons], 2000)

    # orbit rows: the README orbit (spherical, rtol 1e-12)
    def _orbit(self, t_end, stride, monitors):
        cfg = self.config(rel_tol=1e-12, abs_tol=1e-14, t_end=t_end,
                          sample_stride=stride)
        return self.integrate(self.h, self.state, cfg, monitors=monitors,
                              domain_guard=self.guard)

    def dp54_step(self):
        t0 = time.perf_counter()
        tr = self._orbit(2.0, 10, None)
        steps = tr.stats.accepted + tr.stats.rejected
        return 1e3 * (time.perf_counter() - t0) / steps

    def orbit_t20_monitors(self):
        return _timed(lambda: self._orbit(20.0, 10, self.monitors))

    def orbit_t20(self):
        return _timed(lambda: self._orbit(20.0, 10, None))

    # CLI calls, in seconds
    def _cli(self, *argv):
        # simulate takes no --out: it writes --csv and --summary
        out = [] if argv[0] == "simulate" else ["--out", os.path.join(self.tmp, "out")]
        code = self.cli.main([*argv, *out])
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}")

    def simulate_in_process(self):
        """The README orbit through `simulate`: every step sampled, with the
        seven monitors, the CSV and the summary written."""
        return _timed(lambda: self._cli(
            "simulate", "--family", "kepler-cc", "--preset", "spherical",
            "--gamma", "0.45", "--state", "1.1,1.2,0.4,0.2,0.4,0.9", "--t-end", "20",
            "--stride", "1", "--csv", os.path.join(self.tmp, "orbit.csv"),
            "--summary", os.path.join(self.tmp, "summary.json")))

    _VERIFY = ("verify", "--suite", "all", "--preset", "spherical",
               "--samples", "100", "--seed", "7")
    _VERIFY_10 = ("verify", "--suite", "all", "--preset", "hyperbolic", "--samples", "10",
                  "--seed", "7")

    def verify_all_in_process(self):
        return _timed(lambda: self._cli(*self._VERIFY))

    def verify_all_samples10_in_process(self):
        """A verify-sweep item's shape: all suites at 10 samples (median call)."""
        return 1e3 * _median_call(lambda: self._cli(*self._VERIFY_10), 100)

    def _run_tables_samples10(self, batch):
        jobs, sampler = self.batches[batch]
        t, index = _least_scaled_median_call(
            self.hostspeed, lambda: self.run_tables(jobs, sampler, 10, 7), 5, 60)
        return 1e6 * t, index

    def run_tables_beltrami_samples10(self):
        """The Beltrami batch of verify_all_samples10_in_process (sl2z on one
        and three sites, casimirs) as one warm run_tables call (of 5 medians
        of 60 calls, 0.5 s apart, the least scaled one, with its index)."""
        return self._run_tables_samples10(0)

    def run_tables_polar_samples10(self):
        """The polar batch of verify_all_samples10_in_process (so4, lrl) as
        one warm run_tables call (of 5 medians of 60 calls, 0.5 s apart, the
        least scaled one, with its index)."""
        return self._run_tables_samples10(1)

    def report_text_verify_all_samples10(self):
        """The report writer alone (median call), on the document of
        verify_all_samples10_in_process, captured from the CLI once per repeat."""
        docs, real = [], self.cli._dump_json
        self.cli._dump_json = lambda doc, path: docs.append(doc)
        try:
            self._cli(*self._VERIFY_10)
        finally:
            self.cli._dump_json = real
        return 1e6 * _median_call(lambda: self.cli._json_text(docs[0]), 300)

    def rank_samples50_in_process(self):
        """A verify-sweep rank item's shape: 50 samples (median call)."""
        return 1e3 * _median_call(lambda: self._cli(
            "rank", "--family", "kepler-cc", "--preset", "spherical", "--gamma", "0.5",
            "--samples", "50", "--append-lrl", "L2", "--seed", "7"), 100)

    def verify_all_new_params_in_process(self):
        """verify --suite all at a z this process has not seen: the builder
        and lowering caches miss, the compiled-code cache hits by structure."""
        z = f"{next(self.new_z):.6f}"
        return _timed(lambda: self._cli("verify", "--suite", "all", "--z", z, "--kappa2", "1",
                                        "--samples", "100", "--seed", "7"))

    def rank_in_process(self):
        return _timed(lambda: self._cli(
            "rank", "--family", "kepler-cc", "--preset", "spherical", "--gamma", "0.45",
            "--samples", "200", "--append-lrl", "L1", "--seed", "7"))

    def verify_lrl_algebra(self):
        return _timed(lambda: self.lrl_suite(self.params, samples=100, seed=7))

    def verify_all_fresh_process(self):
        """The first call in a new interpreter (imports excluded): cold caches."""
        code = ("import sys, time; from curvkepler.cli import main; "
                "t = time.perf_counter(); code = main(sys.argv[1:]); "
                "print(time.perf_counter() - t); sys.exit(code)")
        argv = [sys.executable, "-c", code, *self._VERIFY,
                "--out", os.path.join(self.tmp, "fresh")]
        env = dict(os.environ, PYTHONPATH=self.src)
        out = subprocess.run(argv, env=env, check=True, capture_output=True, text=True)
        return float(out.stdout)

    def curvature_5x5x5(self):
        return _timed(lambda: self._cli(
            "curvature", "--kind", "cc", "--chart", "polar-constant", "--z", "0.5",
            "--kappa2", "1", "--grid", "0.5:1.2:5,0.6:1.4:5,0.2:1.2:5"))

    def curvature_point_in_process(self):
        """One variable-curvature point on the polar-variable chart (median call)."""
        return 1e6 * _median_call(self.curvature_point, 200)

    def tier1_suite(self):
        root = os.path.dirname(os.path.abspath(self.src))
        env = dict(os.environ, PYTHONPATH=self.src)
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "--continue-on-collection-errors", "tests"]
        return _timed(lambda: subprocess.run(argv, cwd=root, env=env, check=True,
                                             stdout=subprocess.DEVNULL))


# Rows timed in spaced rounds, which return (time, host index) themselves.
_SPACED = frozenset(("run_tables_beltrami_samples10", "run_tables_polar_samples10"))

# (row, unit, warm-up first); the order of the cost table
ROWS = (
    ("kscalar_mul", "us", False),
    ("h_gradient_compiled", "us", False),
    ("h_gradient_dual", "us", False),
    ("monitors_7_evaluator", "us", False),
    ("monitors_7_compiled", "us", False),
    ("dp54_step", "ms", False),
    ("orbit_t20_monitors", "s", False),
    ("orbit_t20", "s", False),
    ("simulate_in_process", "s", True),
    ("verify_all_in_process", "s", True),
    ("verify_all_new_params_in_process", "s", True),
    ("verify_all_samples10_in_process", "ms", True),
    ("run_tables_beltrami_samples10", "us", True),
    ("run_tables_polar_samples10", "us", True),
    ("report_text_verify_all_samples10", "us", True),
    ("rank_in_process", "s", True),
    ("rank_samples50_in_process", "ms", True),
    ("verify_lrl_algebra", "s", True),
    ("verify_all_fresh_process", "s", False),
    ("curvature_5x5x5", "s", True),
    ("curvature_point_in_process", "us", True),
    ("tier1_suite", "s", False),
)


# Rows whose scaled median is their raw median (see the module docstring).
_RAW = frozenset(("tier1_suite",))


def _set_medians(name, row):
    """The raw median of a row's repeats and the median scaled by host speed."""
    row["median"] = statistics.median(row["repeats"])
    row["scaled_median"] = row["median"] if name in _RAW else statistics.median(
        t / x for t, x in zip(row["repeats"], row["host_index"]))


def measure(src, repeats):
    sys.path[:0] = [src, os.path.join(_ROOT, "perfbench")]
    import hostspeed
    import numpy

    sha = _git(src, "rev-parse", "HEAD")
    if sha and _git(src, "status", "--porcelain", "--untracked-files=no"):
        sha += "-dirty"
    run = {
        "git_sha": sha,
        "src_sha256": _tree_sha256(src),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "repeats": repeats,
        "rows": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        rows = Rows(src, tmp, hostspeed)
        for name, unit, warm in ROWS:
            fn = getattr(rows, name)
            if warm:
                fn()
            row = run["rows"][name] = {"unit": unit, "repeats": [], "host_index": []}
            for _ in range(repeats):
                result, index = fn() if name in _SPACED else _scaled_repeat(hostspeed, fn)
                row["repeats"].append(result)
                row["host_index"].append(index)
            _set_medians(name, row)
            print(f"{name:34s} {row['median']:12.6g} {unit} "
                  f"(scaled {row['scaled_median']:.6g})", flush=True)
    return run


def alternate(trees, repeats):
    """Time each ``(label, src)`` of ``trees`` once per repeat, in turn (the
    order reversed every other repeat), each in a fresh interpreter; the runs
    gather every tree's repeats."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(repeats):
            for label, src in trees[::-1] if i % 2 else trees:
                print(f"== {label} ({src}), repeat {i + 1} of {repeats}", flush=True)
                out = os.path.join(tmp, "run.json")
                subprocess.run([sys.executable, os.path.abspath(__file__), "--src", src,
                                "--label", label, "--repeats", "1", "--out", out], check=True)
                with open(out) as fh:
                    one = json.load(fh)["runs"][label]
                os.remove(out)
                run = runs.setdefault(label, dict(one, repeats=0, rows={}, alternated=True))
                run["repeats"] += 1
                for name, row in one["rows"].items():
                    into = run["rows"].setdefault(
                        name, {"unit": row["unit"], "repeats": [], "host_index": []})
                    into["repeats"] += row["repeats"]
                    into["host_index"] += row["host_index"]
    for run in runs.values():
        for name, row in run["rows"].items():
            _set_medians(name, row)
    return runs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(_ROOT, "src"),
                    help="library source tree to time (default: this checkout's src/)")
    ap.add_argument("--label", default="change", help="name the run is stored under")
    ap.add_argument("--repeats", type=int, default=5, help="timed repeats per row")
    ap.add_argument("--against", metavar="SRC",
                    help="also time this source tree, stored as 'parent', alternating "
                         "with --src repeat by repeat")
    ap.add_argument("--out", required=True, help="JSON file to write or update")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    if args.against and args.label == "parent":
        ap.error("--against stores its tree as 'parent'; give --src another --label")
    src = os.path.abspath(args.src)
    if args.against:
        runs = alternate([("parent", os.path.abspath(args.against)), (args.label, src)],
                         args.repeats)
    else:
        runs = {args.label: measure(src, args.repeats)}
    doc = {"schema": 1, "runs": {}}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            doc = json.load(fh)
    doc["runs"].update(runs)
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
