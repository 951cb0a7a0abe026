"""Digest each output family of curvkepler, to show which outputs a change moves.

Usage (from the repository root):

    python3 benchmarks/identity.py --against ../parent/src
    python3 benchmarks/identity.py --src src

Each source tree (``--src``, default this checkout's ``src/``, and the one
given to ``--against``) runs in a fresh interpreter, which computes one
SHA-256 per output family:

* ``monitor-code``: the values-only code of every monitor
  (``symmetry.constants`` plus ``H``, for each named family, preset and
  chart): its bytecode, names and literals and the bits of the constants it
  reads;
* ``hamiltonian-code``: the same digest of the gradient code of every
  Hamiltonian (each named family, preset and compatible chart), the code
  that integrates each orbit; both code families read the code through
  ``codegen.compile_roots``, which an older tree has too (there it takes no
  binding, since its observables hold their parameters as constants);
* ``orbit-states``: the times, states and monitor series of one fixed
  Kepler-CC orbit, as float bits;
* ``verify-json``, ``rank-json``: the reports of ``verify --suite all`` and
  ``rank``;
* ``simulate-csv``, ``simulate-summary``: the trajectory CSV and the drift
  summary of a ``simulate`` call;
* ``curvature-csv``: the output of ``curvature`` on a grid of each chart
  and kind, two of them on the polar-variable chart (one where
  C_{-z}(rho) < 0);
* ``export-presets``: the output of that command.

A CLI family also digests each command's exit code.  Each tree's header line
names its commit (``-`` outside git) and its ``src_sha256``, the digest
``benchmarks/bench.py`` records.  With ``--against`` each family is marked
``same`` or ``differs``, and the exit status is 1 if any family differs.
The seeds are fixed, and the benchmark inputs (``perfbench/inputs.py``) do
not use them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile

from bench import _ROOT, _git, _tree_sha256

_SEEDS = ("16001", "16002")
_SPACE = ("--preset", "hyperbolic", "--gamma", "0.4")


def _named_charts():
    """(label, spec, chart) of each named family, preset and compatible chart."""
    from curvkepler.spaces import PRESETS, Family, HamiltonianSpec, SpaceParams

    for family in (Family.FREE_NC, Family.FREE_CC, Family.KEPLER_NC, Family.KEPLER_CC):
        for preset in sorted(PRESETS):
            spec = HamiltonianSpec(family, SpaceParams.preset(preset, gamma=0.5))
            for chart in spec.compatible_charts():
                yield f"{family.value} {preset} {chart.value}", spec, chart


def _digest_compiled(sha, f):
    """A compiled function's bytecode, names and literals and the bits of
    the constants it reads; ``f`` is None for an observable that does not
    compile."""
    if not f:
        sha.update(b"not compiled\n")
        return
    code = f.__code__
    bound = [f.__globals__[n] for n in code.co_names if re.fullmatch(r"k\d+", n)]
    sha.update(code.co_code)
    sha.update(repr((code.co_names, code.co_varnames, code.co_consts)).encode())
    sha.update(repr([v.hex() if isinstance(v, float) else repr(v) for v in bound]).encode())


def _compiled(ob, grads):
    """The observable's compiled code in one mode, at its binding on a tree
    whose observables carry one."""
    from curvkepler.codegen import compile_roots

    binding = [ob.binding] if hasattr(ob, "binding") else []
    return compile_roots([ob._node], (grads,), *binding)


def _monitor_code(sha, tmp):
    from curvkepler.spaces import hamiltonian
    from curvkepler.symmetry import constants

    for label, spec, chart in _named_charts():
        monitors = dict(constants(spec, chart), H=hamiltonian(spec, chart))
        for name, ob in monitors.items():
            sha.update(f"{label} {name}\n".encode())
            _digest_compiled(sha, _compiled(ob, False))


def _hamiltonian_code(sha, tmp):
    from curvkepler.spaces import hamiltonian

    for label, spec, chart in _named_charts():
        h = hamiltonian(spec, chart)
        sha.update(f"{label} H\n".encode())
        _digest_compiled(sha, _compiled(h, True))


def _orbit_states(sha, tmp):
    from curvkepler.dynamics import IntegratorConfig, integrate
    from curvkepler.phase import Chart, PhaseState
    from curvkepler.spaces import Family, HamiltonianSpec, SpaceParams, chart_guard, hamiltonian
    from curvkepler.symmetry import constants

    params = SpaceParams.preset("spherical", gamma=0.45)
    spec = HamiltonianSpec(Family.KEPLER_CC, params)
    h = hamiltonian(spec, Chart.POLAR_CONSTANT)
    tr = integrate(h, PhaseState.polar_constant(1.1, 1.2, 0.4, 0.2, 0.4, 0.9),
                   IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, t_end=2.0),
                   monitors=dict(constants(spec, Chart.POLAR_CONSTANT), H=h),
                   domain_guard=chart_guard(Chart.POLAR_CONSTANT, params))
    sha.update(tr.times.tobytes() + tr.states.tobytes())
    for name, series in tr.monitors.items():
        sha.update(name.encode() + series.tobytes())


def _cli(*argvs, digested="out"):
    """A digest family of CLI calls, in order: each call's exit code and the
    bytes of the file ``digested`` (``out``, ``csv`` or ``summary``) that it
    writes."""
    def family(sha, tmp):
        from curvkepler import cli

        paths = {name: os.path.join(tmp, name) for name in ("out", "csv", "summary")}
        for argv in argvs:
            for path in paths.values():
                if os.path.exists(path):
                    os.remove(path)
            # simulate takes no --out: it writes --csv and --summary
            out = [] if argv[0] == "simulate" else ["--out", paths["out"]]
            args = [a.format(**paths) for a in argv] + out
            sha.update(f"exit {cli.main(args)}\n".encode())
            if os.path.exists(paths[digested]):
                with open(paths[digested], "rb") as fh:
                    sha.update(fh.read())
    return family


# One grid per chart/kind pair that ``spaces.metric`` builds, so every branch
# of it runs: the Beltrami ``cc`` grid its ``* e`` scale, the polar-variable
# grids its ``/ C_{-z}(rho)``, the second past rho = pi/2 at -z = 1, where
# that cosine is negative and the metric's off-diagonal zeros are -0.0.
_CURVATURE = (
    ("--kind", "nc", "--chart", "beltrami", "--z", "0.3", "--kappa2", "1",
     "--grid", "0.25:0.95:3,0.25:0.95:3,0.25:0.95:3"),
    ("--kind", "cc", "--chart", "beltrami", "--z", "-0.3", "--kappa2", "1",
     "--grid", "0.25:0.95:3,0.25:0.95:3,0.25:0.95:3"),
    ("--kind", "cc", "--chart", "polar-constant", "--z", "0.5", "--kappa2", "-1",
     "--grid", "0.5:1.2:3,0.6:1.4:3,0.2:1.2:3"),
    ("--kind", "nc", "--chart", "polar-variable", "--z", "-0.4", "--kappa2", "1",
     "--grid", "0.5:1.2:3,0.6:1.4:3,0.2:1.2:3"),
    ("--kind", "nc", "--chart", "polar-variable", "--z", "-1", "--kappa2", "1",
     "--grid", "1.7:2.8:3,0.6:1.4:3,0.2:1.2:3"),
)

_SIMULATE = ["simulate", "--family", "kepler-nc", "--z", "0.35", "--kappa2", "1",
             "--gamma", "0.2", "--state", "1.0,1.2,0.4,0.15,0.4,0.8", "--t-end", "2",
             "--csv", "{csv}", "--summary", "{summary}"]


FAMILIES = {
    "monitor-code": _monitor_code,
    "hamiltonian-code": _hamiltonian_code,
    "orbit-states": _orbit_states,
    "verify-json": _cli(["verify", "--suite", "all", *_SPACE, "--samples", "50",
                         "--seed", _SEEDS[0]]),
    "rank-json": _cli(["rank", "--family", "kepler-cc", *_SPACE, "--samples", "50",
                       "--append-lrl", "L3", "--seed", _SEEDS[1]]),
    "simulate-csv": _cli(_SIMULATE, digested="csv"),
    "simulate-summary": _cli(_SIMULATE, digested="summary"),
    "curvature-csv": _cli(*(["curvature", *grid] for grid in _CURVATURE)),
    "export-presets": _cli(["export-presets"]),
}


def digests(src):
    """{family: SHA-256 hex} for the library tree ``src``, in this process."""
    sys.path.insert(0, src)
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, family in FAMILIES.items():
            sha = hashlib.sha256()
            family(sha, tmp)
            out[name] = sha.hexdigest()
    return out


def _in_fresh_interpreter(src):
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--digest", src],
                         check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(_ROOT, "src"),
                    help="library source tree to digest (default: this checkout's src/)")
    ap.add_argument("--against", metavar="SRC",
                    help="also digest this source tree and mark each family same or differs")
    ap.add_argument("--digest", metavar="SRC", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.digest:
        print(json.dumps(digests(os.path.abspath(args.digest))))
        return 0
    trees = [os.path.abspath(args.src)] + ([os.path.abspath(args.against)] if args.against else [])
    for tree in trees:
        print(f"# {tree} {_git(tree, 'rev-parse', '--short', 'HEAD') or '-'} "
              f"src_sha256 {_tree_sha256(tree)}")
    got = [_in_fresh_interpreter(tree) for tree in trees]
    differs = 0
    for name, sha in got[0].items():
        mark = ""
        if args.against:
            same = got[1][name] == sha
            differs += not same
            mark = "  same" if same else f"  differs (against: {got[1][name]})"
        print(f"{name:18s} {sha}{mark}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
