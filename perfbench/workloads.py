"""The four benchmark workloads: prebuilt state, one item, one gate.

Each workload is a closed loop: the runner calls ``run(item)`` for one item
after another in one thread, and every item passes through a correctness
gate.  Gates are written as ``not (value < bound)`` so that a NaN residual,
drift or curvature error counts as a failure.  An item that raises is
counted as failed by the runner, which then carries on.

Every call into the library goes through a module attribute
(``dynamics.integrate``, ``spaces.curvature``, ``cli.main``) so that the
wrappers the traced run installs are the ones that run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SRC = ROOT / "src"
sys.path.insert(0, str(_SRC))
try:
    import curvkepler
    from curvkepler import cli, dynamics, spaces, symmetry
    from curvkepler.phase import Chart, PhaseState
except ImportError as err:
    raise SystemExit(f"perfbench: cannot import curvkepler from {_SRC}: {err}")
if Path(curvkepler.__file__).resolve().parent.parent != _SRC.resolve():
    raise SystemExit(f"perfbench: curvkepler was imported from "
                     f"{curvkepler.__file__}, not from {_SRC}")

import inputs  # noqa: E402  (the benchmark's own generator, next to this file)

DRIFT_BOUND = 1e-8        # acceptance criterion 6 / simulate summaries
RESIDUAL_BOUND = 1e-8     # verify threshold
CONTROL_FLOOR = 1e-3      # a perturbed generator must show at least this
CURVATURE_BOUND = 1e-4    # acceptance criterion 5

_CHARTS = {"polar-constant": Chart.POLAR_CONSTANT, "beltrami": Chart.BELTRAMI,
           "polar-variable": Chart.POLAR_VARIABLE}


def fails(value, bound):
    """True unless value < bound; NaN fails."""
    return not (value < bound)


def worst(values):
    """Largest value, or NaN when any value is NaN."""
    values = list(values)
    if any(math.isnan(v) for v in values):
        return math.nan
    return max(values, default=0.0)


@dataclass
class ItemResult:
    ok: bool = True
    reason: str = ""
    drift: float = 0.0          # worst monitored drift
    curvature_err: float = 0.0  # worst |numeric - closed| curvature
    output_bytes: int = 0       # bytes the CLI wrote (files and streams)
    code_mismatch: bool = False
    digests: dict = field(default_factory=dict)

    def fail(self, reason):
        if self.ok:
            self.ok, self.reason = False, reason


class OrbitEnsemble:
    """Kepler-CC orbits on the six presets through dynamics.integrate."""

    name = "orbit-ensemble"
    monitored = ("H", "C2", "C2mid", "C3", "L1", "L2", "L3")

    def __init__(self, seed, outdir=None):
        self.items = inputs.orbits(seed)
        self.cfg = dynamics.IntegratorConfig(
            rel_tol=1e-12, abs_tol=1e-14, t_end=inputs.ORBIT_T_END,
            sample_stride=inputs.ORBIT_STRIDE)
        self.systems = {}
        for name, k1, k2 in inputs.PRESETS:
            params = spaces.SpaceParams.preset(name, gamma=inputs.kepler_gamma(k1, k2))
            spec = spaces.HamiltonianSpec(spaces.Family.KEPLER_CC, params)
            h = spaces.hamiltonian(spec, Chart.POLAR_CONSTANT)
            monitors = dict(symmetry.constants(spec, Chart.POLAR_CONSTANT))
            monitors["H"] = h
            self.systems[name] = (h, monitors,
                                  spaces.chart_guard(Chart.POLAR_CONSTANT, params))

    def label(self, orbit):
        return f"{orbit.preset}/{orbit.kind}"

    def run(self, orbit):
        h, monitors, guard = self.systems[orbit.preset]
        tr = dynamics.integrate(h, PhaseState(Chart.POLAR_CONSTANT, orbit.state),
                                self.cfg, monitors=monitors, domain_guard=guard)
        drift = tr.drift
        out = ItemResult(drift=worst(drift.values()))
        if tr.terminated_early:
            out.fail(f"terminated early: {tr.termination_reason}")
        if set(drift) != set(self.monitored):
            out.fail(f"monitors {sorted(drift)}")
        for key, value in drift.items():
            if fails(value, DRIFT_BOUND):
                out.fail(f"{key} drift {value:.3e}")
        return out


class _CliWorkload:
    """In-process cli.main calls whose outputs land in a scratch directory.

    The SHA-256 of every output is recorded; an output that differs from the
    same invocation's output in an earlier pass fails the item.
    """

    def __init__(self, outdir):
        self.outdir = outdir
        self.first_digests = {}

    def label(self, inv):
        return inv.label

    def run(self, inv):
        argv, paths = inv.resolve(self.outdir)
        out_stream, err_stream = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out_stream), contextlib.redirect_stderr(err_stream):
            try:
                code = cli.main(argv)
            except SystemExit as exc:          # argparse rejects bad flags
                code = exc.code
        res = ItemResult()
        streams = {"stdout": out_stream.getvalue().encode(),
                   "stderr": err_stream.getvalue().encode()}
        blobs = dict(streams)
        for name, path in paths.items():
            blobs[name] = Path(path).read_bytes() if Path(path).exists() else b""
        res.output_bytes = sum(len(b) for b in blobs.values())
        res.digests = {name: hashlib.sha256(b).hexdigest() for name, b in blobs.items()}
        previous = self.first_digests.setdefault(inv.label, res.digests)
        if previous != res.digests:
            res.fail("output differs from an earlier pass")
        if code != inv.expect_code:
            res.code_mismatch = True
            res.fail(f"exit {code}, expected {inv.expect_code}: "
                     f"{streams['stderr'][-200:].decode(errors='replace')}")
        else:
            self.check(inv, paths, res)
        return res


class SimulateCli(_CliWorkload):
    """`simulate` over the four named families, stride 1, CSV + summary."""

    name = "simulate-cli"

    def __init__(self, seed, outdir):
        super().__init__(outdir)
        self.items = inputs.simulate_invocations(seed)

    def check(self, inv, paths, res):
        summary = json.loads(Path(paths["summary"]).read_text())
        drift = {k: v["max_drift"] for k, v in summary["drift"].items()}
        res.drift = worst(drift.values())
        if not drift:
            res.fail("no monitors in summary")
        for key, value in drift.items():
            if fails(value, DRIFT_BOUND):
                res.fail(f"{key} drift {value:.3e}")


class VerifySweep(_CliWorkload):
    """verify --suite all, --perturb negative controls and rank histograms."""

    name = "verify-sweep"

    def __init__(self, seed, outdir):
        super().__init__(outdir)
        self.items = inputs.verify_invocations(seed)

    def check(self, inv, paths, res):
        doc = json.loads(Path(paths["out"]).read_text())
        if inv.expect == "rank":
            if doc["modal_rank"] != inv.expected_rank:
                res.fail(f"modal rank {doc['modal_rank']}, expected {inv.expected_rank}")
        elif inv.expect == "control":
            if fails(CONTROL_FLOOR, doc["max_residual"]):
                res.fail(f"control residual {doc['max_residual']:.3e} not flagged")
        elif fails(doc["max_residual"], RESIDUAL_BOUND):
            res.fail(f"residual {doc['max_residual']:.3e}")


class CurvatureScan:
    """spaces.curvature at jittered grid points on three chart/kind pairs."""

    name = "curvature-scan"

    def __init__(self, seed, outdir=None):
        self.items = inputs.curvature_points(seed)
        self.params = {z: spaces.SpaceParams(z, 1.0)
                       for z in sorted({p.z for p in self.items})}

    def label(self, pt):
        return f"{pt.chart}/{pt.kind}/z={pt.z}"

    def run(self, pt):
        res = spaces.curvature(_CHARTS[pt.chart], pt.kind, pt.point, self.params[pt.z])
        keys = ("k12", "k13", "k23", "kscalar") if pt.chart == "polar-variable" \
            else ("kscalar",)
        got = {"k12": res.k12, "k13": res.k13, "k23": res.k23, "kscalar": res.kscalar}
        errs = {k: abs(got[k] - res.closed[k]) for k in keys}
        out = ItemResult(curvature_err=worst(errs.values()))
        for key, err in errs.items():
            if fails(err, CURVATURE_BOUND):
                out.fail(f"{key} error {err:.3e}")
        return out


WORKLOADS = {cls.name: cls for cls in (OrbitEnsemble, SimulateCli, VerifySweep,
                                       CurvatureScan)}


def build(name, seed, outdir):
    """Generate a workload's inputs and prebuild what its items share."""
    return WORKLOADS[name](seed, outdir)
