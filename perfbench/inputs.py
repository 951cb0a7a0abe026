"""Seeded input generator for the benchmark workloads.

Everything here is plain data (tuples, strings, argv lists) derived from one
integer seed; the same seed always gives the same inputs.  The generator does
not import the library: the energy checks that pick bounded orbits and
escapers use the closed-form Kepler Hamiltonian written out below, so the
program under test only ever sees the generated inputs.

The *shape* of each workload (how many items of which kind, on which space)
is fixed; the seed only moves the points inside fixed safe regions, so the
cost of a pass stays comparable from seed to seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# (kappa1, kappa2) of the six constant-curvature spaces, in a fixed order.
PRESETS = (
    ("spherical", 1.0, 1.0),
    ("euclidean", 0.0, 1.0),
    ("hyperbolic", -1.0, 1.0),
    ("antidesitter", 1.0, -1.0),
    ("minkowski", 0.0, -1.0),
    ("desitter", -1.0, -1.0),
)

# Non-preset (z, kappa2) pairs for the verify sweep.
EXTRA_LABELS = ((0.5, 1.0), (0.5, -1.0), (-0.5, 1.0), (-0.5, -1.0), (0.3, 1.0))

ORBIT_T_END = 1.0
ORBIT_STRIDE = 50
ORBITS_PER_PRESET = 17          # 6 presets -> 102 orbits per pass

SIMULATE_T_END = 1.0
SIMULATE_PER_FAMILY = 25        # 4 families -> 100 invocations per pass

VERIFY_SAMPLES = 10
RANK_SAMPLES = 50

CURVATURE_GRID = 5              # points per axis; 5^3 per (pair, z) grid


def kepler_gamma(kappa1, kappa2):
    """Kepler coupling per space: weak on anti-de Sitter (radial equilibria)."""
    return 0.035 if (kappa1 > 0 and kappa2 < 0) else 0.45


def _k_of(gamma):
    return 2.0 * math.sqrt(2.0) * gamma


def _s(kappa, x):
    """Curvature-labelled sine S_kappa(x)."""
    if kappa > 0:
        return math.sin(math.sqrt(kappa) * x) / math.sqrt(kappa)
    if kappa < 0:
        return math.sinh(math.sqrt(-kappa) * x) / math.sqrt(-kappa)
    return x


def _c(kappa, x):
    """Curvature-labelled cosine C_kappa(x)."""
    if kappa > 0:
        return math.cos(math.sqrt(kappa) * x)
    if kappa < 0:
        return math.cosh(math.sqrt(-kappa) * x)
    return 1.0


def kepler_cc_energy(kappa1, kappa2, gamma, state):
    """Closed-form Kepler-CC Hamiltonian on the polar-constant chart."""
    r, th, _, pr, pt, pp = state
    sz = _s(kappa1, r)
    s2 = _s(kappa2, th)
    angular = pt * pt + pp * pp / (s2 * s2)
    return (0.5 * (pr * pr + angular / (kappa2 * sz * sz))
            - _k_of(gamma) * _c(kappa1, r) / sz)


def _escape_energy(kappa1, gamma):
    """Limit of the Kepler potential at large r (open spaces only)."""
    return -_k_of(gamma) * math.sqrt(-kappa1) if kappa1 < 0 else 0.0


@dataclass(frozen=True)
class Orbit:
    preset: str
    kind: str            # "bounded" | "equilibrium" | "escaper"
    state: tuple         # polar-constant (r, theta, phi, p_r, p_theta, p_phi)


def _cc_state(rng, k1, k2):
    """A polar-constant state in the middle of the chart, moderate momenta."""
    rmax = math.pi / math.sqrt(k1) if k1 > 0 else 3.0
    return (rng.uniform(0.35, 0.65) * rmax,
            rng.uniform(0.35, 0.65) * math.pi / math.sqrt(k2),
            rng.uniform(0.0, 2 * math.pi), rng.uniform(-0.2, 0.2),
            rng.uniform(-0.35, 0.35),
            rng.uniform(0.3, 1.1) * rng.choice((-1.0, 1.0)))


def _bounded(rng, k1, k2, gamma):
    """A Kepler-CC state below the escape energy (every state when k1 > 0)."""
    for _ in range(10_000):
        s = _cc_state(rng, k1, k2)
        if k1 > 0 or kepler_cc_energy(k1, k2, gamma, s) < _escape_energy(k1, gamma) - 0.05:
            return s
    raise RuntimeError("no bounded orbit found")


def _equilibrium(rng, k1, k2, gamma):
    """A state on the radial equilibrium tan(sqrt(k1) r*) = -c3/k (k2 < 0)."""
    k = _k_of(gamma)
    th = rng.uniform(1.2, 2.0)
    c3 = rng.uniform(1.0, 2.5) * k
    pt = rng.uniform(-0.3, 0.3) * math.sqrt(c3)
    pp = math.sqrt((c3 - pt * pt) * _s(k2, th) ** 2) * rng.choice((-1.0, 1.0))
    rstar = (math.pi - math.atan2(c3, k)) / math.sqrt(k1)
    return (rstar, th, rng.uniform(0.0, 2 * math.pi), 0.0, pt, pp)


def _escaper(rng, k1, k2, gamma):
    for _ in range(10_000):
        s = (rng.uniform(1.0, 1.6), rng.uniform(1.2, 2.0),
             rng.uniform(0.0, 2 * math.pi), rng.uniform(0.2, 2.2),
             rng.uniform(-0.25, 0.25),
             rng.uniform(0.15, 0.4) * rng.choice((-1.0, 1.0)))
        if kepler_cc_energy(k1, k2, gamma, s) > _escape_energy(k1, gamma) + 0.05:
            return s
    raise RuntimeError("no escaping orbit found")


def orbits(seed):
    """Kepler-CC initial states, round-robin over the six presets."""
    rng = np.random.default_rng([seed, 1])
    out = []
    for _ in range(ORBITS_PER_PRESET):
        for name, k1, k2 in PRESETS:
            gamma = kepler_gamma(k1, k2)
            if k2 > 0:
                kind, state = "bounded", _bounded(rng, k1, k2, gamma)
            elif k1 > 0:
                kind, state = "equilibrium", _equilibrium(rng, k1, k2, gamma)
            else:
                kind, state = "escaper", _escaper(rng, k1, k2, gamma)
            out.append(Orbit(name, kind, tuple(float(v) for v in state)))
    return out


def _fmt_state(state):
    return ",".join(f"{v:.17g}" for v in state)


@dataclass(frozen=True)
class Invocation:
    """One CLI call: argv with {out} placeholders, and what it must return."""

    label: str
    argv: tuple
    outputs: tuple             # placeholder names of the files it writes
    expect_code: int = 0
    expect: str = "pass"       # pass | control | rank
    expected_rank: int = 0

    def resolve(self, directory):
        paths = {name: f"{directory}/{self.label}.{name}" for name in self.outputs}
        return [a.format(**paths) for a in self.argv], paths


# Variable-curvature (z, kappa2) labels and Riemannian presets for simulate.
_NC_LABELS = ((0.3, 1.0), (-0.3, 1.0), (0.5, 1.0), (-0.5, 1.0), (0.2, 1.0))
_CC_PRESETS = (("spherical", 1.0), ("euclidean", 0.0), ("hyperbolic", -1.0))


def _nc_state(rng):
    return (rng.uniform(0.8, 1.2), rng.uniform(0.35, 0.65) * math.pi,
            rng.uniform(0.0, 2 * math.pi), rng.uniform(-0.15, 0.15),
            rng.uniform(-0.25, 0.25),
            rng.uniform(0.5, 0.9) * rng.choice((-1.0, 1.0)))


def simulate_invocations(seed):
    """`simulate` argv lists across the four named families."""
    rng = np.random.default_rng([seed, 2])
    out = []
    for i in range(SIMULATE_PER_FAMILY):
        z, k2 = _NC_LABELS[i % len(_NC_LABELS)]
        preset, k1 = _CC_PRESETS[i % len(_CC_PRESETS)]
        jobs = (
            ("free-nc", ["--z", f"{z}", "--kappa2", f"{k2}"], _nc_state(rng)),
            ("kepler-nc", ["--z", f"{z}", "--kappa2", f"{k2}", "--gamma", "0.2"],
             _nc_state(rng)),
            ("free-cc", ["--preset", preset], _cc_state(rng, k1, 1.0)),
            ("kepler-cc", ["--preset", preset, "--gamma", "0.45"],
             _bounded(rng, k1, 1.0, 0.45)),
        )
        for family, space, state in jobs:
            out.append(Invocation(
                f"sim{len(out):03d}",
                ("simulate", "--family", family, *space,
                 f"--state={_fmt_state(state)}", "--t-end", f"{SIMULATE_T_END}",
                 "--stride", "1", "--csv", "{csv}", "--summary", "{summary}"),
                ("csv", "summary")))
    return out


def _space_argv(label):
    if isinstance(label, str):
        return ["--preset", label]
    z, k2 = label
    return ["--z", f"{z}", "--kappa2", f"{k2}"]


# Negative controls: each suite with the generator it must flag.
_CONTROLS = (("sl2z", "jplus"), ("casimirs", "jplus"), ("so4", "j02"),
             ("lrl", "j02"))
_RANK_JOBS = (
    ("free-nc", (0.4, 1.0)), ("kepler-nc", (-0.4, 1.0)),
    ("free-cc", "spherical"), ("kepler-cc", "hyperbolic"),
)


def verify_invocations(seed):
    """verify --suite all sweeps, --perturb controls and rank histograms.

    The verify --suite all calls are about 60% of the items and several
    times slower than the rest, so the median item sits well inside their
    group instead of on the edge between two groups of similar cost.
    """
    rng = np.random.default_rng([seed, 3])
    labels = [name for name, _, _ in PRESETS] + list(EXTRA_LABELS)
    out = []

    def add(kind, argv, **kw):
        label = f"{kind}{len(out):03d}"
        seed_arg = ["--seed", str(int(rng.integers(0, 2**31)))]
        out.append(Invocation(label, tuple(argv + seed_arg + ["--out", "{out}"]),
                              ("out",), **kw))

    for _ in range(6):
        for label in labels:
            add("verify", ["verify", "--suite", "all", *_space_argv(label),
                           "--samples", str(VERIFY_SAMPLES)])
    for i in range(4):
        for suite, gen in _CONTROLS:
            if suite in ("sl2z", "casimirs"):
                space = ["--z", f"{(0.3, -0.3, 0.5)[i % 3]}"]
            else:
                space = ["--preset", ("spherical", "hyperbolic", "antidesitter")[i % 3]]
            add("control", ["verify", "--suite", suite, *space, "--samples",
                            str(VERIFY_SAMPLES), "--perturb", gen],
                expect_code=1, expect="control")
    for _ in range(4):
        for family, label in _RANK_JOBS:
            gamma = ["--gamma", "0.4"] if family == "kepler-nc" else []
            add("rank", ["rank", "--family", family, *_space_argv(label), *gamma,
                         "--samples", str(RANK_SAMPLES)],
                expect="rank", expected_rank=4)
    for _ in range(2):
        for li in ("L1", "L2", "L3"):
            add("rank", ["rank", "--family", "kepler-cc", "--preset", "spherical",
                         "--gamma", "0.5", "--samples", str(RANK_SAMPLES),
                         "--append-lrl", li],
                expect="rank", expected_rank=5)
    return out


@dataclass(frozen=True)
class CurvaturePoint:
    chart: str           # "polar-constant" | "beltrami" | "polar-variable"
    kind: str            # "cc" | "nc"
    z: float
    point: tuple


# (chart, kind, z values, per-axis (lo, hi) ranges), after acceptance
# criterion 5.
_CURVATURE_GRIDS = (
    ("polar-constant", "cc", (0.5, -0.5, 0.3),
     ((0.5, 1.2), (0.6, 1.4), (0.2, 1.2))),
    ("beltrami", "nc", (0.3, -0.3, 0.2),
     ((0.25, 0.95), (0.25, 0.95), (0.25, 0.95))),
    ("polar-variable", "nc", (0.3, -0.3, 0.2),
     ((0.4, 1.4), (0.6, 1.4), (0.2, 1.2))),
)


def curvature_points(seed):
    """Jittered n x n x n grids on the three chart/kind pairs, several z each."""
    n = CURVATURE_GRID
    rng = np.random.default_rng([seed, 4])
    out = []
    for chart, kind, zs, ranges in _CURVATURE_GRIDS:
        for z in zs:
            axes = []
            for lo, hi in ranges:
                pitch = (hi - lo) / n
                axes.append(lo + pitch * (np.arange(n) + rng.uniform(0.0, 1.0, n)))
            for a in axes[0]:
                for b in axes[1]:
                    for c in axes[2]:
                        out.append(CurvaturePoint(chart, kind, z,
                                                  (float(a), float(b), float(c))))
    return out
