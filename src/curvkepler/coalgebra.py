"""Deformed sl(2) Poisson coalgebra: realizations, Casimirs, bracket checks.

The three abstract generators (J-, J+, J3) close the deformed brackets

    {J3, J+} = 2 J+ cosh(z J-),  {J3, J-} = -2 sinh(z J-)/z,  {J-, J+} = 4 J3

with Casimir  C = sinh(z J-)/z * J+ - J3^2.  A one-degree-of-freedom
realization lives on one canonical pair; the coproduct

    D(J-) = J- x 1 + 1 x J-,   D(Jl) = Jl x e^{zJ-} + e^{-zJ-} x Jl

glues realizations on disjoint pairs into many-body ones.  The two- and
three-site images of the Casimir are the conserved quantities every
Hamiltonian built from the three-site generators shares.

Each realization, the Casimirs and each bracket table are built once, over
the parameter leaf :data:`.phase.Z`, and bound to a z on every call.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .phase import (P1, P2, P3, Q1, Q2, Q3, Z, Chart, Columns, Observable, PhaseState,
                    bound, cosh, exp, grad, joined, sinhc)

__all__ = [
    "Realization", "CasimirSet", "one_site", "coproduct_join", "three_site",
    "three_site_closed_form", "casimirs", "casimir_of", "pbracket",
    "Identity", "IdentityResult", "BracketReport", "run_table", "run_tables",
    "sample_beltrami", "verify_sl2z", "verify_casimirs", "sl2z_table", "Table",
]


@dataclass(frozen=True)
class Realization:
    """Symplectic realization of the deformed generators on 1..3 sites."""

    z: float
    sites: int
    indices: tuple
    jminus: Observable
    jplus: Observable
    jthree: Observable

    def generator(self, name):
        return {"jminus": self.jminus, "jplus": self.jplus, "jthree": self.jthree}[name]


@dataclass(frozen=True)
class CasimirSet:
    """The two- and three-site Casimir images C^(2), C_(2), C^(3)."""

    z: float
    c12: Observable
    c23: Observable
    c123: Observable


def _at(obj, z):
    """A realization or Casimir set built over Z, bound to the deformation ``z``."""
    return bound(obj, (z, None, None), z=z)


def one_site(z, site=1):
    """One-pair realization: J- = q^2, J+ = sinhc(z q^2) p^2, J3 = sinhc(z q^2) q p."""
    if site not in (1, 2, 3):
        raise ValueError("site must be 1, 2 or 3")
    return _at(_realization((site,)), z)


def coproduct_join(a, b):
    """Join two realizations on disjoint pairs via the deformed coproduct.

    The left factor takes the e^{+zJ-} tail of the right one and vice versa,
    which is the ordering that reproduces the closed three-site formulas when
    sites are joined in increasing order.  Realizations bound to different
    z do not combine (:class:`.phase.ParameterMismatchError`).
    """
    if set(a.indices) & set(b.indices):
        raise ValueError(f"overlapping sites: {a.indices} and {b.indices}")
    if a.sites + b.sites > 3:
        raise ValueError("at most 3 sites supported")
    z = a.z
    ea = exp(-z * a.jminus)
    eb = exp(z * b.jminus)
    return Realization(
        z, a.sites + b.sites, a.indices + b.indices,
        a.jminus + b.jminus,
        a.jplus * eb + ea * b.jplus,
        a.jthree * eb + ea * b.jthree,
    )


def three_site(z):
    """Three-site realization built by iterating the coproduct."""
    return _at(_realization((1, 2, 3)), z)


@functools.cache
def _realization(sites):
    """The realization on ``sites`` over Z: one pair, or the coproduct of
    the sites joined in increasing order."""
    if len(sites) > 1:
        return coproduct_join(_realization(sites[:-1]), _realization(sites[-1:]))
    i = sites[0] - 1
    q, p, w = (Q1, Q2, Q3)[i], (P1, P2, P3)[i], _SINHC[i]     # w: the closed forms' node
    return Realization(Z, 1, sites, q * q, w * p * p, w * q * p)


# sinhc(z q_i^2) and exp(z q_i^2), each one node that every builder shares.
_SINHC = tuple(sinhc(Z * q * q) for q in (Q1, Q2, Q3))
_EXP = tuple(exp(Z * q * q) for q in (Q1, Q2, Q3))


def three_site_closed_form(z):
    """The explicit three-site generators; independent oracle for the coproduct."""
    return _at(_closed_form(), z)


@functools.cache
def _closed_form():
    (s1, s2, s3), (e1, e2, e3) = _SINHC, _EXP
    jm = Q1 * Q1 + Q2 * Q2 + Q3 * Q3
    jp = s1 * P1 * P1 * e2 * e3 + s2 * P2 * P2 * e3 / e1 + s3 * P3 * P3 / (e1 * e2)
    j3 = (s1 * Q1 * P1 * e2 * e3 + s2 * Q2 * P2 * e3 / e1
          + s3 * Q3 * P3 / (e1 * e2))
    return Realization(Z, 3, (1, 2, 3), jm, jp, j3)


def casimirs(z):
    """Closed-form Casimir images on sites (1,2), (2,3) and (1,2,3)."""
    return _at(_casimirs(), z)


@functools.cache
def _casimirs():
    (s1, s2, s3), (e1, e2, e3) = _SINHC, _EXP
    m12 = Q1 * P2 - Q2 * P1
    m13 = Q1 * P3 - Q3 * P1
    m23 = Q2 * P3 - Q3 * P2
    c12 = s1 * s2 * m12 * m12 * e2 / e1
    c23 = s2 * s3 * m23 * m23 * e3 / e2
    c123 = (s1 * s2 * m12 * m12 * (e2 / e1) * e3 * e3
            + s1 * s3 * m13 * m13 * e3 / e1
            + s2 * s3 * m23 * m23 * e3 / (e1 * e1 * e2))
    return CasimirSet(Z, c12.renamed("C12"), c23.renamed("C23"), c123.renamed("C123"))


def casimir_of(r):
    """Casimir sinh(zJ-)/z J+ - J3^2 assembled from a realization's generators."""
    return r.jminus * sinhc(r.z * r.jminus) * r.jplus - r.jthree * r.jthree


def _dot(a, b):
    """Dot products over the last axis, each ``a @ b`` of its rows bit for bit:
    ``matmul`` over stacked 1 x n by n x 1 blocks rounds as ``@`` does."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _bracket(gf, gg):
    """Canonical Poisson bracket {f, g} from the gradients of f and g.

    The last axis holds the six partials; leading axes are a batch.
    """
    return _dot(gf[..., :3], gg[..., 3:]) - _dot(gg[..., :3], gf[..., 3:])


def pbracket(f, g, state):
    """Canonical Poisson bracket {f, g} at a state, from exact gradients."""
    return float(_bracket(grad(f, state), grad(g, state)))


# --------------------------------------------------------------------------
# Declarative bracket tables and randomized verification
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Identity:
    """One expected identity: a bracket {f, g} = rhs, or a value f = rhs.
    Equal only to itself and hashed by id: a table's tuple keys its plan."""

    name: str
    f: Observable
    g: Observable = None          # None -> value identity
    rhs: object = 0.0             # Observable or float
    group: str = ""


class Table(tuple):
    """A table's identities, built once over the parameter leaves, with the
    ``binding`` they are checked at (:func:`run_table`)."""

    def __new__(cls, identities, binding=None):
        table = super().__new__(cls, identities)
        table.binding = binding
        return table


@dataclass
class IdentityResult:
    identity: str
    group: str
    samples: int
    max_residual: float
    worst_point: tuple
    nan_samples: int = 0          # samples whose residual is NaN

    def as_dict(self):
        return {"identity": self.identity, "group": self.group,
                "samples": self.samples, "max_residual": self.max_residual,
                "nan_samples": self.nan_samples,
                "worst_point": list(self.worst_point)}


@dataclass
class BracketReport:
    """Outcome of checking a bracket table at random regular points."""

    suite: str
    samples: int
    seed: int
    params: dict = field(default_factory=dict)
    results: list = field(default_factory=list)

    @property
    def max_residual(self):
        """Worst residual over the identities; NaN if any of them is NaN."""
        return float(np.max([r.max_residual for r in self.results], initial=0.0))

    def passed(self, threshold=1e-8):
        return self.max_residual < threshold

    def failing(self, threshold=1e-8):
        return [r for r in self.results if not r.max_residual < threshold]

    def as_dict(self):
        return {
            "schema": 1,
            "suite": self.suite,
            "samples": self.samples,
            "seed": self.seed,
            "params": self.params,
            "max_residual": self.max_residual,
            "results": [r.as_dict() for r in self.results],
        }

    def to_json(self):
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


# Weight of the gradient-magnitude term in the residual scale.  A bracket of
# observables with gradients gf, gg cannot be computed more accurately than
# ~eps*|gf||gg| in doubles, so dividing by a small multiple of that product
# keeps legitimate cancellation at the 1e-12 level while a 1% structural
# perturbation still surfaces at >= 1e-3.
_GRAD_SCALE = 1e-4


class _Plan:
    """A table's columns: its distinct observables as one :class:`.phase.Columns`
    (partials for bracket operands only), and where each identity reads them."""

    def __init__(self, table):
        obs = {id(o): o for ident in table for o in (ident.f, ident.g, ident.rhs)
               if isinstance(o, Observable)}
        col = {key: j for j, key in enumerate(obs)}
        self.f = [col[id(ident.f)] for ident in table]
        self.rows = [i for i, ident in enumerate(table) if ident.g is not None]
        brackets = [table[i] for i in self.rows]
        operands = {id(o) for ident in brackets for o in (ident.f, ident.g)}
        block = {key: m for m, key in enumerate(k for k in obs if k in operands)}
        self.columns = Columns(list(obs.values()), [key in block for key in obs])
        self.gf = [block[id(ident.f)] for ident in brackets]
        self.gg = [block[id(ident.g)] for ident in brackets]
        self.rhs = [col[id(ident.rhs)] if isinstance(ident.rhs, Observable) else 0
                    for ident in table]
        self.const_rows = [i for i, ident in enumerate(table)
                           if not isinstance(ident.rhs, Observable)]
        self.consts = np.array([float(table[i].rhs) for i in self.const_rows])
        self.labels = [(ident.name, ident.group) for ident in table]
        self.every = np.arange(len(table))


# Column plans by the tuple of a table's identities (which compare by identity
# and are held, so no id is reused).  verify --suite all uses two at every
# parameter set, and one more per --perturb name; the bound keeps memory fixed.
@functools.lru_cache(maxsize=128)
def _plan(identities):
    return _Plan(identities)


def run_table(suite, table, sampler, samples, seed, params=None):
    """Evaluate every identity of a table at `samples` random points.

    ``sampler(rng, n=samples)`` draws the points.  The table's column plan
    is built once per ``tuple(table)`` (identities compare by identity):
    one compiled call per point, at the binding of a :class:`Table` joined
    to the observables' own, gives all their values and the gradients of
    the bracket operands (:class:`.phase.Columns`), and one numpy pass the
    brackets and residuals.  Residuals are relative: the mismatch is scaled
    by the magnitudes of both sides and (for brackets) by the gradient
    product that bounds the achievable precision.  A NaN residual is the
    worst one; its first point is reported.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    states = sampler(np.random.default_rng(seed), n=samples)
    plan = _plan(tuple(table))
    values, grads = plan.columns(states, getattr(table, "binding", None))

    lhs = values[:, plan.f]
    scale = np.ones_like(lhs)
    if plan.rows:
        gf, gg = grads[:, plan.gf], grads[:, plan.gg]
        lhs[:, plan.rows] = _bracket(gf, gg)
        norm_f, norm_g = np.sqrt(_dot(gf, gf)), np.sqrt(_dot(gg, gg))
        scale[:, plan.rows] = _GRAD_SCALE * (norm_f * norm_g)
    rhs = values[:, plan.rhs]
    rhs[:, plan.const_rows] = plan.consts
    # Float arithmetic as on Python floats: inf and NaN pass silently (a NaN
    # residual fails the report), and fmax skips a NaN operand as max() does.
    with np.errstate(invalid="ignore", over="ignore"):
        res = np.abs(lhs - rhs) / np.fmax(np.fmax(np.fmax(1.0, np.abs(lhs)),
                                                  np.abs(rhs)), scale)
    worst = np.argmax(res, axis=0)       # the first NaN, else the first maximum
    points = [s.coords if isinstance(s, PhaseState) else tuple(s) for s in states]
    results = [IdentityResult(name, group, samples, r, points[w], nans)
               for (name, group), r, w, nans in zip(
                   plan.labels, res[worst, plan.every].tolist(), worst.tolist(),
                   np.isnan(res).sum(axis=0).tolist())]
    return BracketReport(suite, samples, seed, params or {}, results)


def run_tables(jobs, sampler, samples, seed):
    """One :class:`BracketReport` per ``(suite, table, params)`` job, what a separate
    call gives, from one :func:`run_table` call on the jobs' concatenated identities
    at their joined bindings: each point drawn and evaluated once."""
    results = iter(run_table("+".join(job[0] for job in jobs), _batch(jobs), sampler, samples,
                             seed).results)
    return [BracketReport(suite, samples, seed, params, list(islice(results, len(table))))
            for suite, table, params in jobs]


def _batch(jobs):
    """The jobs' identities as one :class:`Table`, at their joined bindings."""
    return Table([ident for _, table, _ in jobs for ident in table], functools.reduce(
        joined, [getattr(table, "binding", None) for _, table, _ in jobs], None))


# The Beltrami sampling box: every coordinate in [-2, 2], positions |q_i| > 1e-3.
_BOX = ((-2.0, 2.0),) * 6
_MIN_ABS = 1e-3


def _uniform_coords(rng, bounds, n=None):
    """One point uniform in the box ``bounds``, one ``(lo, hi)`` per
    coordinate; with ``n``, a list of ``n`` points from one ``rng.random((n,
    len(bounds)))`` call, which draws the doubles ``n`` calls would.

    ``lo + (hi - lo) * u`` is ``Generator.uniform``'s own formula, so the
    coordinates, their bits and the generator's next state are those of one
    ``rng.uniform(lo, hi)`` per coordinate.  No span is checked: the
    Beltrami box is fixed, and the polar box is finite with ``lo <= hi`` for
    every valid :class:`.spaces.SpaceParams`.
    """
    lows = np.array([lo for lo, _ in bounds])
    spans = np.array([hi - lo for lo, hi in bounds])
    u = rng.random((1 if n is None else n, len(bounds)))
    points = list(map(tuple, (lows + spans * u).tolist()))
    return points[0] if n is None else points


def sample_beltrami(rng, *, n=None):
    """Random regular point: uniform in [-2, 2]^6, with every ``|q_i| > 1e-3``;
    with ``n``, a list of ``n`` of them.  Each round draws the points still
    missing in one call and keeps the regular ones, in order: the points and
    the generator's next state of ``n`` calls that each redraw until they accept.
    """
    need = 1 if n is None else n
    states = []
    while len(states) < need:
        for c in _uniform_coords(rng, _BOX, need - len(states)):
            if abs(c[0]) > _MIN_ABS and abs(c[1]) > _MIN_ABS and abs(c[2]) > _MIN_ABS:
                states.append(PhaseState(Chart.BELTRAMI, c))
    return states[0] if n is None else states


def _perturbed(r, perturb):
    if perturb is None:
        return r
    if perturb not in ("jminus", "jplus", "jthree"):
        raise ValueError(f"unknown generator {perturb!r}")
    return replace(r, **{perturb: r.generator(perturb) * 1.01})


def sl2z_table(r):
    """The three deformed commutation rules for a realization, as a
    :class:`Table` bound to its z."""
    return _sl2z_job(r, None)[1]


# sl2z identities over Z by generator graphs (identity) and perturbed name;
# the library's realizations need six, the bound keeps memory fixed.
@functools.lru_cache(maxsize=64)
def _sl2z_table(graphs, perturb):
    r = _perturbed(Realization(Z, 0, (), *(Observable(node=nd) for nd in graphs)), perturb)
    jm, jp, j3 = r.jminus, r.jplus, r.jthree
    return (
        Identity("{J3,J+} = 2 J+ cosh(z J-)", j3, jp, 2.0 * jp * cosh(Z * jm)),
        Identity("{J3,J-} = -2 J- sinhc(z J-)", j3, jm, -2.0 * jm * sinhc(Z * jm)),
        Identity("{J-,J+} = 4 J3", jm, jp, 4.0 * j3),
    )


# Each suite as a run_tables job: its name, table and params, written once.
def _sl2z_job(r, perturb):
    graphs = r.jminus._node, r.jplus._node, r.jthree._node
    table = Table(_sl2z_table(graphs, perturb), (r.z, None, None))
    return "sl2z", table, {"z": r.z, "sites": r.sites, "perturb": perturb or ""}


def _casimirs_job(z, perturb):
    table = Table(_casimir_table(perturb), (z, None, None))
    return "casimirs", table, {"z": z, "perturb": perturb or ""}


def verify_sl2z(r, samples=100, seed=0, perturb=None):
    """Check the deformed brackets for a realization at random regular points.

    `perturb` optionally scales one generator by 1.01 first; a healthy run
    must then report a residual above the detection floor (negative control).
    """
    return run_tables([_sl2z_job(r, perturb)], sample_beltrami, samples, seed)[0]


def verify_casimirs(z, samples=100, seed=0, perturb=None):
    """Centrality, involution, and closed-form checks for the Casimir images.

    Groups: "centrality" (each Casimir image Poisson-commutes with the three
    three-site generators), "involution" (the two integrability pairs),
    "closed-form" (the generator-assembled Casimirs match the explicit
    formulas), "coproduct" (iterated coproduct matches the explicit
    three-site generators).  `perturb` scales one generator of the
    coproduct-built realizations by 1.01.
    """
    return run_tables([_casimirs_job(z, perturb)], sample_beltrami, samples, seed)[0]


@functools.cache
def _casimir_table(perturb):
    cs, closed = _casimirs(), _closed_form()
    r12, r23, r123 = (_perturbed(_realization(sites), perturb)
                      for sites in ((1, 2), (2, 3), (1, 2, 3)))
    named = (("C12", r12, cs.c12), ("C23", r23, cs.c23), ("C123", r123, cs.c123))
    jnames = ("jminus", "jplus", "jthree")
    table = [Identity(f"{{{c}, {j}^(3)}} = 0", cob, closed.generator(j), 0.0, group="centrality")
             for c, _, cob in named for j in jnames]
    table += [Identity(f"{{{c}, C123}} = 0", cob, cs.c123, 0.0, group="involution")
              for c, _, cob in named[:2]]
    # casimir_of(r) = C with its two cancelling terms on opposite sides, so
    # the residual is judged against their size, not against C's.
    table += [Identity(f"casimir(generators) = {c}", r.jminus * sinhc(r.z * r.jminus) * r.jplus,
                       None, cob + r.jthree * r.jthree, group="closed-form")
              for c, r, cob in named]
    table += [Identity(f"coproduct {j} = closed form", r123.generator(j), None,
                       closed.generator(j), group="coproduct") for j in jnames]
    return tuple(table)
