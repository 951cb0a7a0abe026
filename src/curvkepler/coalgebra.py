"""Deformed sl(2) Poisson coalgebra: realizations, Casimirs, bracket checks.

The three abstract generators (J-, J+, J3) close the deformed brackets

    {J3, J+} = 2 J+ cosh(z J-),  {J3, J-} = -2 sinh(z J-)/z,  {J-, J+} = 4 J3

with Casimir  C = sinh(z J-)/z * J+ - J3^2.  A one-degree-of-freedom
realization lives on one canonical pair; the coproduct

    D(J-) = J- x 1 + 1 x J-,   D(Jl) = Jl x e^{zJ-} + e^{-zJ-} x Jl

glues realizations on disjoint pairs into many-body ones.  The two- and
three-site images of the Casimir are the conserved quantities every
Hamiltonian built from the three-site generators shares.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .phase import (Chart, Observable, PhaseState, coordinate, cosh, exp,
                    grad, sinhc)

__all__ = [
    "Realization", "CasimirSet", "one_site", "coproduct_join", "three_site",
    "three_site_closed_form", "casimirs", "casimir_of", "pbracket",
    "Identity", "IdentityResult", "BracketReport", "run_table",
    "sample_beltrami", "verify_sl2z", "verify_casimirs", "sl2z_table",
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
        return {"jminus": self.jminus, "jplus": self.jplus,
                "jthree": self.jthree}[name]


@dataclass(frozen=True)
class CasimirSet:
    """The two- and three-site Casimir images C^(2), C_(2), C^(3)."""

    z: float
    c12: Observable
    c23: Observable
    c123: Observable

    def as_dict(self):
        return {"c12": self.c12, "c23": self.c23, "c123": self.c123}


def one_site(z, site=1):
    """One-pair realization: J- = q^2, J+ = sinhc(z q^2) p^2, J3 = sinhc(z q^2) q p."""
    if site not in (1, 2, 3):
        raise ValueError("site must be 1, 2 or 3")
    q = coordinate(site - 1)
    p = coordinate(site + 2)
    jm = q * q
    w = sinhc(z * q * q)
    return Realization(z, 1, (site,), jm, w * p * p, w * q * p)


def coproduct_join(a, b):
    """Join two realizations on disjoint pairs via the deformed coproduct.

    The left factor takes the e^{+zJ-} tail of the right one and vice versa,
    which is the ordering that reproduces the closed three-site formulas when
    sites are joined in increasing order.
    """
    if a.z != b.z:
        raise ValueError(f"deformation mismatch: {a.z} != {b.z}")
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
    return coproduct_join(coproduct_join(one_site(z, 1), one_site(z, 2)),
                          one_site(z, 3))


def _sinhc_exp_factors(z):
    q1, q2, q3 = (coordinate(i) for i in range(3))
    s = tuple(sinhc(z * q * q) for q in (q1, q2, q3))
    e = tuple(exp(z * q * q) for q in (q1, q2, q3))
    return s, e


def three_site_closed_form(z):
    """The explicit three-site generators; independent oracle for the coproduct."""
    q1, q2, q3 = (coordinate(i) for i in range(3))
    p1, p2, p3 = (coordinate(i + 3) for i in range(3))
    (s1, s2, s3), (e1, e2, e3) = _sinhc_exp_factors(z)
    jm = q1 * q1 + q2 * q2 + q3 * q3
    jp = s1 * p1 * p1 * e2 * e3 + s2 * p2 * p2 * e3 / e1 + s3 * p3 * p3 / (e1 * e2)
    j3 = (s1 * q1 * p1 * e2 * e3 + s2 * q2 * p2 * e3 / e1
          + s3 * q3 * p3 / (e1 * e2))
    return Realization(z, 3, (1, 2, 3), jm, jp, j3)


def casimirs(z):
    """Closed-form Casimir images on sites (1,2), (2,3) and (1,2,3)."""
    q1, q2, q3 = (coordinate(i) for i in range(3))
    p1, p2, p3 = (coordinate(i + 3) for i in range(3))
    (s1, s2, s3), (e1, e2, e3) = _sinhc_exp_factors(z)
    m12 = q1 * p2 - q2 * p1
    m13 = q1 * p3 - q3 * p1
    m23 = q2 * p3 - q3 * p2
    c12 = s1 * s2 * m12 * m12 * e2 / e1
    c23 = s2 * s3 * m23 * m23 * e3 / e2
    c123 = (s1 * s2 * m12 * m12 * (e2 / e1) * e3 * e3
            + s1 * s3 * m13 * m13 * e3 / e1
            + s2 * s3 * m23 * m23 * e3 / (e1 * e1 * e2))
    return CasimirSet(z, c12.renamed("C12"), c23.renamed("C23"),
                      c123.renamed("C123"))


def casimir_of(r):
    """Casimir sinh(zJ-)/z J+ - J3^2 assembled from a realization's generators."""
    return r.jminus * sinhc(r.z * r.jminus) * r.jplus - r.jthree * r.jthree


def pbracket(f, g, state):
    """Canonical Poisson bracket {f, g} at a state, from exact gradients."""
    gf = grad(f, state)
    gg = grad(g, state)
    return float(gf[:3] @ gg[3:] - gg[:3] @ gf[3:])


# --------------------------------------------------------------------------
# Declarative bracket tables and randomized verification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Identity:
    """One expected identity: a bracket {f, g} = rhs, or a value f = rhs."""

    name: str
    f: Observable
    g: Observable = None          # None -> value identity
    rhs: object = 0.0             # Observable or float
    group: str = ""


@dataclass
class IdentityResult:
    identity: str
    group: str
    samples: int
    max_residual: float
    worst_point: tuple

    def as_dict(self):
        return {"identity": self.identity, "group": self.group,
                "samples": self.samples, "max_residual": self.max_residual,
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

    def to_json(self, **kwargs):
        kwargs.setdefault("indent", 2)
        kwargs.setdefault("sort_keys", True)
        return json.dumps(self.as_dict(), **kwargs)


# Weight of the gradient-magnitude term in the residual scale.  A bracket of
# observables with gradients gf, gg cannot be computed more accurately than
# ~eps*|gf||gg| in doubles, so dividing by a small multiple of that product
# keeps legitimate cancellation at the 1e-12 level while a 1% structural
# perturbation still surfaces at >= 1e-3.
_GRAD_SCALE = 1e-4


def run_table(suite, table, sampler, samples, seed, params=None):
    """Evaluate every identity of a table at `samples` random points.

    Gradients and values of each distinct observable are computed once per
    sample point and shared across identities, so a 15-row table costs six
    dual evaluations per point, not thirty.  Residuals are relative: the
    mismatch is scaled by the magnitudes of both sides and (for brackets) by
    the gradient product that bounds the achievable precision.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    worst = [(-1.0, None)] * len(table)
    for _ in range(samples):
        state = sampler(rng)
        cache = {}

        def vg(obs, _state=state, _cache=cache):
            key = id(obs)
            if key not in _cache:
                _cache[key] = obs.value_and_gradient(_state)
            return _cache[key]

        for i, ident in enumerate(table):
            scale = 1.0
            if ident.g is not None:
                _, gf = vg(ident.f)
                _, gg = vg(ident.g)
                lhs = float(gf[:3] @ gg[3:] - gg[:3] @ gf[3:])
                scale = _GRAD_SCALE * float(np.linalg.norm(gf) * np.linalg.norm(gg))
            else:
                lhs = vg(ident.f)[0]
            rhs = vg(ident.rhs)[0] if isinstance(ident.rhs, Observable) else float(ident.rhs)
            res = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs), scale)
            # A NaN residual is the worst one; the first NaN point is kept.
            if res > worst[i][0] or (math.isnan(res) and not math.isnan(worst[i][0])):
                worst[i] = (res, state)
    results = [
        IdentityResult(ident.name, ident.group, samples, w, s.coords if isinstance(s, PhaseState) else tuple(s))
        for ident, (w, s) in zip(table, worst)
    ]
    return BracketReport(suite, samples, seed, params or {}, results)


def sample_beltrami(rng, lo=-2.0, hi=2.0, min_abs=1e-3):
    """Random regular point: uniform in [lo, hi], positions away from zero."""
    while True:
        coords = rng.uniform(lo, hi, 6)
        if np.all(np.abs(coords[:3]) > min_abs):
            return PhaseState(Chart.BELTRAMI, tuple(coords))


def _perturbed(r, perturb):
    if perturb is None:
        return r
    scaled = {name: r.generator(name) for name in ("jminus", "jplus", "jthree")}
    if perturb not in scaled:
        raise ValueError(f"unknown generator {perturb!r}")
    scaled[perturb] = scaled[perturb] * 1.01
    return Realization(r.z, r.sites, r.indices,
                       scaled["jminus"], scaled["jplus"], scaled["jthree"])


def sl2z_table(r):
    """The three deformed commutation rules for a realization."""
    z = r.z
    jm, jp, j3 = r.jminus, r.jplus, r.jthree
    return [
        Identity("{J3,J+} = 2 J+ cosh(z J-)", j3, jp, 2.0 * jp * cosh(z * jm)),
        Identity("{J3,J-} = -2 J- sinhc(z J-)", j3, jm, -2.0 * jm * sinhc(z * jm)),
        Identity("{J-,J+} = 4 J3", jm, jp, 4.0 * j3),
    ]


def verify_sl2z(r, samples=100, seed=0, perturb=None):
    """Check the deformed brackets for a realization at random regular points.

    `perturb` optionally scales one generator by 1.01 first; a healthy run
    must then report a residual above the detection floor (negative control).
    """
    r = _perturbed(r, perturb)
    table = sl2z_table(r)
    report = run_table("sl2z", table, sample_beltrami, samples, seed,
                       params={"z": r.z, "sites": r.sites,
                               "perturb": perturb or ""})
    return report


def verify_casimirs(z, samples=100, seed=0, perturb=None):
    """Centrality, involution, and closed-form checks for the Casimir images.

    Groups: "centrality" (each Casimir image Poisson-commutes with the three
    three-site generators), "involution" (the two integrability pairs),
    "closed-form" (the generator-assembled Casimirs match the explicit
    formulas), "coproduct" (iterated coproduct matches the explicit
    three-site generators).  `perturb` scales one generator of the
    coproduct-built realizations by 1.01.
    """
    cs = casimirs(z)
    closed = three_site_closed_form(z)
    r12 = _perturbed(coproduct_join(one_site(z, 1), one_site(z, 2)), perturb)
    r23 = _perturbed(coproduct_join(one_site(z, 2), one_site(z, 3)), perturb)
    r123 = _perturbed(three_site(z), perturb)
    table = []
    for cname, cob in (("C12", cs.c12), ("C23", cs.c23), ("C123", cs.c123)):
        for jname in ("jminus", "jplus", "jthree"):
            table.append(Identity(f"{{{cname}, {jname}^(3)}} = 0", cob,
                                  closed.generator(jname), 0.0,
                                  group="centrality"))
    table.append(Identity("{C12, C123} = 0", cs.c12, cs.c123, 0.0,
                          group="involution"))
    table.append(Identity("{C23, C123} = 0", cs.c23, cs.c123, 0.0,
                          group="involution"))
    for name, r, cob in (("C12", r12, cs.c12), ("C23", r23, cs.c23),
                         ("C123", r123, cs.c123)):
        table.append(Identity(f"casimir(generators) = {name}",
                              casimir_of(r), None, cob, group="closed-form"))
    for jname in ("jminus", "jplus", "jthree"):
        table.append(Identity(f"coproduct {jname} = closed form",
                              r123.generator(jname), None,
                              closed.generator(jname), group="coproduct"))
    return run_table("casimirs", table, sample_beltrami, samples, seed,
                     params={"z": z, "perturb": perturb or ""})
