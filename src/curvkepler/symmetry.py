"""Constants of motion, so_{k1,k2}(4) generators, and the Runge-Lenz vector.

Everything here lives on the geodesic polar chart of the constant-curvature
spaces (POLAR_CONSTANT) in the classical normalization of :mod:`.spaces`;
the angular constants are also valid verbatim on POLAR_VARIABLE, and the
Beltrami-chart representatives of the quadratic constants are the coalgebra
Casimir images (with one factor kappa2 where an angle enters squared).

All identities stay real for Lorentzian signature (kappa2 < 0) by
writing every formula through kappa-trigonometry; the odd-in-lambda2 scaled
vector components P_i are only materialized for kappa2 > 0, while their
bracket table is verified in the equivalent even form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .coalgebra import run_table  # noqa: F401  (retained: perfbench/spans.py wraps symmetry.run_table)
from .coalgebra import Identity, _uniform_coords, casimirs, run_tables
from .kernel import DomainError
from .phase import grad  # noqa: F401  (retained: perfbench/spans.py wraps symmetry.grad)
from .phase import (P1, Q1, Chart, ChartMismatchError, Columns, Observable, PhaseState,
                    ckappa, cos, cotkappa, exp, memo, sin, sinhc, skappa)
from .spaces import (_PH, _PPH, _PRAD, _PTH, _RAD, _TH, Family,
                     HamiltonianSpec, SpaceParams, _check_chart, hamiltonian,
                     to_polar)

__all__ = [
    "GeneratorSet", "LRLVector", "so4_generators", "constants", "lrl",
    "verify_so4", "verify_lrl_algebra", "independence_rank",
    "independence_ranks", "sample_polar", "transported",
]

@dataclass(frozen=True)
class GeneratorSet:
    """Symplectic realization of the six so_{k1,k2}(4) generators."""

    params: SpaceParams
    j01: Observable
    j02: Observable
    j03: Observable
    j12: Observable
    j13: Observable
    j23: Observable

    def named(self):
        return {"j01": self.j01, "j02": self.j02, "j03": self.j03,
                "j12": self.j12, "j13": self.j13, "j23": self.j23}


@memo
def so4_generators(params, perturb=None):
    """The six generators on the polar chart; closes so_{kappa1,kappa2}(4).

    `perturb` scales one named generator by 1.01 (negative-control hook).
    """
    k1, k2 = params.kappa1, params.kappa2
    cot1 = cotkappa(k1, _RAD)
    s2 = skappa(k2, _TH)
    c2 = ckappa(k2, _TH)
    cot2 = c2 / s2
    sp, cp = sin(_PH), cos(_PH)
    gens = {
        "j01": c2 * _PRAD - cot1 * s2 * _PTH,
        "j02": k2 * s2 * cp * _PRAD + cot1 * c2 * cp * _PTH - cot1 * sp / s2 * _PPH,
        "j03": k2 * s2 * sp * _PRAD + cot1 * c2 * sp * _PTH + cot1 * cp / s2 * _PPH,
        "j12": cp * _PTH - sp * cot2 * _PPH,
        "j13": sp * _PTH + cp * cot2 * _PPH,
        "j23": _PPH,
    }
    if perturb is not None:
        if perturb not in gens:
            raise DomainError(f"unknown generator {perturb!r}")
        gens[perturb] = gens[perturb] * 1.01
    gens = {name: ob.renamed(name).with_chart(Chart.POLAR_CONSTANT)
            for name, ob in gens.items()}
    return GeneratorSet(params, **gens)


def _angular_constants(kappa2):
    s2 = skappa(kappa2, _TH)
    cot2 = ckappa(kappa2, _TH) / s2
    c2 = (_PPH * _PPH).renamed("C2")
    c2mid = ((cos(_PH) * _PTH - sin(_PH) * cot2 * _PPH) ** 2).renamed("C2mid")
    c3 = (_PTH * _PTH + _PPH * _PPH / (s2 * s2)).renamed("C3")
    return c2, c2mid, c3


@dataclass(frozen=True)
class LRLVector:
    """Laplace-Runge-Lenz components for the constant-curvature Kepler flow."""

    params: SpaceParams
    l1: Observable
    l2: Observable
    l3: Observable
    mu: Observable

    def components(self):
        return {"L1": self.l1, "L2": self.l2, "L3": self.l3}

    def scaled(self):
        """P_i = (L1/l2, l2 L2, l2 L3); real only for kappa2 > 0."""
        k2 = self.params.kappa2
        if k2 <= 0:
            raise DomainError("scaled components are imaginary for kappa2 < 0; "
                              "use the even-form bracket table instead")
        l2 = math.sqrt(k2)
        return {"P1": self.l1 * (1.0 / l2), "P2": l2 * self.l2,
                "P3": l2 * self.l3}


@memo
def lrl(params, gens=None):
    """Runge-Lenz vector built on the so(4) generators, plus the cubic mu.

    mu = 2 (kappa1 C^(3) - kappa2 H) with H the constant-curvature Kepler
    Hamiltonian; {L_i, L_j} = mu J_ij closes the cubic (Higgs-type) algebra.
    """
    if gens is None:
        gens = so4_generators(params)
    k1, k2, k = params.kappa1, params.kappa2, params.k
    s2 = skappa(k2, _TH)
    c2 = ckappa(k2, _TH)
    sp, cp = sin(_PH), cos(_PH)
    l1 = (-gens.j02 * gens.j12 - gens.j03 * gens.j13 + k * k2 * c2).renamed("L1")
    l2 = (gens.j01 * gens.j12 - gens.j03 * gens.j23 + k * k2 * s2 * cp).renamed("L2")
    l3 = (gens.j01 * gens.j13 + gens.j02 * gens.j23 + k * k2 * s2 * sp).renamed("L3")
    c3 = gens.j12 * gens.j12 + gens.j13 * gens.j13 + k2 * gens.j23 * gens.j23
    h = hamiltonian(HamiltonianSpec(Family.KEPLER_CC, params), Chart.POLAR_CONSTANT)
    mu = (2.0 * (k1 * c3 - k2 * h)).renamed("mu")
    return LRLVector(params, l1.with_chart(Chart.POLAR_CONSTANT),
                     l2.with_chart(Chart.POLAR_CONSTANT),
                     l3.with_chart(Chart.POLAR_CONSTANT),
                     mu.with_chart(Chart.POLAR_CONSTANT))


@memo
def constants(spec, chart):
    """Constants of motion of a family, as named observables on a chart.

    Always contains C2, C2mid, C3; FREE_CC adds the Staeckel constant I2;
    KEPLER_CC adds the Runge-Lenz components L1..L3 on its polar chart (the
    L_i have no closed Beltrami-chart form; use :func:`transported` there).
    Every returned observable Poisson-commutes with hamiltonian(spec, chart).
    """
    _check_chart(spec, chart)
    params = spec.params
    kappa2 = params.kappa2
    out = {}
    if chart is Chart.BELTRAMI:
        cs = casimirs(params.z)
        out["C2"] = cs.c12.renamed("C2")
        out["C2mid"] = (kappa2 * cs.c23).renamed("C2mid")
        out["C3"] = (kappa2 * cs.c123).renamed("C3")
        if spec.family is Family.FREE_CC:
            z = params.z
            i2 = 0.5 * sinhc(z * Q1 * Q1) * exp(z * Q1 * Q1) * P1 * P1
            out["I2"] = (kappa2 * i2).renamed("I2")
        return {name: ob.renamed(name).with_chart(Chart.BELTRAMI)
                for name, ob in out.items()}
    c2, c2mid, c3 = _angular_constants(kappa2)
    out = {"C2": c2, "C2mid": c2mid, "C3": c3}
    if spec.family is Family.FREE_CC:
        gens = so4_generators(params)
        out["I2"] = (gens.j03 * gens.j03).renamed("I2")
    if spec.family is Family.KEPLER_CC and chart is Chart.POLAR_CONSTANT:
        vec = lrl(params)
        out.update(vec.components())
    return {name: ob.renamed(name).with_chart(chart) for name, ob in out.items()}


def transported(obs, params, source=Chart.BELTRAMI):
    """Value-level transport of a polar-chart observable to another chart.

    Returns a plain callable (not an Observable): the composed map is not
    dual-differentiable, so it supports evaluation but not brackets.
    """
    target = obs.chart or Chart.POLAR_CONSTANT

    def evaluate(state):
        if isinstance(state, PhaseState) and state.chart is target:
            return obs(state)
        if not isinstance(state, PhaseState):
            state = PhaseState(source, tuple(state))
        return obs(to_polar(state, params, target))

    return evaluate


# --------------------------------------------------------------------------
# Randomized verification
# --------------------------------------------------------------------------

def sample_polar(params, rng, chart=Chart.POLAR_CONSTANT, *, n=None):
    """Random regular polar-chart point, away from poles and chart edges;
    with ``n``, a list of ``n`` of them from one generator call
    (:func:`.coalgebra._uniform_coords`).  A chart other than the two polar
    ones raises ChartMismatchError before anything is drawn."""
    k1, k2 = params.kappa1, params.kappa2
    if chart is Chart.POLAR_CONSTANT:
        rmax = 0.85 * math.pi / math.sqrt(k1) if k1 > 0 else 1.8
    elif chart is Chart.POLAR_VARIABLE:
        # rho chart: the edge sits where C_{-k1}(rho) vanishes (k1 < 0).
        rmax = 0.8 * 0.5 * math.pi / math.sqrt(-k1) if k1 < 0 else 1.8
    else:
        raise ChartMismatchError(f"no polar sampling box on chart {chart!r}")
    rlo = min(0.25, 0.3 * rmax)
    tmax = 0.85 * math.pi / math.sqrt(k2) if k2 > 0 else 1.5
    tlo = min(0.25, 0.3 * tmax)
    mom = (-2.0, 2.0)
    bounds = ((rlo, rmax), (tlo, tmax), (0.0, 2.0 * math.pi), mom, mom, mom)
    states = [PhaseState(chart, c) for c in _uniform_coords(rng, bounds, 1 if n is None else n)]
    return states[0] if n is None else states


def _polar_sampler(params):
    return functools.partial(sample_polar, params)


@memo
def _so4_table(gens, params):
    k1, k2 = params.kappa1, params.kappa2
    j01, j02, j03 = gens.j01, gens.j02, gens.j03
    j12, j13, j23 = gens.j12, gens.j13, gens.j23
    rows = [
        ("{J12,J13} = k2 J23", j12, j13, k2 * j23),
        ("{J12,J23} = -J13", j12, j23, -1.0 * j13),
        ("{J13,J23} = J12", j13, j23, j12),
        ("{J12,J01} = J02", j12, j01, j02),
        ("{J13,J01} = J03", j13, j01, j03),
        ("{J23,J02} = J03", j23, j02, j03),
        ("{J12,J02} = -k2 J01", j12, j02, -k2 * j01),
        ("{J13,J03} = -k2 J01", j13, j03, -k2 * j01),
        ("{J23,J03} = -J02", j23, j03, -1.0 * j02),
        ("{J01,J02} = k1 J12", j01, j02, k1 * j12),
        ("{J01,J03} = k1 J13", j01, j03, k1 * j13),
        ("{J02,J03} = k1 k2 J23", j02, j03, k1 * k2 * j23),
        ("{J01,J23} = 0", j01, j23, 0.0),
        ("{J02,J13} = 0", j02, j13, 0.0),
        ("{J03,J12} = 0", j03, j12, 0.0),
    ]
    table = [Identity(name, f, g, rhs, group="so4") for name, f, g, rhs in rows]
    # The free Hamiltonian is the quadratic Casimir of the algebra.
    hfree = hamiltonian(HamiltonianSpec(Family.FREE_CC, params),
                        Chart.POLAR_CONSTANT)
    casimir = (k2 * j01 * j01 + j02 * j02 + j03 * j03
               + k1 * (j12 * j12 + j13 * j13 + k2 * j23 * j23))
    table.append(Identity("2 k2 H_cc = quadratic Casimir", 2.0 * k2 * hfree,
                          None, casimir, group="casimir"))
    return table


def _so4_job(params, perturb):
    table = _so4_table(so4_generators(params, perturb=perturb), params)
    return "so4", table, {"z": params.z, "kappa2": params.kappa2, "perturb": perturb or ""}


def verify_so4(params, samples=100, seed=0, perturb=None):
    """Check the fifteen so_{k1,k2}(4) brackets plus the Casimir identity."""
    return run_tables([_so4_job(params, perturb)], _polar_sampler(params), samples, seed)[0]


@memo
def _lrl_table(params, perturb=None):
    k1, k2 = params.kappa1, params.kappa2
    gens = so4_generators(params, perturb=perturb)
    vec = lrl(params, gens=gens)
    l1, l2, l3, mu = vec.l1, vec.l2, vec.l3, vec.mu
    j12, j13, j23 = gens.j12, gens.j13, gens.j23
    h = hamiltonian(HamiltonianSpec(Family.KEPLER_CC, params),
                    Chart.POLAR_CONSTANT)
    rows = []
    for name, ob in vec.components().items():
        rows.append(Identity(f"{{{name}, H_cc_kepler}} = 0", ob, h, 0.0,
                             group="conservation"))
    vector = [
        ("{J12,L1} = k2 L2", j12, l1, k2 * l2),
        ("{J12,L2} = -L1", j12, l2, -1.0 * l1),
        ("{J12,L3} = 0", j12, l3, 0.0),
        ("{J13,L1} = k2 L3", j13, l1, k2 * l3),
        ("{J13,L2} = 0", j13, l2, 0.0),
        ("{J13,L3} = -L1", j13, l3, -1.0 * l1),
        ("{J23,L1} = 0", j23, l1, 0.0),
        ("{J23,L2} = L3", j23, l2, l3),
        ("{J23,L3} = -L2", j23, l3, -1.0 * l2),
    ]
    rows += [Identity(n, f, g, r, group="vector") for n, f, g, r in vector]
    mutual = [
        ("{L1,L2} = mu J12", l1, l2, mu * j12),
        ("{L1,L3} = mu J13", l1, l3, mu * j13),
        ("{L2,L3} = mu J23", l2, l3, mu * j23),
    ]
    rows += [Identity(n, f, g, r, group="mutual") for n, f, g, r in mutual]
    # Full cubic table in even form (P1 = L1/l2, P2 = l2 L2, P3 = l2 L3;
    # each row is multiplied by the lambda2 power that makes it even).
    cubic = [
        ("higgs(J12;P1,P2)", [
            ("{J12,P1} = P2   [even: {J12,L1} = k2 L2]", j12, l1, k2 * l2),
            ("{J12,P2} = -k2 P1   [even: {J12,L2} = -L1]", j12, l2, -1.0 * l1),
            ("{P1,P2} = mu J12   [even: {L1,L2} = mu J12]", l1, l2, mu * j12),
        ]),
        ("higgs(J13;P1,P3)", [
            ("{J13,P1} = P3   [even: {J13,L1} = k2 L3]", j13, l1, k2 * l3),
            ("{J13,P3} = -k2 P1   [even: {J13,L3} = -L1]", j13, l3, -1.0 * l1),
            ("{P1,P3} = mu J13   [even: {L1,L3} = mu J13]", l1, l3, mu * j13),
        ]),
        ("higgs(J23;P2,P3)", [
            ("{J23,P2} = P3   [even: {J23,L2} = L3]", j23, l2, l3),
            ("{J23,P3} = -P2   [even: {J23,L3} = -L2]", j23, l3, -1.0 * l2),
            ("{P2,P3} = mu k2 J23   [even: k2{L2,L3} = mu k2 J23]",
             k2 * l2, l3, k2 * mu * j23),
        ]),
        ("cubic-rotation", [
            ("{J12,J13} = k2 J23", j12, j13, k2 * j23),
            ("{J12,J23} = -J13", j12, j23, -1.0 * j13),
            ("{J13,J23} = J12", j13, j23, j12),
        ]),
        ("cubic-vanishing", [
            ("{P1,J23} = 0   [even: {L1,J23} = 0]", l1, j23, 0.0),
            ("{P2,J13} = 0   [even: {L2,J13} = 0]", l2, j13, 0.0),
            ("{P3,J12} = 0   [even: {L3,J12} = 0]", l3, j12, 0.0),
        ]),
    ]
    for group, items in cubic:
        rows += [Identity(n, f, g, r, group=group) for n, f, g, r in items]
    return rows


def _lrl_job(params, perturb):
    return "lrl", _lrl_table(params, perturb=perturb), {
        "z": params.z, "kappa2": params.kappa2, "gamma": params.gamma, "perturb": perturb or ""}


def verify_lrl_algebra(params, samples=100, seed=0, perturb=None):
    """Check conservation of the L_i and the full rotation/mutual/cubic tables."""
    return run_tables([_lrl_job(params, perturb)], _polar_sampler(params), samples, seed)[0]


def independence_ranks(observables, states, threshold=1e-8):
    """Numerical rank of the Jacobian of a list of observables at each state.

    One compiled call per state gives every gradient
    (:class:`.phase.Columns`), and one stacked SVD all the
    singular values; a rank counts those above ``threshold`` times the
    largest (0 for a zero Jacobian).
    """
    jac = Columns(observables)(states)[1]
    sv = np.linalg.svd(jac, compute_uv=False)
    return np.sum(sv > threshold * sv[:, :1], axis=1).tolist()


def independence_rank(observables, state, threshold=1e-8):
    """Numerical rank of the Jacobian of a list of observables at a state."""
    return independence_ranks(observables, [state], threshold)[0]
