"""Hamiltonian families on 3D curved spaces, charts, metrics and curvature.

Charts
------
BELTRAMI          (q1, q2, q3):  the chart where the many-body coalgebra
                  realization lives; restricted to the open positive octant.
POLAR_VARIABLE    (rho, theta, phi): geodesic-polar-like chart of the
                  variable-curvature spaces.
POLAR_CONSTANT    (r, theta, phi): geodesic polar chart of the constant-
                  curvature spaces, reached from POLAR_VARIABLE through the
                  radial map  C_z(r) * C_{-z}(rho) = 1.

Normalization
-------------
Every named family is normalized so that H = (1/2) g^{ij} p_i p_j + V with
g the chart metric returned by :func:`metric` (which keeps the overall
factor 2 of the Beltrami-chart line element).  In the flat limit z -> 0 the
constant-curvature Kepler family becomes the textbook  H = p^2/2 - k/r  in
polar coordinates.  The Beltrami-chart expressions are the exact canonical
pullbacks of the polar ones; relative to the raw coalgebra family
Hcal = J+ f(zJ-)/2 + U(zJ-) the kinetic part therefore carries a factor
1/4 (see the chart transform) while the Kepler potential enters as 2U.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import kernel
from .coalgebra import _closed_form, three_site_closed_form
from .kernel import DomainError
from .phase import (GAMMA, KAPPA2, Z, Chart, ChartMismatchError, ChartSingularityError,
                    Observable, PhaseState, bound, ckappa, coordinate, cotkappa,
                    exp, expm1c, skappa, sqrt)

__all__ = [
    "SpaceParams", "PRESETS", "Family", "HamiltonianSpec", "hamiltonian",
    "to_polar", "from_polar", "metric", "curvature", "CurvatureResult",
    "radial_reduction", "RadialSystem", "chart_guard",
]

# (kappa1, kappa2) signs of the six constant-curvature spaces.
PRESETS = {
    "spherical": (1.0, 1.0),
    "euclidean": (0.0, 1.0),
    "hyperbolic": (-1.0, 1.0),
    "antidesitter": (1.0, -1.0),
    "minkowski": (0.0, -1.0),
    "desitter": (-1.0, -1.0),
}


@dataclass(frozen=True)
class SpaceParams:
    """Deformation z (= kappa1), signature label kappa2, Kepler coupling gamma."""

    z: float
    kappa2: float
    gamma: float = 0.0

    def __post_init__(self):
        for name in ("z", "kappa2", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got "
                                  f"{getattr(self, name)!r}")
        if self.kappa2 == 0.0:
            raise DomainError("kappa2 = 0 is a degenerate (non-relativistic) "
                              "metric and is not supported")

    @property
    def kappa1(self):
        return self.z

    @property
    def k(self):
        """Kepler coupling of the polar-chart potential, k = 2 sqrt(2) gamma."""
        return 2.0 * math.sqrt(2.0) * self.gamma

    @property
    def binding(self):
        """The values of the graphs' parameter leaves z, kappa2 and gamma."""
        return self.z, self.kappa2, self.gamma

    @classmethod
    def preset(cls, name, gamma=0.0):
        try:
            kappa1, kappa2 = PRESETS[name]
        except KeyError:
            raise DomainError(f"unknown preset {name!r}; "
                              f"choose from {sorted(PRESETS)}") from None
        return cls(z=kappa1, kappa2=kappa2, gamma=gamma)


class _Symbols:
    """SpaceParams over the parameter leaves, for builders that build a graph once."""

    z, kappa2, gamma, kappa1, k = Z, KAPPA2, GAMMA, SpaceParams.kappa1, SpaceParams.k


_SYMBOLS = _Symbols()


class Family(enum.Enum):
    FREE_NC = "free-nc"
    FREE_CC = "free-cc"
    KEPLER_NC = "kepler-nc"
    KEPLER_CC = "kepler-cc"
    CUSTOM = "custom"

    @property
    def polar_chart(self):
        """The polar chart the family lives on; None for CUSTOM (Beltrami only)."""
        if self in (Family.FREE_NC, Family.KEPLER_NC):
            return Chart.POLAR_VARIABLE
        if self in (Family.FREE_CC, Family.KEPLER_CC):
            return Chart.POLAR_CONSTANT
        return None


@dataclass(frozen=True)
class HamiltonianSpec:
    """A Hamiltonian family selection with its space parameters.

    For ``Family.CUSTOM``, ``f`` is a scalar function of u = z J- with
    f(u) -> 1 as u -> 0 and ``potential`` a function (z, jminus) whose z -> 0
    limit is -gamma/sqrt(jminus); both limits are checked numerically.
    """

    family: Family
    params: SpaceParams
    f: object = None
    potential: object = None

    def __post_init__(self):
        if self.family is Family.CUSTOM:
            if self.f is None or self.potential is None:
                raise DomainError("custom family needs both f and potential")
            for jm in (0.5, 1.7, 3.2):
                if not abs(self.f(1e-10 * jm) - 1.0) <= 1e-8:  # NaN fails
                    raise DomainError("custom f does not tend to 1 as z -> 0")
                want = -self.params.gamma / math.sqrt(jm)
                got = self.potential(1e-10, jm)
                if not abs(got - want) <= 1e-8 * max(1.0, abs(want)):
                    raise DomainError("custom potential does not tend to "
                                      "-gamma/sqrt(q^2) as z -> 0")

    def compatible_charts(self):
        polar = self.family.polar_chart
        return (Chart.BELTRAMI,) if polar is None else (Chart.BELTRAMI, polar)


def _check_chart(spec, chart):
    if chart not in spec.compatible_charts():
        raise ChartMismatchError(
            f"{spec.family.value} is not defined on chart {chart.value}")


# Polar coordinate observables (names only; slots are positional).
_RAD, _TH, _PH, _PRAD, _PTH, _PPH = (
    coordinate(i, n) for i, n in enumerate(("r", "theta", "phi", "p_r", "p_theta", "p_phi")))


def hamiltonian(spec, chart):
    """The family Hamiltonian as an observable on the requested chart."""
    _check_chart(spec, chart)
    if spec.family is not Family.CUSTOM:
        return bound(_hamiltonian(spec.family, chart), spec.params.binding)
    # A custom family builds its own graph, with z bound in the closures of
    # its callables.
    z, f, pot = spec.params.z, spec.f, spec.potential
    r3 = three_site_closed_form(z)
    zjm, jm_of = (z * r3.jminus).fn, r3.jminus.fn
    h = (r3.jplus * Observable(lambda *s: f(zjm(*s)))
         + 2.0 * Observable(lambda *s: pot(z, jm_of(*s))))
    return h.renamed(f"H[{spec.family.value}]").with_chart(Chart.BELTRAMI)


@functools.cache
def _hamiltonian(family, chart):
    """A named family's Hamiltonian on a chart, over the parameter leaves."""
    params = _SYMBOLS
    if chart is Chart.BELTRAMI:
        z, jm, jp = params.z, _closed_form().jminus, _closed_form().jplus
        if family is Family.FREE_NC:
            h = 0.25 * jp
        elif family is Family.FREE_CC:
            h = 0.25 * jp * exp(z * jm)
        else:
            # 2 U(zJ-): the pullback of the polar Kepler terms to the Beltrami chart.
            u2 = -2.0 * params.gamma / sqrt(jm * expm1c(2.0 * z * jm))
            h = (0.25 * jp + exp(2.0 * z * jm) * u2 if family is Family.KEPLER_NC
                 else 0.25 * jp * exp(z * jm) + u2)
        return h.renamed(f"H[{family.value}]").with_chart(Chart.BELTRAMI)

    s2 = skappa(params.kappa2, _TH)
    angular = _PTH * _PTH + _PPH * _PPH / (s2 * s2)
    h = _polar_hamiltonian(family, params, _RAD, _PRAD, angular)
    return h.renamed(f"H[{family.value}]").with_chart(chart)


def _polar_hamiltonian(family, params, rad, prad, angular):
    """H on the family's polar chart from the radial pair and the angular
    term p_theta^2 + p_phi^2 / S_kappa2(theta)^2 (the constant C^(3)), on
    observables or floats: one formula for :func:`hamiltonian` and :class:`RadialSystem`.
    """
    z, kappa2, k = params.z, params.kappa2, params.k
    if family.polar_chart is Chart.POLAR_VARIABLE:
        nz = -z     # one label, so the two functions share one (S, C) pair
        cm, sm = ckappa(nz, rad), skappa(nz, rad)
        h = 0.5 * cm * (prad * prad + angular / (kappa2 * sm * sm))
        if family is Family.KEPLER_NC:
            h = h - k * cm * cm / sm
        return h
    sz = skappa(z, rad)
    h = 0.5 * (prad * prad + angular / (kappa2 * sz * sz))
    if family is Family.KEPLER_CC:
        h = h - k * cotkappa(z, rad)
    return h


# --------------------------------------------------------------------------
# Chart transforms
# --------------------------------------------------------------------------

_AXIS_EPS = 1e-8
# chart_guard stops an orbit where a chart factor falls below this.
_GUARD_EPS = 1e-6


def _require_bridge(params):
    if params.kappa2 <= 0.0:
        raise DomainError("the Beltrami chart only exists for kappa2 > 0 "
                          "(the squared-coordinate chart equations have no "
                          "real solution for Lorentzian signature)")


def _beltrami_positions(kind, c, params):
    """Positions (q1, q2, q3) from polar positions; generic arithmetic.

    ``kind`` is the source chart; ``c`` the three polar positions (floats or
    duals).  Uses log1p-stable forms so z = 0 and small z are exact.
    """
    z, kappa2 = params.z, params.kappa2
    rad, th, ph = c
    if kind is Chart.POLAR_CONSTANT:
        s = kernel.tkappa(z, rad)      # S_{-z}(rho) = T_z(r)
    else:
        s = kernel.skappa(-z, rad)
    s2t = kernel.skappa(kappa2, th)
    c2t = kernel.ckappa(kappa2, th)
    sp, cp = kernel.sin(ph), kernel.cos(ph)
    base = s * s * kappa2 * s2t * s2t          # sinh^2(l1 rho) sin^2(l2 th) / z
    w12 = z * base
    w1 = w12 * sp * sp
    q1sq = 0.5 * base * sp * sp * kernel.log1pc(w1)
    w2 = w12 * cp * cp / (1.0 + w1)
    q2sq = 0.5 * base * cp * cp / (1.0 + w1) * kernel.log1pc(w2)
    base3 = s * s * c2t * c2t
    w3 = z * base3 / (1.0 + w12)
    q3sq = 0.5 * base3 / (1.0 + w12) * kernel.log1pc(w3)
    return kernel.sqrt(q1sq), kernel.sqrt(q2sq), kernel.sqrt(q3sq)


def _position_jacobian(kind, pos, params):
    """d q_i / d polar_a, exactly, by dual-number differentiation."""
    return np.array([q.d[:3] for q in _beltrami_positions(kind, kernel.seeded(pos), params)])


def to_polar(state, params, target):
    """Canonical transform of a Beltrami-chart state into a polar chart.

    Positions follow the squared-coordinate chart equations; momenta follow
    the exact point-transformation rule with the Jacobian of the inverse
    position map differentiated by dual numbers.
    """
    if state.chart is not Chart.BELTRAMI:
        raise ChartMismatchError("to_polar expects a Beltrami-chart state")
    if target not in (Chart.POLAR_VARIABLE, Chart.POLAR_CONSTANT):
        raise ChartMismatchError("target must be a polar chart")
    _require_bridge(params)
    z, kappa2 = params.z, params.kappa2
    q = np.asarray(state.positions)
    p = np.asarray(state.momenta)
    if np.any(q <= 0.0):
        raise DomainError("Beltrami chart is restricted to the open positive "
                          "octant (q_i > 0); integrate in a polar chart to "
                          "cross coordinate planes")
    qq = float(q @ q)
    if qq < _AXIS_EPS ** 2:
        raise ChartSingularityError("origin maps to the polar pole (rho = 0)")
    if q[0] ** 2 + q[1] ** 2 < _AXIS_EPS ** 2:
        raise ChartSingularityError("point on the polar axis (sin(l2 theta)=0)")

    # S_{-z}(rho)^2 = 2 q^2 expm1c(2 z q^2); stable for every real z.
    e_all = kernel.expm1c(2.0 * z * qq)
    s_rho = math.sqrt(2.0 * qq * e_all)
    rad = kernel.asink(-z, s_rho) if target is Chart.POLAR_VARIABLE \
        else kernel.atank(z, s_rho)

    # C_{k2}(theta)^2 = e^{2z(q1^2+q2^2)} q3^2 expm1c(2 z q3^2) / (q^2 expm1c(2 z q^2))
    c2v = (math.exp(2.0 * z * (q[0] ** 2 + q[1] ** 2)) * q[2] ** 2
           * kernel.expm1c(2.0 * z * q[2] ** 2) / (qq * e_all))
    c2v = min(max(c2v, 0.0), 1.0)
    th = math.atan2(math.sqrt(1.0 - c2v), math.sqrt(c2v)) / math.sqrt(kappa2)

    a1 = q[0] ** 2 * kernel.expm1c(2.0 * z * q[0] ** 2)
    a2 = math.exp(2.0 * z * q[0] ** 2) * q[1] ** 2 * kernel.expm1c(2.0 * z * q[1] ** 2)
    ph = math.atan2(math.sqrt(a1), math.sqrt(a2))

    pos = (rad, th, ph)
    jac = _position_jacobian(target, pos, params)
    pol_momenta = jac.T @ p
    return PhaseState(target, pos + tuple(pol_momenta))


def from_polar(state, params):
    """Inverse of :func:`to_polar`; lands in the open positive octant."""
    if state.chart not in (Chart.POLAR_VARIABLE, Chart.POLAR_CONSTANT):
        raise ChartMismatchError("from_polar expects a polar-chart state")
    _require_bridge(params)
    pos = state.positions
    if abs(kernel.skappa(params.kappa2, pos[1])) < _AXIS_EPS:
        raise ChartSingularityError("point on the polar axis")
    if abs(pos[0]) < _AXIS_EPS:
        raise ChartSingularityError("radial pole")
    # The Beltrami image only covers the patch where the radial cosine factor
    # stays positive (r < pi/(2 sqrt(z)) resp. rho < pi/(2 sqrt(-z))).
    if state.chart is Chart.POLAR_CONSTANT:
        if kernel.ckappa(params.z, pos[0]) <= 0.0:
            raise DomainError("state beyond the hemisphere covered by the "
                              "Beltrami chart (C_kappa1(r) <= 0)")
    elif kernel.ckappa(-params.z, pos[0]) <= 0.0:
        raise DomainError("state beyond the chart edge (C_{-kappa1}(rho) <= 0)")
    q = _beltrami_positions(state.chart, pos, params)
    jac = _position_jacobian(state.chart, pos, params)
    p = np.linalg.solve(jac.T, np.asarray(state.momenta))
    return PhaseState(Chart.BELTRAMI, tuple(float(v) for v in q) + tuple(p))


# --------------------------------------------------------------------------
# Metrics and curvature
# --------------------------------------------------------------------------

def metric(chart, kind, point, params):
    """Metric coefficient matrix at a position triple.

    ``kind`` is "nc" (variable curvature) or "cc" (constant curvature).  The
    normalization is the one whose Beltrami-chart coefficients tend to
    2*identity in the flat limit; the free Hamiltonians satisfy
    H = (1/2) p^T g^{-1} p with this g in every chart.  g is diagonal in every chart,
    built in one array call (:func:`_diag`), and :func:`curvature` reads its diagonal alone.
    """
    if kind not in ("nc", "cc"):
        raise DomainError("kind must be 'nc' or 'cc'")
    z, kappa2 = params.z, params.kappa2
    x = [float(v) for v in point]
    if chart is Chart.BELTRAMI:
        q1, q2, q3 = x
        d = (2.0 * math.exp(-z * (q2 * q2 + q3 * q3)) / kernel._sinhc_f(z * q1 * q1),
             2.0 * math.exp(z * (q1 * q1 - q3 * q3)) / kernel._sinhc_f(z * q2 * q2),
             2.0 * math.exp(z * (q1 * q1 + q2 * q2)) / kernel._sinhc_f(z * q3 * q3))
        return _diag(d, None if kind == "nc" else math.exp(-z * (q1 * q1 + q2 * q2 + q3 * q3)))
    if chart is Chart.POLAR_VARIABLE:
        if kind != "nc":
            raise ChartMismatchError("polar-variable chart carries the "
                                     "variable-curvature metric")
        rho, th, _ = x
        sm, cm = kernel._kappa_pair(-z, rho)
        s2 = kernel._kappa_s(kappa2, th)
        if cm == 0.0:
            raise ChartSingularityError("chart edge: C_{-z}(rho) = 0")
        return _diag((1.0, kappa2 * sm * sm, kappa2 * sm * sm * s2 * s2), cm, operator.truediv)
    if chart is Chart.POLAR_CONSTANT:
        if kind != "cc":
            raise ChartMismatchError("polar-constant chart carries the "
                                     "constant-curvature metric")
        r, th, _ = x
        sz = kernel._kappa_s(z, r)
        s2 = kernel._kappa_s(kappa2, th)
        return _diag((1.0, kappa2 * sz * sz, kappa2 * sz * sz * s2 * s2))
    raise ChartMismatchError(f"no metric on chart {chart}")


def _diag(d, s=None, op=operator.mul):
    """``np.diag(d)``, or ``op(np.diag(d), s)``, in one array call and bit for bit (``op(0.0, s)``
    off the diagonal); a non-finite entry takes numpy's op, so an overflow warns or raises."""
    a, b, c, o = (*d, 0.0) if s is None else (op(d[0], s), op(d[1], s), op(d[2], s), op(0.0, s))
    if s is None or math.isfinite(a + b + c):
        return np.array(((a, o, o), (o, b, o), (o, o, c)))
    return op(np.diag(d), s)


def _christoffel(gfn, x, h):
    """Metric and Christoffel symbols at ``x``, read off the metric's diagonal (it has no
    other entries).  The reciprocals are ``np.linalg.inv``'s diagonal bit for bit, and a
    zero of either sign is the singular matrix ``inv`` refused: hence ``0.0 in diag``.
    ``dg[k]`` = d_k g is 0.0 off the diagonal; ``0.0 +`` keeps the full sum's zero sign."""
    g = gfn(x)
    diag = g.diagonal().tolist()
    if 0.0 in diag:
        raise ChartSingularityError("metric degenerate at evaluation point")
    dg = []
    for k in range(3):
        xp = x.copy(); xp[k] += h
        xm = x.copy(); xm[k] -= h
        d = [(p - m) / (2.0 * h) for p, m in zip(gfn(xp).diagonal().tolist(),
                                                  gfn(xm).diagonal().tolist())]
        dg.append([[d[0], 0.0, 0.0], [0.0, d[1], 0.0], [0.0, 0.0, d[2]]])
    gamma = [[[0.5 * (0.0 + gi * (dg[j][k][i] + dg[k][j][i] - dg[i][j][k])) for k in range(3)]
              for j in range(3)] for i, gi in enumerate(1.0 / v for v in diag)]
    return g, np.array(gamma)


@dataclass(frozen=True)
class CurvatureResult:
    """Sectional and scalar curvatures; ``closed`` holds their closed forms by field name."""

    k12: float
    k13: float
    k23: float
    kscalar: float
    closed: dict


def curvature(chart, kind, point, params, h=1e-4):
    """Sectional and scalar curvature by finite-difference Riemann tensor.

    The metric is differenced twice (step h for Christoffel symbols and for
    their derivatives), so the result carries an O(h^2) truncation error;
    the closed-form values are attached.  A step with x + h == x - h for some
    coordinate raises DomainError, and so does any step below 1e-6 max(1,
    |x_k|): its rounding noise, about eps/h**2, is above the 1e-4 curvature
    tolerance.  The contractions read the diagonal metric's entries as floats.
    """
    if not (math.isfinite(h) and h > 0):
        raise DomainError(f"finite-difference step must be finite and > 0, got {h!r}")
    try:
        x = np.asarray(point, dtype=float).tolist()
        ok = len(x) == 3 and all(map(math.isfinite, x))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise DomainError(f"curvature needs a point of three finite numbers, got {point!r}")
    for k, xk in enumerate(x):
        if xk + h == xk - h:
            raise DomainError(f"finite-difference step {h!r} does not move "
                              f"coordinate x{k + 1} = {xk!r}")
    for k, xk in enumerate(x):
        if h < 1e-6 * max(1.0, abs(xk)):
            raise DomainError(f"finite-difference step {h!r} is below 1e-6 max(1, |x{k + 1}|) "
                              f"at x{k + 1} = {xk!r}: its rounding noise swamps the curvature")
    gfn = lambda y: metric(chart, kind, y, params)
    g, gamma = _christoffel(gfn, x, h)
    dgamma = []
    for k in range(3):
        xp = x.copy(); xp[k] += h
        xm = x.copy(); xm[k] -= h
        dgamma.append(((_christoffel(gfn, xp, h)[1] - _christoffel(gfn, xm, h)[1])
                       / (2.0 * h)).tolist())
    gam = gamma.tolist()
    # R^i_{jkl} = d_k G^i_{lj} - d_l G^i_{kj} + G^i_{km} G^m_{lj} - G^i_{lm} G^m_{kj}
    riem = []
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    acc = dgamma[k][i][l][j] - dgamma[l][i][k][j]
                    for m in range(3):
                        acc += gam[i][k][m] * gam[m][l][j] \
                             - gam[i][l][m] * gam[m][k][j]
                    riem.append(acc)
    # R^i_{jkl} = riem[27 i + 9 j + 3 k + l]; each sum from 0.0 in np.einsum's order
    gd = g.diagonal().tolist()
    sec = []
    for i, j in ((0, 1), (0, 2), (1, 2)):  # g_im R^m_{jij} / (g_ii g_jj), x / 0 as numpy
        t = [(gd[i] if m == i else 0.0) * riem[27 * m + 9 * j + 3 * i + j] for m in range(3)]
        sec.append(float(np.float64(0.0 + t[0] + t[1] + t[2]) / (gd[i] * gd[j])))
    kscal = 0.0                            # g^jl R^i_{jil}
    for j, l in ((j, l) for j in range(3) for l in range(3)):
        kscal += (1.0 / gd[j] if j == l else 0.0) * (
            0.0 + riem[9 * j + l] + riem[30 + 9 * j + l] + riem[60 + 9 * j + l])
    return CurvatureResult(*sec, kscal, _closed_curvature(chart, kind, x, params))


def _closed_curvature(chart, kind, x, params):
    z = params.z
    if kind == "cc":
        return {"k12": z, "k13": z, "k23": z, "kscalar": 6.0 * z}
    if chart is Chart.BELTRAMI:
        q1, q2, q3 = x
        qq = q1 * q1 + q2 * q2 + q3 * q3
        e_all = math.exp(2.0 * z * qq)
        e3 = math.exp(2.0 * z * q3 * q3)
        e23 = math.exp(2.0 * z * (q2 * q2 + q3 * q3))
        pref = 0.25 * z * math.exp(-z * qq)
        # k23 is pinned by the trace identity K = 2(K12 + K13 + K23) with
        # K = -5 z sinh(z q^2); the numeric Riemann pipeline confirms it.
        return {
            "k12": pref * (1.0 + e3 - 2.0 * e_all),
            "k13": pref * (2.0 - e3 + e23 - 2.0 * e_all),
            "k23": pref * (2.0 - e23 - e_all),
            "kscalar": -5.0 * z * math.sinh(z * qq),
        }
    # polar-variable: metric() refuses every other (chart, kind)
    sm, cm = kernel._kappa_pair(-z, x[0])
    k12 = -0.5 * z * z * sm * sm / cm
    return {"k12": k12, "k13": k12, "k23": 0.5 * k12, "kscalar": 5.0 * k12}


# --------------------------------------------------------------------------
# Radial (one-dimensional) reduction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RadialSystem:
    """The separated radial Hamiltonian h(r, p_r) at fixed C^(3) = c3."""

    family: Family
    params: SpaceParams
    c3: float
    chart: Chart

    def potential(self, r):
        """The effective radial potential h(r, 0)."""
        return self.hamiltonian(r, 0.0)

    def hamiltonian(self, r, pr):
        return _polar_hamiltonian(self.family, self.params, r, pr, self.c3)


def radial_reduction(spec, c3):
    """Reduce a family to its radial canonical pair with C^(3) frozen at c3."""
    if not c3 >= 0:  # NaN fails
        raise DomainError("c3 must be >= 0")
    chart = spec.family.polar_chart
    if chart is None:
        raise DomainError("no radial closed form for custom families")
    return RadialSystem(spec.family, spec.params, float(c3), chart)


# --------------------------------------------------------------------------
# Chart-domain guard for trajectory integration
# --------------------------------------------------------------------------

# Each function a chart guard watches for a sign change: the singular set
# where it vanishes, and its name.
_WATCH = {
    Chart.POLAR_CONSTANT: (("radial pole", "S_kappa1(r)"), ("polar axis", "S_kappa2(theta)")),
    Chart.POLAR_VARIABLE: (("radial pole", "S_{-kappa1}(rho)"), ("polar axis", "S_kappa2(theta)"),
                           ("chart edge", "C_{-kappa1}(rho)")),
    Chart.BELTRAMI: tuple((f"coordinate plane q{i} = 0", f"q{i}") for i in (1, 2, 3)),
}


def _crossed(chart, before, signs):
    what, fn = next(w for w, b, s in zip(_WATCH[chart], before, signs) if b != s)
    return f"{what} crossed between steps: {fn} changed sign"


def chart_guard(chart, params):
    """A callable mapping raw coordinates to a singularity reason or None.

    Its ``step(c, before)`` attribute returns ``(reason, signs)``: the same
    reason, and otherwise the signs of the functions that vanish on the
    chart's singular set (``_WATCH``).  A sign change from ``before``, the
    signs at the previous accepted state, is a reason too: a step over the
    singular set, which the epsilon test cannot see."""
    z, kappa2, sk = params.z, params.kappa2, kernel._kappa_s

    if chart is Chart.POLAR_CONSTANT:
        def step(c, before):
            s1 = sk(z, c[0])
            if abs(s1) < _GUARD_EPS:
                return "radial pole: S_kappa1(r) ~ 0", None
            s2 = sk(kappa2, c[1])
            if abs(s2) < _GUARD_EPS:
                return "polar axis: S_kappa2(theta) ~ 0", None
            signs = (s1 > 0.0, s2 > 0.0)
            if signs != before and before is not None:
                return _crossed(chart, before, signs), signs
            return None, signs
    elif chart is Chart.POLAR_VARIABLE:
        def step(c, before):
            s, cm = kernel._kappa_pair(-z, c[0])
            if abs(s) < _GUARD_EPS:
                return "radial pole: S_{-kappa1}(rho) ~ 0", None
            s2 = sk(kappa2, c[1])
            if abs(s2) < _GUARD_EPS:
                return "polar axis: S_kappa2(theta) ~ 0", None
            if abs(cm) < _GUARD_EPS:
                return "chart edge: C_{-kappa1}(rho) ~ 0", None
            signs = (s > 0.0, s2 > 0.0, cm > 0.0)
            if signs != before and before is not None:
                return _crossed(chart, before, signs), signs
            return None, signs
    else:
        def step(c, before):
            if c[0] ** 2 + c[1] ** 2 + c[2] ** 2 < _GUARD_EPS * _GUARD_EPS:
                return "collision: q -> 0", None
            signs = (c[0] > 0.0, c[1] > 0.0, c[2] > 0.0)
            if signs != before and before is not None:
                return _crossed(chart, before, signs), signs
            return None, signs

    def guard(c):
        return step(c, None)[0]
    guard.step = step
    return guard
