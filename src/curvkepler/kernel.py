"""Scalar math kernel: curvature-labeled trigonometry and forward-mode duals.

The whole library works on a 6-dimensional phase space, so the dual scalar
``KScalar`` carries exactly six partial derivatives and one evaluation yields
a full gradient.  All elementary functions below accept either a plain float
or a ``KScalar`` and propagate derivatives through the chain rule.

Curvature-labeled trigonometry: the label ``kappa`` is a real number, never
a dual (only ``x`` carries partials), and

    ckappa(kappa, x) = cos(sqrt(kappa) x)          kappa > 0
                     = 1                           kappa = 0
                     = cosh(sqrt(-kappa) x)        kappa < 0

and ``skappa`` is the matching sine with ``skappa -> x`` in the flat limit.
Both are analytic in ``kappa`` (they are even series in ``sqrt(kappa) x``),
which is what lets a single real-valued code path cover spherical, flat and
hyperbolic/Lorentzian cases without complex arithmetic.
"""

from __future__ import annotations

import math
import operator

NVARS = 6

# Taylor-branch thresholds for removable singularities.  Below these the
# direct formulas would divide nearly-cancelling quantities in the derivative
# channel; the truncated series is exact to well below double precision.
_KTRIG_TAYLOR = 1e-8     # on u = kappa * x**2
_SINHC_TAYLOR = 1e-5     # on u = z * q**2
_EXPM1C_TAYLOR = 1e-5
# The derivatives of sinhc and expm1c take their series below this: the
# closed forms (cosh v - sinhc v)/v and (exp v - expm1c v)/v cancel and lose
# about 3 eps/v**2 relative, which is below 3e-15 only from |v| = 0.5 on.
_DERIV_SERIES = 0.5


class KernelError(Exception):
    """Base class for kernel-level numerical errors."""


class PoleError(KernelError, ZeroDivisionError):
    """A trig ratio was evaluated at a pole (coordinate chart breakdown)."""


class DomainError(KernelError, ValueError):
    """An argument left the mathematical domain of an operation."""


_ZEROS = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
# Unit tangent e_i of slot i: the derivative lanes of a seeded coordinate.
_UNIT = tuple(tuple(float(i == j) for j in range(NVARS)) for i in range(NVARS))


class KScalar:
    """A scalar with six exact phase-space partials (forward-mode dual).

    ``val`` is the value, ``d`` a 6-tuple of partials with respect to the
    phase-space slots (q1, q2, q3, p1, p2, p3) or their chart equivalents.
    Arithmetic follows the product/quotient/chain rules exactly, and a value
    is the float operation's result: a quotient's is ``u / v``.  A rule with
    one dual operand is one :func:`_chain` step; sums and negation act lane
    by lane.  It is the fallback of observables that do not compile.
    """

    __slots__ = ("val", "d")

    def __init__(self, val, d=_ZEROS):
        self.val = val
        self.d = d

    # -- arithmetic -------------------------------------------------------
    def __add__(self, o):
        if isinstance(o, KScalar):
            return KScalar(self.val + o.val, tuple(map(operator.add, self.d, o.d)))
        return KScalar(self.val + o, self.d)

    __radd__ = __add__

    def __neg__(self):
        return KScalar(-self.val, tuple(map(operator.neg, self.d)))

    def __sub__(self, o):
        if isinstance(o, KScalar):
            return KScalar(self.val - o.val, tuple(map(operator.sub, self.d, o.d)))
        return KScalar(self.val - o, self.d)

    def __rsub__(self, o):
        return KScalar(o - self.val, tuple(map(operator.neg, self.d)))

    def __mul__(self, o):
        if isinstance(o, KScalar):
            a, b = self.d, o.d
            u, v = self.val, o.val
            return KScalar(u * v,
                           (v * a[0] + u * b[0], v * a[1] + u * b[1],
                            v * a[2] + u * b[2], v * a[3] + u * b[3],
                            v * a[4] + u * b[4], v * a[5] + u * b[5]))
        return _chain(self, self.val * o, o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, KScalar):
            a, b = self.d, o.d
            u, v = self.val, o.val
            w = 1.0 / v
            c = -u * w * w
            return KScalar(u / v,
                           (w * a[0] + c * b[0], w * a[1] + c * b[1],
                            w * a[2] + c * b[2], w * a[3] + c * b[3],
                            w * a[4] + c * b[4], w * a[5] + c * b[5]))
        return _chain(self, self.val / o, 1.0 / o)

    def __rtruediv__(self, o):
        u = self.val
        return _chain(self, o / u, -o / (u * u))

    def __pow__(self, n):
        u = self.val
        return _chain(self, u ** n, n * u ** (n - 1))

    # -- comparisons act on the value part --------------------------------
    def __lt__(self, o):
        return self.val < (o.val if isinstance(o, KScalar) else o)

    def __le__(self, o):
        return self.val <= (o.val if isinstance(o, KScalar) else o)

    def __gt__(self, o):
        return self.val > (o.val if isinstance(o, KScalar) else o)

    def __ge__(self, o):
        return self.val >= (o.val if isinstance(o, KScalar) else o)

    def __abs__(self):
        return -self if self.val < 0 else self

    def __repr__(self):
        return f"KScalar({self.val!r}, d={self.d!r})"


def _chain(x, val, dval):
    """The dual of ``val`` whose partials are ``x``'s times the derivative
    ``dval``: the chain step of every rule with one dual operand."""
    a = x.d
    return KScalar(val, (dval * a[0], dval * a[1], dval * a[2],
                         dval * a[3], dval * a[4], dval * a[5]))


def seeded(coords):
    """One dual per coordinate, slot i carrying d/dx_i = 1 (up to six)."""
    return [KScalar(float(c), e) for c, e in zip(coords, _UNIT)]


# -- elementary functions (float | KScalar) -------------------------------
#
# Each unary function has one float rule v -> (value, derivative).  A dual
# argument applies it in one chain step; :mod:`.codegen` writes the same
# derivative as graph nodes, so both paths do the same arithmetic.

# The float function of each unary by name, and sinhc's and expm1c's
# derivatives: what compiled code calls.
FLOAT_FNS = {}


def _unary(name, float_fn, rule):
    FLOAT_FNS[name] = float_fn

    def fn(x):
        if isinstance(x, KScalar):
            val, dval = rule(x.val)
            return _chain(x, val, dval)
        return float_fn(x)

    fn.__name__ = name
    return fn


def _exp_rule(v):
    e = math.exp(v)
    return e, e


def _sqrt_rule(v):
    r = math.sqrt(v)
    return r, 0.5 / r


exp = _unary("exp", math.exp, _exp_rule)
log = _unary("log", math.log, lambda v: (math.log(v), 1.0 / v))
sqrt = _unary("sqrt", math.sqrt, _sqrt_rule)
sin = _unary("sin", math.sin, lambda v: (math.sin(v), math.cos(v)))
cos = _unary("cos", math.cos, lambda v: (math.cos(v), -math.sin(v)))
sinh = _unary("sinh", math.sinh, lambda v: (math.sinh(v), math.cosh(v)))
cosh = _unary("cosh", math.cosh, lambda v: (math.cosh(v), math.sinh(v)))


def _sinhc_f(v):
    """sinh(v)/v with its removable singularity at v = 0 handled."""
    if abs(v) < _SINHC_TAYLOR:
        v2 = v * v
        return 1.0 + v2 * (1.0 / 6.0) + v2 * v2 * (1.0 / 120.0)
    return math.sinh(v) / v


def _horner(x, coeffs):
    """sum_k coeffs[k] x**k."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# sinhc'(v) = v sum_{k>=1} 2k/(2k+1)! v**(2k-2) and
# expm1c'(v) = sum_{k>=1} k/(k+1)! v**(k-1), cut where the next term is below
# 1e-17 of the sum for |v| < _DERIV_SERIES.
_SINHC_D = tuple(2 * k / math.factorial(2 * k + 1) for k in range(1, 9))
_EXPM1C_D = tuple(k / math.factorial(k + 1) for k in range(1, 17))


def dsinhc(v, s):
    """sinhc'(v), given s = sinhc(v)."""
    if abs(v) < _DERIV_SERIES:
        return v * _horner(v * v, _SINHC_D)
    return (math.cosh(v) - s) / v


def _expm1c_f(v):
    """(exp(v) - 1)/v with its removable singularity at v = 0 handled."""
    if abs(v) < _EXPM1C_TAYLOR:
        return 1.0 + v * (0.5 + v * (1.0 / 6.0 + v * (1.0 / 24.0 + v / 120.0)))
    return math.expm1(v) / v


def dexpm1c(v, e):
    """expm1c'(v), given e = expm1c(v)."""
    if abs(v) < _DERIV_SERIES:
        return _horner(v, _EXPM1C_D)
    return (math.exp(v) - e) / v


sinhc = _unary("sinhc", _sinhc_f, lambda v: ((s := _sinhc_f(v)), dsinhc(v, s)))
expm1c = _unary("expm1c", _expm1c_f, lambda v: ((e := _expm1c_f(v)), dexpm1c(v, e)))
FLOAT_FNS.update(dsinhc=dsinhc, dexpm1c=dexpm1c)


def log1pc(u):
    """log(1 + u)/u with its removable singularity at u = 0 handled."""
    v = u.val if isinstance(u, KScalar) else u
    if abs(v) < _EXPM1C_TAYLOR:
        return 1.0 + u * (-0.5 + u * (1.0 / 3.0 + u * (-0.25 + u / 5.0)))
    if isinstance(u, KScalar):
        return log(1.0 + u) / u
    return math.log1p(v) / v


# Float S_kappa and C_kappa together: the same arithmetic as the composite
# of the elementary functions on u = kappa x**2 (the Taylor branch or
# circular/hyperbolic functions), computing u and sqrt(u) once.  The
# plain float functions and every rule below take S and C from here, except
# that the float ``skappa`` and the chart guards take S alone from
# ``_kappa_s``, the same statements less the cosine; the compiled code of
# :mod:`.codegen` writes these statements out.

def _kappa_pair(kappa, x):
    """(S_kappa(x), C_kappa(x)) for a float kappa and x."""
    u = kappa * x * x
    if abs(u) < _KTRIG_TAYLOR:
        return (x * (1.0 + u * (-1.0 / 6.0 + u * (1.0 / 120.0 - u / 5040.0))),
                1.0 + u * (-0.5 + u * (1.0 / 24.0 - u / 720.0)))
    if u > 0.0:
        s = math.sqrt(u)
        return x * (math.sin(s) / s), math.cos(s)
    s = math.sqrt(-u)
    return x * (math.sinh(s) / s), math.cosh(s)


def _kappa_s(kappa, x):
    """S_kappa(x) alone, ``_kappa_pair(kappa, x)[0]`` without the cosine;
    it raises where the pair raises (its S is computed first)."""
    u = kappa * x * x
    if abs(u) < _KTRIG_TAYLOR:
        return x * (1.0 + u * (-1.0 / 6.0 + u * (1.0 / 120.0 - u / 5040.0)))
    if u > 0.0:
        s = math.sqrt(u)
        return x * (math.sin(s) / s)
    s = math.sqrt(-u)
    return x * (math.sinh(s) / s)


# A trig factor below this is indistinguishable from an exact pole in
# doubles (cos(pi/2) evaluates to ~6e-17); treat it as chart breakdown.
_POLE_EPS = 1e-14


def _tkappa_rule(kappa, x, s, c):
    if abs(c) < _POLE_EPS:
        raise PoleError(f"tkappa pole: C_kappa vanishes at kappa={kappa}, x={x}")
    return s / c, 1.0 / (c * c)


def _cotkappa_rule(kappa, x, s, c):
    if abs(s) < _POLE_EPS:
        raise PoleError(f"cotkappa pole: S_kappa vanishes at kappa={kappa}, x={x}")
    return c / s, -1.0 / (s * s)


# Rules (kappa, x, S, C) -> (value, d/dx), by name:
#   S' = C,  C' = -kappa S,  T' = 1/C**2,  cot' = -1/S**2.
KAPPA_RULES = {}


def _kappa_fn(name, rule, float_fn=None):
    """Register ``rule`` and return the function of a float label and x: a
    dual x applies the rule to ``_kappa_pair`` in one chain step; a float x
    calls ``float_fn``, by default the rule's value on ``_kappa_pair``."""
    KAPPA_RULES[name] = rule
    if float_fn is None:
        def float_fn(kappa, x):
            return rule(kappa, x, *_kappa_pair(kappa, x))[0]

    def fn(kappa, x):
        if isinstance(x, KScalar):
            v = x.val
            return _chain(x, *rule(kappa, v, *_kappa_pair(kappa, v)))
        return float_fn(kappa, x)

    fn.__name__ = name
    return fn


ckappa = _kappa_fn("ckappa", lambda kappa, x, s, c: (c, -kappa * s))
ckappa.__doc__ = """Generalized cosine C_kappa(x); total in both arguments."""
skappa = _kappa_fn("skappa", lambda kappa, x, s, c: (s, c), _kappa_s)
skappa.__doc__ = """Generalized sine S_kappa(x); S_0(x) = x."""
tkappa = _kappa_fn("tkappa", _tkappa_rule)
tkappa.__doc__ = """Generalized tangent S_kappa/C_kappa; raises PoleError at C = 0."""
cotkappa = _kappa_fn("cotkappa", _cotkappa_rule)
cotkappa.__doc__ = """Generalized cotangent C_kappa/S_kappa; raises PoleError at S = 0.

This is the factor written as lambda/tan(lambda x) in curved-Kepler
potentials; it stays real for every real curvature label.
"""


# -- inverse maps (plain floats only; used by chart transforms) ------------

def asink(kappa, s):
    """Inverse of skappa in x: returns x with S_kappa(x) = s, x >= 0 branch."""
    u = kappa * s * s
    if abs(u) < _KTRIG_TAYLOR:
        return s * (1.0 + u / 6.0 + 3.0 * u * u / 40.0)
    if kappa > 0.0:
        arg = math.sqrt(kappa) * s
        if abs(arg) > 1.0:
            raise DomainError(f"asink: |sqrt(kappa) s| = {arg} > 1")
        return math.asin(arg) / math.sqrt(kappa)
    return math.asinh(math.sqrt(-kappa) * s) / math.sqrt(-kappa)


def atank(kappa, t):
    """Inverse of tkappa in x: returns x with T_kappa(x) = t."""
    u = kappa * t * t
    if abs(u) < _KTRIG_TAYLOR:
        return t * (1.0 - u / 3.0 + u * u / 5.0)
    if kappa > 0.0:
        return math.atan(math.sqrt(kappa) * t) / math.sqrt(kappa)
    arg = math.sqrt(-kappa) * t
    if abs(arg) >= 1.0:
        raise DomainError(f"atank: |sqrt(-kappa) t| = {arg} >= 1")
    return math.atanh(arg) / math.sqrt(-kappa)
