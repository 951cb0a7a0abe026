"""Kernel tests: curvature-labeled trig, dual arithmetic, gradient oracles."""

import math
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from curvkepler import kernel
from curvkepler.kernel import (KScalar, PoleError, asink, atank,
                               ckappa, cotkappa, skappa, tkappa)
from curvkepler.phase import (P1, P2, Q1, Q2, Q3, Observable, cos, exp,
                              fd_grad, grad, sin, sinhc, sqrt)
from curvkepler.phase import skappa as skappa_lifted


# -- independent series oracles (evaluated nowhere near the library code) --

def cosh_series(x, terms=30):
    return sum(x ** (2 * n) / math.factorial(2 * n) for n in range(terms))


def sinh_series(x, terms=30):
    return sum(x ** (2 * n + 1) / math.factorial(2 * n + 1) for n in range(terms))


def test_ckappa_flat_and_circular():
    assert ckappa(0.0, 5.3) == 1.0
    npt.assert_allclose(ckappa(1.0, math.pi), -1.0, rtol=1e-15)


def test_ckappa_hyperbolic_series_oracle():
    npt.assert_allclose(ckappa(-1.0, 1.0), cosh_series(1.0), rtol=1e-14)
    npt.assert_allclose(ckappa(-1.0, 1.0), 1.5430806348152437, rtol=1e-12)


def test_skappa_flat_circular_taylor():
    assert skappa(0.0, 2.7) == 2.7
    npt.assert_allclose(skappa(1.0, math.pi / 2), 1.0, rtol=1e-15)
    assert abs(skappa(1e-12, 1.0) - skappa(0.0, 1.0)) < 1e-12


def test_tkappa():
    for x in (0.3, -1.1, 2.0):
        assert tkappa(0.0, x) == pytest.approx(x, rel=1e-15)
    npt.assert_allclose(tkappa(1.0, math.pi / 4), 1.0, rtol=1e-14)
    oracle = sinh_series(2.0) / cosh_series(2.0)
    npt.assert_allclose(tkappa(-1.0, 2.0), oracle, rtol=1e-14)
    npt.assert_allclose(tkappa(-1.0, 2.0), 0.9640275800758169, rtol=1e-12)


def test_tkappa_pole_signals_chart_breakdown():
    with pytest.raises(PoleError):
        tkappa(1.0, math.pi / 2)
    with pytest.raises(PoleError):
        cotkappa(1.0, math.pi)


def test_kappa_identity_fixed_grid():
    rng = np.random.default_rng(42)
    for kappa in (-1.0, -0.5, 0.0, 0.5, 1.0):
        for x in rng.uniform(-3.0, 3.0, 100):
            c = ckappa(kappa, x)
            s = skappa(kappa, x)
            assert abs(c * c + kappa * s * s - 1.0) < 1e-12


@given(st.floats(-2.0, 2.0), st.floats(-3.0, 3.0))
@settings(max_examples=300)
def test_kappa_identity_property(kappa, x):
    """C_k^2 + k S_k^2 = 1 for every real label and argument."""
    c = ckappa(kappa, x)
    s = skappa(kappa, x)
    assert abs(c * c + kappa * s * s - 1.0) < 1e-12


@given(st.floats(-1e-6, 1e-6), st.floats(-3.0, 3.0))
@settings(max_examples=200)
def test_kappa_continuity_at_zero(kappa, x):
    assert abs(ckappa(kappa, x) - 1.0) < 1e-5
    assert abs(skappa(kappa, x) - x) < 1e-5


def test_inverse_maps_round_trip():
    rng = np.random.default_rng(7)
    for kappa in (-1.0, -0.3, 0.0, 0.4, 1.0):
        for _ in range(25):
            x = rng.uniform(0.05, 1.2)
            npt.assert_allclose(asink(kappa, skappa(kappa, x)), x, rtol=1e-12)
            npt.assert_allclose(atank(kappa, tkappa(kappa, x)), x, rtol=1e-12)


# -- dual-number gradients against the finite-difference oracle ------------

def test_grad_trivial_square():
    g = grad(Q1 * Q1, (1.5, 0.2, 0.3, 0.4, 0.5, 0.6))
    npt.assert_allclose(g, [3.0, 0, 0, 0, 0, 0], atol=1e-15)


def test_grad_trivial_product():
    g = grad(P1 * Q1, (2.0, 0, 0, 3.0, 0, 0))
    npt.assert_allclose(g, [3.0, 0, 0, 2.0, 0, 0], atol=1e-15)


def test_fd_grad_trivials():
    g = fd_grad(Q1 * Q1, (1.0, 0, 0, 0, 0, 0), h=1e-5)
    assert abs(g[0] - 2.0) < 1e-9
    g = fd_grad(sin(Q2), (0, 0, 0, 0, 0, 0), h=1e-5)
    assert abs(g[1] - 1.0) < 1e-9
    with pytest.raises(ValueError):
        fd_grad(Q1, (0,) * 6, h=0.0)


@pytest.mark.parametrize("h", [math.nan, math.inf])
def test_fd_grad_rejects_a_step_that_is_not_positive_and_finite(h):
    with pytest.raises(ValueError):
        fd_grad(Q1, (0.5,) * 6, h=h)


def test_fd_grad_propagates_domain_errors():
    """A stencil point falling on a pole surfaces as the kernel error."""
    ob = Observable(lambda *s: kernel.cotkappa(1.0, s[0]))
    near_pole = (math.pi - 1e-6, 0, 0, 0, 0, 0)   # upper stencil hits pi
    with pytest.raises(PoleError):
        fd_grad(ob, near_pole, h=1e-6)
    with pytest.raises(PoleError):
        grad(ob, (math.pi, 0, 0, 0, 0, 0))


def test_grad_one_site_jplus_matches_fd():
    """Realization J+ at z = 0.1: dual gradient against central differences."""
    z = 0.1
    jp = sinhc(z * Q1 * Q1) * P1 * P1
    s = (1.0, 0.3, -0.4, 1.0, 0.7, -0.2)
    npt.assert_allclose(grad(jp, s), fd_grad(jp, s, h=1e-6), rtol=1e-6)


def _random_observables(rng):
    """A spread of expression shapes touching every kernel function."""
    a, b, c = rng.uniform(0.3, 1.5, 3)
    kappa = rng.uniform(-1.0, 1.0)
    return [
        a * Q1 * Q1 + b * P2 * P2 + c * Q3 * P1,
        exp(a * Q1 * Q2) * P1,
        sin(a * Q2 + b * P2) + cos(c * Q3),
        sqrt(1.0 + Q1 * Q1 + Q2 * Q2) * P2,
        sinhc(a * Q1 * Q1) * P1 * P1,
        Observable(lambda *s: kernel.skappa(kappa, s[0]) * s[4]),
        Observable(lambda *s: kernel.ckappa(kappa, s[1]) / (1.0 + s[3] ** 2)),
        Observable(lambda *s: kernel.expm1c(a * s[0] * s[0]) * s[5]),
        (Q1 * P2 - Q2 * P1) ** 2,
        1.0 / (2.0 + Q3 * Q3) + b * P2 / (1.0 + P1 * P1),
    ]


def test_grad_fd_cross_oracle_100_cases():
    """grad and fd_grad agree to 1e-6 relative on 100 random observables/points."""
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(10):
        for ob in _random_observables(rng):
            s = rng.uniform(-1.5, 1.5, 6)
            s[:3] = np.sign(s[:3]) * np.maximum(np.abs(s[:3]), 0.1)
            g = grad(ob, tuple(s))
            gf = fd_grad(ob, tuple(s), h=1e-6)
            scale = max(1.0, np.max(np.abs(g)))
            assert np.max(np.abs(g - gf)) / scale < 1e-6
            checked += 1
    assert checked == 100


def test_grad_fd_agree_on_exported_observables():
    """Both gradient routes agree to 1e-6 on the observables the library
    exports: generators, Casimir images, so(4) generators, Runge-Lenz
    components and the family Hamiltonians."""
    from curvkepler.coalgebra import casimirs, three_site_closed_form
    from curvkepler.spaces import Chart, Family, HamiltonianSpec, SpaceParams, hamiltonian
    from curvkepler.symmetry import constants, sample_polar, so4_generators

    rng = np.random.default_rng(99)
    z = 0.3
    r3 = three_site_closed_form(z)
    cs = casimirs(z)
    beltrami_obs = [r3.jminus, r3.jplus, r3.jthree, cs.c12, cs.c23, cs.c123,
                    hamiltonian(HamiltonianSpec(
                        Family.KEPLER_CC, SpaceParams(z, 1.0, 0.4)),
                        Chart.BELTRAMI)]
    params = SpaceParams.preset("spherical", gamma=0.4)
    gens = so4_generators(params)
    kep = HamiltonianSpec(Family.KEPLER_CC, params)
    consts = constants(kep, Chart.POLAR_CONSTANT)
    polar_obs = list(gens.named().values()) + list(consts.values()) + [
        hamiltonian(kep, Chart.POLAR_CONSTANT)]

    def check(ob, state):
        g = grad(ob, state)
        gf = fd_grad(ob, state, h=1e-6)
        assert np.max(np.abs(g - gf)) < 1e-6 * max(1.0, np.max(np.abs(g)))

    for _ in range(50):
        coords = rng.uniform(-1.5, 1.5, 6)
        coords[:3] = np.sign(coords[:3]) * np.maximum(np.abs(coords[:3]), 0.15)
        for ob in beltrami_obs:
            check(ob, tuple(coords))
        sp = sample_polar(params, rng)
        for ob in polar_obs:
            check(ob, sp)


def test_kernel_functions_are_pure():
    """Repeated evaluation is bit-identical."""
    s = (0.7, -1.1, 0.4, 0.3, 0.5, -1.2)
    ob = exp(Q1 * P2) * sinhc(Q2 * Q2) + skappa_lifted(-0.7, Q3)
    first_val = ob(s)
    first_grad = grad(ob, s)
    for _ in range(5):
        assert ob(s) == first_val
        assert np.array_equal(grad(ob, s), first_grad)
    assert tkappa(0.3, 0.9) == tkappa(0.3, 0.9)


@given(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
@settings(max_examples=200)
def test_dual_chain_rule_property(x, y):
    """Product/chain rules on a composite match finite differences."""
    fn = lambda *s: kernel.exp(kernel.sin(s[0] * s[3]) * 0.5) + s[0] / (2.0 + s[3] * s[3])
    ob = Observable(fn)
    s = (x, 0.0, 0.0, y, 0.0, 0.0)
    g = grad(ob, s)
    gf = fd_grad(ob, s, h=1e-6)
    assert np.max(np.abs(g - gf)) < 1e-5 * max(1.0, np.max(np.abs(g)))


def test_kscalar_arithmetic_edge_ops():
    x = KScalar.seed(2.0, 0)
    y = KScalar.seed(3.0, 3)
    expr = (1.0 - x) * y / x + 2.0 / y - (x - 1.0) ** 2 + abs(-1.0 * x)
    val = (1.0 - 2.0) * 3.0 / 2.0 + 2.0 / 3.0 - 1.0 + 2.0
    assert expr.val == pytest.approx(val, rel=1e-15)
    assert x < y and y > x and x <= 2.0 and y >= 3.0
    # A quotient's value is the float quotient, for a dual and a float divisor.
    u = KScalar.seed(0.8, 0)
    assert (u / KScalar.seed(10.0, 1)).val == (u / 10.0).val == 0.8 / 10 != 0.8 * (1 / 10)


# -- closed-form dual rules of the kappa-trig functions ---------------------

_KAPPAS = (1.0, 0.3, 1e-12, 0.0, -1e-12, -0.3, -1.0)
_TRIG = {"skappa": skappa, "ckappa": ckappa, "tkappa": tkappa,
         "cotkappa": cotkappa}


# The composite reference: S and C built from the kernel's elementary
# functions on u = kappa x**2, on a float or a dual argument.

def _value(u):
    return u.val if isinstance(u, KScalar) else u


def _circ_cos(u):
    """cos(sqrt(u)) continued evenly to u < 0 (= cosh(sqrt(-u)))."""
    if abs(_value(u)) < kernel._KTRIG_TAYLOR:
        return 1.0 + u * (-0.5 + u * (1.0 / 24.0 - u / 720.0))
    if _value(u) > 0.0:
        return kernel.cos(kernel.sqrt(u))
    return kernel.cosh(kernel.sqrt(-u))


def _circ_sinc(u):
    """sin(sqrt(u))/sqrt(u) continued evenly to u < 0."""
    if abs(_value(u)) < kernel._KTRIG_TAYLOR:
        return 1.0 + u * (-1.0 / 6.0 + u * (1.0 / 120.0 - u / 5040.0))
    if _value(u) > 0.0:
        s = kernel.sqrt(u)
        return kernel.sin(s) / s
    s = kernel.sqrt(-u)
    return kernel.sinh(s) / s


def _composite_pair(kappa, x):
    """The composite S = x _circ_sinc(u) and C = _circ_cos(u), u = kappa x**2."""
    u = kappa * x * x
    return x * _circ_sinc(u), _circ_cos(u)


def _composite(name, kappa, x):
    """The kappa-trig function on the composite S and C."""
    s, c = _composite_pair(kappa, x)
    if name == "tkappa":
        return s / c
    if name == "cotkappa":
        return c / s
    return s if name == "skappa" else c


def _trig_points(kappa, name):
    """Regular points, a point in the Taylor branch |kappa x^2| < 1e-8, and
    a point 2e-3 from a pole where the pole is at moderate x."""
    taylor = min(0.5e-4 / math.sqrt(abs(kappa)), 5.0) if kappa else 3.0
    assert abs(kappa * taylor ** 2) < 1e-8
    points = [0.7, -1.3, taylor]
    if name == "cotkappa":                           # S_kappa(0) = 0
        points.append(2e-3)
    if name == "tkappa" and kappa > 0 and math.pi / (2.0 * math.sqrt(kappa)) < 10.0:
        # On a 2**-30 grid, so that x +- h is exact for the steps used below.
        pole = math.pi / (2.0 * math.sqrt(kappa))
        points.append(round((pole - 2e-3) * 2.0 ** 30) / 2.0 ** 30)
    return points


def _richardson_fd(fn, kappa, x):
    """Richardson-extrapolated fd_grad (error O(h**4)) and the scale on which
    fn varies near x: max(1, |x|), or the first-order distance to a pole of
    tkappa / cotkappa when that is less.  h is a power of two near 1e-3 of
    that scale."""
    scale = max(1.0, abs(x))
    if fn is tkappa and kappa:
        scale = min(scale, abs(ckappa(kappa, x) / (kappa * skappa(kappa, x))))
    if fn is cotkappa:
        scale = min(scale, abs(skappa(kappa, x) / ckappa(kappa, x)))
    h = 2.0 ** math.floor(math.log2(1e-3 * scale))
    call = lambda *s: fn(kappa, s[0])
    s = (x, 0.0, 0.0, 0.0, 0.0, 0.0)
    fd = (4.0 * fd_grad(call, s, h=0.5 * h)[0] - fd_grad(call, s, h=h)[0]) / 3.0
    return fd, scale


@pytest.mark.parametrize("kappa", _KAPPAS)
@pytest.mark.parametrize("name", sorted(_TRIG))
def test_kappa_trig_dual_rules_match_generic_path_and_fd(name, kappa):
    fn = _TRIG[name]
    for x in _trig_points(kappa, name):
        dual = fn(kappa, KScalar.seed(x, 0))
        # The composite of the elementary functions on the same dual x.
        generic = _composite(name, kappa, KScalar.seed(x, 0))
        d = dual.d[0]
        assert dual.d[1:] == (0.0,) * 5
        assert abs(d - generic.d[0]) <= 1e-12 * max(1.0, abs(d)), (x, d, generic.d[0])
        fd, scale = _richardson_fd(fn, kappa, x)
        # At a distance `scale` from a pole the float function is accurate
        # only to about eps |x| / scale relative, and differencing with
        # h = 1e-3 scale multiplies that by 1e3: the oracle's own floor.
        floor = max(1.0, abs(x) / scale)
        assert abs(d - fd) <= 1e-12 * floor * max(1.0, abs(d)), (x, d, fd)


@pytest.mark.parametrize("kappa", _KAPPAS)
@pytest.mark.parametrize("name", sorted(_TRIG))
def test_kappa_trig_dual_value_is_the_float_value(name, kappa):
    fn = _TRIG[name]
    for x in _trig_points(kappa, name):
        assert fn(kappa, KScalar.seed(x, 0)).val == fn(kappa, x)


@pytest.mark.parametrize("kappa", _KAPPAS)
@pytest.mark.parametrize("name", sorted(_TRIG))
def test_kappa_trig_dual_x_carries_every_tangent_slot(name, kappa):
    """A dual x with a tangent in all six slots: slot i is the derivative
    times tangent i bit for bit, and agrees with the composite on the same
    dual x."""
    fn = _TRIG[name]
    tangent = (1.0, -0.5, 3.0, 0.0, -2.0, 0.1)
    for x in _trig_points(kappa, name):
        dual = fn(kappa, KScalar(x, tangent))
        d = fn(kappa, KScalar.seed(x, 0)).d[0]
        assert dual.val == fn(kappa, x), x
        assert [v.hex() for v in dual.d] == [(d * t).hex() for t in tangent], x
        generic = _composite(name, kappa, KScalar(x, tangent))
        for v, g, t in zip(dual.d, generic.d, tangent):
            assert abs(v - g) <= 1e-12 * abs(t) * max(1.0, abs(d)), (x, t, v, g)


@pytest.mark.parametrize("kappa", _KAPPAS + (-0.0, 0, 4.0, -4.0), ids=repr)
def test_s_only_helper_is_the_pairs_s_bit_for_bit(kappa):
    """kernel._kappa_s, which the float skappa and the chart guards use, is
    _kappa_pair's S bit for bit on the Taylor, sin and sinh branches and at
    +-0.0, and raises what the pair raises (sin of inf, sinh overflow)."""
    branches = set()
    for x in (0.0, -0.0, 1e-5, -1e-5, 1e-9, 0.7, -1.3, 2.0, math.pi, 1e3, 1e155,
              math.inf, math.nan):
        try:
            want = kernel._kappa_pair(kappa, x)[0]
        except (ValueError, OverflowError) as exc:
            with pytest.raises(type(exc)):
                kernel._kappa_s(kappa, x)
            continue
        assert kernel._kappa_s(kappa, x).hex() == want.hex(), x
        u = kappa * x * x
        branches.add("taylor" if abs(u) < 1e-8 else "sin" if u > 0 else "sinh" if u < 0
                     else "nan")
    trig = {"taylor", "sin" if kappa > 0 else "sinh"} if kappa else {"taylor"}
    assert trig <= branches


@pytest.mark.parametrize("kappa", _KAPPAS)
def test_kappa_trig_float_fast_path_is_the_composite_arithmetic(kappa):
    """The float S/C/T/cot and the (S, C) pair the rules use equal, bit for
    bit, the composite evaluation through _circ_cos / _circ_sinc, Taylor
    branch included."""
    points = {x for name in _TRIG for x in _trig_points(kappa, name)} | {0.0}
    for x in sorted(points):
        s, c = _composite_pair(kappa, x)
        assert ckappa(kappa, x).hex() == c.hex(), x
        assert skappa(kappa, x).hex() == s.hex(), x
        assert [v.hex() for v in kernel._kappa_pair(kappa, x)] == [s.hex(), c.hex()], x
        if abs(c) >= 1e-14:
            assert tkappa(kappa, x).hex() == (s / c).hex(), x
        if abs(s) >= 1e-14:
            assert cotkappa(kappa, x).hex() == (c / s).hex(), x


@pytest.mark.parametrize("v", [0.0, 1e-7, -9e-6, 0.3, -2.5, 2.0])
def test_sinhc_and_expm1c_duals_apply_their_float_rules(v):
    """The float value and one chain step with the kernel.RULES derivative,
    Taylor branch included; the derivative against the series of
    d/dv sinh(v)/v and d/dv (e^v - 1)/v."""
    dsinhc = sum(2 * n * v ** (2 * n - 1) / math.factorial(2 * n + 1) for n in range(1, 30))
    dexpm1c = sum(n * v ** (n - 1) / math.factorial(n + 1) for n in range(1, 40))
    for fn, want in ((kernel.sinhc, dsinhc), (kernel.expm1c, dexpm1c)):
        out = fn(KScalar.seed(v, 2))
        assert out.val == fn(v)
        assert out.d == (0.0, 0.0, kernel.RULES[fn.__name__](v)[1], 0.0, 0.0, 0.0)
        assert abs(out.d[2] - want) <= 1e-14 * max(1.0, abs(want)), (fn, v)


def _exact_series(v, coeff, powers, terms):
    """sum_k coeff(k) v**powers(k), summed in exact rational arithmetic."""
    x = Fraction(v)
    return sum(coeff(k) * x ** powers(k) for k in range(1, terms))


_SERIES_POINTS = sorted({*np.logspace(-6, math.log10(3.0), 60).tolist(),
                         0.99e-5, 1.0e-5, 1.01e-5, 1.2e-5, 0.1, 0.4999999,
                         math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0),
                         0.5000001, 0.7, 3.0})


def test_sinhc_and_expm1c_derivatives_are_accurate_across_the_series_switch():
    """Relative error <= 1e-14 against the derivative series summed exactly,
    on 1e-6 <= |v| <= 3, both sides of the Taylor switch of the values
    (1e-5) and of the derivative series (0.5) included."""
    for v in (s * p for p in _SERIES_POINTS for s in (1.0, -1.0)):
        dsinhc = _exact_series(v, lambda k: Fraction(2 * k, math.factorial(2 * k + 1)),
                               lambda k: 2 * k - 1, 40)
        dexpm1c = _exact_series(v, lambda k: Fraction(k, math.factorial(k + 1)),
                                lambda k: k - 1, 60)
        for name, want in (("sinhc", dsinhc), ("expm1c", dexpm1c)):
            got = Fraction(kernel.RULES[name](v)[1])
            assert abs(float((got - want) / want)) <= 1e-14, (name, v)


def test_kappa_trig_dual_input_at_pole_raises():
    """A dual x at a pole raises PoleError."""
    with pytest.raises(PoleError):
        tkappa(1.0, KScalar.seed(math.pi / 2, 0))
    with pytest.raises(PoleError):
        tkappa(0.3, KScalar.seed(math.pi / (2.0 * math.sqrt(0.3)), 2))
    for kappa in _KAPPAS:
        with pytest.raises(PoleError):
            cotkappa(kappa, KScalar.seed(0.0, 1))


def test_observable_square_evaluates_once():
    calls = []

    def fn(*s):
        calls.append(s)
        return s[0] * s[4]

    x = Observable(fn)
    sq = x * x
    s = (1.5, 0.0, 0.0, 0.0, -2.0, 0.0)
    assert sq(s) == 9.0
    assert len(calls) == 1
    npt.assert_array_equal(grad(sq, s), [12.0, 0.0, 0.0, 0.0, -9.0, 0.0])
    assert len(calls) == 2
