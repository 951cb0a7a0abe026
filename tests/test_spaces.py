"""Spaces tests: params, Hamiltonians, chart transforms, metrics, curvature."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from curvkepler import kernel, spaces
from curvkepler.dynamics import IntegratorConfig, StepUnderflowError, Trajectory, integrate
from curvkepler.kernel import DomainError, expm1c
from curvkepler.phase import (Chart, ChartMismatchError, ChartSingularityError,
                              PhaseState, grad)
from curvkepler.spaces import (PRESETS, Family, HamiltonianSpec, SpaceParams,
                               chart_guard, curvature, from_polar, hamiltonian,
                               metric, radial_reduction, to_polar)
from test_christoffel import SIGNED, SIGNED_IDS, jittered_grid

ALL_FAMILIES = [
    (Family.FREE_NC, Chart.POLAR_VARIABLE),
    (Family.KEPLER_NC, Chart.POLAR_VARIABLE),
    (Family.FREE_CC, Chart.POLAR_CONSTANT),
    (Family.KEPLER_CC, Chart.POLAR_CONSTANT),
]

OMEGA = np.block([[np.zeros((3, 3)), np.eye(3)],
                  [-np.eye(3), np.zeros((3, 3))]])


def interior_states(n, seed, lo=0.15, hi=0.95, pscale=1.3):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        q = rng.uniform(lo, hi, 3)
        p = rng.uniform(-pscale, pscale, 3)
        out.append(PhaseState(Chart.BELTRAMI, tuple(q) + tuple(p)))
    return out


def test_space_params():
    params = SpaceParams(z=0.3, kappa2=-1.0, gamma=0.5)
    assert params.k == pytest.approx(2.0 * math.sqrt(2.0) * 0.5, rel=1e-15)
    assert params.kappa1 == 0.3
    with pytest.raises(DomainError):
        SpaceParams(z=0.1, kappa2=0.0)
    with pytest.raises(DomainError):
        SpaceParams.preset("torus")
    for bad in ({"z": math.nan}, {"kappa2": math.inf}, {"gamma": -math.inf},
                {"gamma": math.nan}):
        with pytest.raises(DomainError):
            SpaceParams(**{"z": 0.1, "kappa2": 1.0, **bad})


def test_presets_table():
    assert PRESETS == {
        "spherical": (1.0, 1.0), "euclidean": (0.0, 1.0),
        "hyperbolic": (-1.0, 1.0), "antidesitter": (1.0, -1.0),
        "minkowski": (0.0, -1.0), "desitter": (-1.0, -1.0),
    }
    assert SpaceParams.preset("desitter").z == -1.0


def test_kepler_cc_circular_point_value():
    """Euclidean limit, r=1, p_phi=1, k=1: kinetic 1/2 balances -k/r."""
    gamma = 1.0 / (2.0 * math.sqrt(2.0))      # k = 1
    spec = HamiltonianSpec(Family.KEPLER_CC, SpaceParams(0.0, 1.0, gamma))
    h = hamiltonian(spec, Chart.POLAR_CONSTANT)
    s = PhaseState.polar_constant(1.0, math.pi / 2, 0.0, 0.0, 0.0, 1.0)
    assert h(s) == pytest.approx(-0.5, rel=1e-14)


def test_free_flat_limits():
    """At z = 0 the polar free Hamiltonian is the classical p^2/2."""
    params = SpaceParams(0.0, 1.0)
    h = hamiltonian(HamiltonianSpec(Family.FREE_CC, params), Chart.POLAR_CONSTANT)
    s = PhaseState.polar_constant(1.3, 1.1, 0.4, 0.2, -0.5, 0.8)
    r, th = 1.3, 1.1
    want = 0.5 * (0.2 ** 2 + (0.5 ** 2 + 0.8 ** 2 / math.sin(th) ** 2) / r ** 2)
    assert h(s) == pytest.approx(want, rel=1e-14)
    # Beltrami side carries the exact pullback (quarter of the J+ limit).
    hb = hamiltonian(HamiltonianSpec(Family.FREE_CC, params), Chart.BELTRAMI)
    sb = PhaseState.beltrami(0.4, 0.7, 0.3, 0.6, -0.2, 0.9)
    assert hb(sb) == pytest.approx(0.25 * (0.36 + 0.04 + 0.81), rel=1e-14)


def test_custom_family_contraction():
    """Hcal = J+ f(zJ-)/2 + U: flat limit is the classical Kepler energy."""
    gamma = 0.7
    params = SpaceParams(1e-10, 1.0, gamma)
    spec = HamiltonianSpec(
        Family.CUSTOM, params,
        f=lambda u: math.exp(u),
        potential=lambda z, jm: -gamma / math.sqrt(jm * expm1c(2.0 * z * jm)))
    h = hamiltonian(spec, Chart.BELTRAMI)
    for s in interior_states(50, seed=5):
        q = np.array(s.positions)
        p = np.array(s.momenta)
        classical = 0.5 * (p @ p) - gamma / math.sqrt(q @ q)
        assert abs(0.5 * h(s) - classical) < 1e-8


def test_custom_family_validation():
    params = SpaceParams(0.1, 1.0, 0.4)
    good_f, good_potential = (lambda u: 1.0), (lambda z, jm: -0.4 / math.sqrt(jm))
    for f, potential in ((lambda u: 2.0, good_potential), (good_f, lambda z, jm: 0.0),
                         (lambda u: math.nan, good_potential),
                         (good_f, lambda z, jm: math.nan)):
        with pytest.raises(DomainError):
            HamiltonianSpec(Family.CUSTOM, params, f=f, potential=potential)
    with pytest.raises(DomainError):
        HamiltonianSpec(Family.CUSTOM, params, f=None, potential=None)


def test_hamiltonian_chart_compatibility():
    spec = HamiltonianSpec(Family.FREE_NC, SpaceParams(0.2, 1.0))
    with pytest.raises(ChartMismatchError):
        hamiltonian(spec, Chart.POLAR_CONSTANT)
    spec_cc = HamiltonianSpec(Family.FREE_CC, SpaceParams(0.2, 1.0))
    with pytest.raises(ChartMismatchError):
        hamiltonian(spec_cc, Chart.POLAR_VARIABLE)


# -- chart transforms -------------------------------------------------------

def test_to_polar_near_origin_maps_to_pole():
    params = SpaceParams(0.3, 1.0)
    eps = 1e-5
    s = PhaseState.beltrami(eps, eps, eps, 0.1, 0.1, 0.1)
    sp = to_polar(s, params, Chart.POLAR_VARIABLE)
    assert sp.positions[0] == pytest.approx(math.sqrt(2.0) * math.sqrt(3.0) * eps,
                                            rel=1e-4)


def test_to_polar_flat_limit_patterns():
    """z = 0: rho = sqrt(2)|q| and the angle patterns of the chart equations."""
    params = SpaceParams(0.0, 1.0)
    s = PhaseState.beltrami(0.3, 0.5, 0.7, 0.1, -0.2, 0.4)
    sp = to_polar(s, params, Chart.POLAR_VARIABLE)
    q = np.array(s.positions)
    rho, th, ph = sp.positions
    assert rho == pytest.approx(math.sqrt(2.0) * np.linalg.norm(q), rel=1e-13)
    # sin^2(phi) (q1^2 + q2^2) = q1^2 and cos^2(theta) = q3^2/q^2
    assert math.sin(ph) ** 2 * (q[0] ** 2 + q[1] ** 2) == pytest.approx(
        q[0] ** 2, rel=1e-12)
    assert math.cos(th) ** 2 == pytest.approx(q[2] ** 2 / (q @ q), rel=1e-12)


def test_to_polar_continuous_in_z_at_zero():
    params_eps = SpaceParams(1e-10, 1.0)
    params_zero = SpaceParams(0.0, 1.0)
    s = PhaseState.beltrami(0.4, 0.6, 0.8, 0.3, -0.1, 0.2)
    a = to_polar(s, params_eps, Chart.POLAR_VARIABLE).asarray()
    b = to_polar(s, params_zero, Chart.POLAR_VARIABLE).asarray()
    npt.assert_allclose(a, b, rtol=1e-6)


@pytest.mark.parametrize("z", [0.4, -0.3, 0.0])
@pytest.mark.parametrize("target", [Chart.POLAR_VARIABLE, Chart.POLAR_CONSTANT])
def test_round_trip(z, target):
    params = SpaceParams(z, 1.0)
    for s in interior_states(100, seed=17):
        sp = to_polar(s, params, target)
        back = from_polar(sp, params)
        npt.assert_allclose(back.asarray(), s.asarray(), rtol=0, atol=1e-10)


def test_round_trip_general_kappa2():
    params = SpaceParams(0.25, 0.5)
    for s in interior_states(30, seed=19):
        sp = to_polar(s, params, Chart.POLAR_CONSTANT)
        back = from_polar(sp, params)
        npt.assert_allclose(back.asarray(), s.asarray(), rtol=0, atol=1e-10)


@given(z=st.floats(-0.6, 0.6), kappa2=st.floats(0.2, 2.0),
       q=st.tuples(*[st.floats(0.15, 0.9)] * 3),
       p=st.tuples(*[st.floats(-1.2, 1.2)] * 3))
@settings(max_examples=150, deadline=None)
def test_round_trip_property(z, kappa2, q, p):
    """to_polar / from_polar invert each other across labels and points."""
    params = SpaceParams(z, kappa2)
    s = PhaseState(Chart.BELTRAMI, q + p)
    for target in (Chart.POLAR_VARIABLE, Chart.POLAR_CONSTANT):
        back = from_polar(to_polar(s, params, target), params)
        assert np.max(np.abs(back.asarray() - s.asarray())) < 1e-9


def test_chart_domain_guards():
    params = SpaceParams(0.3, 1.0)
    with pytest.raises(DomainError):
        to_polar(PhaseState.beltrami(-0.5, 0.5, 0.5, 0, 0, 0), params,
                 Chart.POLAR_VARIABLE)
    with pytest.raises(ChartSingularityError):
        to_polar(PhaseState.beltrami(1e-9, 1e-9, 1e-9, 0, 0, 0), params,
                 Chart.POLAR_VARIABLE)
    with pytest.raises(ChartSingularityError):
        to_polar(PhaseState.beltrami(1e-9, 1e-9, 0.9, 0, 0, 0), params,
                 Chart.POLAR_VARIABLE)
    with pytest.raises(DomainError):
        to_polar(PhaseState.beltrami(0.5, 0.5, 0.5, 0, 0, 0),
                 SpaceParams(0.3, -1.0), Chart.POLAR_CONSTANT)
    with pytest.raises(ChartMismatchError):
        to_polar(PhaseState.polar_constant(1, 1, 1, 0, 0, 0), params,
                 Chart.POLAR_CONSTANT)
    with pytest.raises(ChartSingularityError):
        from_polar(PhaseState.polar_constant(1.0, 1e-12, 0.4, 0, 0, 0), params)


@pytest.mark.parametrize("slot, value", [(0, math.nan), (4, math.nan), (1, math.inf),
                                         (5, -math.inf)],
                         ids=["nan-position", "nan-momentum", "inf-position", "-inf-momentum"])
@pytest.mark.parametrize("transform", ["to_polar", "from_polar"])
def test_a_transform_names_a_non_finite_coordinate(transform, slot, value):
    """A NaN position used to come back as an all-NaN state, a NaN momentum
    as NaN momenta, and an infinite position warned from kernel._expm1c_f;
    both transforms now raise DomainError naming the coordinate, as
    integrate does for a start state, and warn nothing."""
    params = SpaceParams.preset("spherical")
    coords = [0.5, 0.4, 0.3, 0.2, -0.1, 0.3]
    coords[slot] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^state coordinate {slot + 1} of 6 is not finite"):
            if transform == "to_polar":
                to_polar(PhaseState.beltrami(*coords), params, Chart.POLAR_CONSTANT)
            else:
                from_polar(PhaseState.polar_constant(*coords), params)


def test_transformed_and_sampled_states_hold_python_floats():
    """Like the PhaseState constructors, both transforms and a trajectory's
    state(i) give Python floats, not numpy scalars."""
    params = SpaceParams(0.3, 1.0)
    sp = to_polar(PhaseState.beltrami(0.5, 0.4, 0.3, 0.2, -0.1, 0.3), params,
                  Chart.POLAR_CONSTANT)
    back = from_polar(sp, params)
    tr = Trajectory(Chart.POLAR_CONSTANT, np.array([0.0, 1.0]), np.array([sp.coords] * 2))
    for state in (sp, back, tr.state(1)):
        assert [type(c) for c in state.coords] == [float] * 6, state


@pytest.mark.parametrize("preset, state, error, message", [
    ("spherical", PhaseState.polar_constant(1e-12, 1.0, 0.4, 0, 0, 0),
     ChartSingularityError, "radial pole"),
    ("spherical", PhaseState.polar_constant(2.0, 1.0, 0.4, 0, 0, 0),
     DomainError, "beyond the hemisphere"),
    ("hyperbolic", PhaseState.polar_variable(2.0, 1.0, 0.4, 0, 0, 0),
     DomainError, "beyond the chart edge"),
], ids=["radial pole", "beyond the hemisphere", "beyond the chart edge"])
def test_from_polar_refuses_states_the_beltrami_chart_does_not_cover(
        preset, state, error, message):
    with pytest.raises(error, match=message):
        from_polar(state, SpaceParams.preset(preset))


def numeric_transform_jacobian(s, params, target, h=1e-4):
    """6x6 Jacobian of the full transform: Richardson-extrapolated central
    differences (truncation O(h^4)); an oracle independent of the duals."""
    def central(step):
        base = s.asarray()
        cols = []
        for i in range(6):
            up, dn = base.copy(), base.copy()
            up[i] += step
            dn[i] -= step
            pu = to_polar(PhaseState(Chart.BELTRAMI, tuple(up)), params, target)
            pd = to_polar(PhaseState(Chart.BELTRAMI, tuple(dn)), params, target)
            cols.append((pu.asarray() - pd.asarray()) / (2.0 * step))
        return np.array(cols).T

    return (4.0 * central(0.5 * h) - central(h)) / 3.0


@pytest.mark.parametrize("z,kappa2", [(0.4, 1.0), (-0.3, 1.0), (0.0, 1.0),
                                       (0.25, 0.5)])
def test_transform_canonicity(z, kappa2):
    """Pullback preserves all coordinate-pair brackets: M Omega M^T = Omega."""
    params = SpaceParams(z, kappa2)
    target = Chart.POLAR_CONSTANT
    for s in interior_states(50, seed=23, lo=0.25, hi=0.85):
        m = numeric_transform_jacobian(s, params, target)
        residual = m @ OMEGA @ m.T - OMEGA
        assert np.max(np.abs(residual)) < 1e-9


@pytest.mark.parametrize("family,polar", ALL_FAMILIES)
@pytest.mark.parametrize("z", [0.4, -0.3, 0.0])
def test_hamiltonian_chart_consistency(family, polar, z):
    """Beltrami and polar closed forms are the same observable (1e-10)."""
    params = SpaceParams(z, 1.0, gamma=0.4)
    spec = HamiltonianSpec(family, params)
    hb = hamiltonian(spec, Chart.BELTRAMI)
    hp = hamiltonian(spec, polar)
    for s in interior_states(50, seed=29):
        sp = to_polar(s, params, polar)
        a, b = hb(s), hp(sp)
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a), abs(b))


def test_bridge_scale_relations():
    """Honest pushforward factors: polar kinetic = (coalgebra J+ form)/4,
    polar Kepler potential = twice the potential U of the deformed family."""
    from curvkepler.coalgebra import three_site_closed_form
    params = SpaceParams(0.35, 1.0, gamma=0.6)
    z = params.z
    r3 = three_site_closed_form(z)
    free_b = hamiltonian(HamiltonianSpec(Family.FREE_CC, params), Chart.BELTRAMI)
    kep_b = hamiltonian(HamiltonianSpec(Family.KEPLER_CC, params), Chart.BELTRAMI)
    for s in interior_states(25, seed=31):
        jm, jp = r3.jminus(s), r3.jplus(s)
        npt.assert_allclose(free_b(s), 0.25 * jp * math.exp(z * jm), rtol=1e-13)
        u = -params.gamma * math.sqrt(2 * z / (math.exp(2 * z * jm) - 1.0))
        npt.assert_allclose(kep_b(s) - free_b(s), 2.0 * u, rtol=1e-12)


# -- metrics ----------------------------------------------------------------

def test_metric_flat_beltrami_is_twice_identity():
    g = metric(Chart.BELTRAMI, "nc", (0.3, 0.8, 1.2), SpaceParams(0.0, 1.0))
    npt.assert_allclose(g, 2.0 * np.eye(3), rtol=1e-14)


def test_metric_unit_sphere_equator():
    g = metric(Chart.POLAR_CONSTANT, "cc", (math.pi / 2, 1.1, 0.3),
               SpaceParams(1.0, 1.0))
    npt.assert_allclose(g, np.diag((1.0, 1.0, math.sin(1.1) ** 2)), rtol=1e-13)


def test_metric_chart_kind_pairs():
    params = SpaceParams(0.3, 1.0)
    with pytest.raises(ChartMismatchError):
        metric(Chart.POLAR_VARIABLE, "cc", (1, 1, 1), params)
    with pytest.raises(ChartMismatchError):
        metric(Chart.POLAR_CONSTANT, "nc", (1, 1, 1), params)
    with pytest.raises(DomainError):
        metric(Chart.BELTRAMI, "flat", (1, 1, 1), params)


def diag_form_metric(chart, kind, point, params):
    """The metric as ``np.diag`` of its diagonal, scaled by ``* e`` (Beltrami
    cc) or ``/ cm`` (polar-variable): the reference for its bits."""
    z, kappa2 = params.z, params.kappa2
    x = [float(v) for v in point]
    if chart is Chart.BELTRAMI:
        q1, q2, q3 = x
        g = np.diag((2.0 * math.exp(-z * (q2 * q2 + q3 * q3)) / kernel.sinhc(z * q1 * q1),
                     2.0 * math.exp(z * (q1 * q1 - q3 * q3)) / kernel.sinhc(z * q2 * q2),
                     2.0 * math.exp(z * (q1 * q1 + q2 * q2)) / kernel.sinhc(z * q3 * q3)))
        if kind == "cc":
            g = g * math.exp(-z * (q1 * q1 + q2 * q2 + q3 * q3))
        return g
    rad, th = x[0], x[1]
    s2 = kernel.skappa(kappa2, th)
    if chart is Chart.POLAR_VARIABLE:
        sm, cm = kernel._kappa_pair(-z, rad)
        return np.diag((1.0, kappa2 * sm * sm, kappa2 * sm * sm * s2 * s2)) / cm
    sz = kernel.skappa(z, rad)
    return np.diag((1.0, kappa2 * sz * sz, kappa2 * sz * sz * s2 * s2))


# SIGNED's boxes keep C_{-z}(rho) > 0 on the polar-variable chart; at -z = 1
# this box lies past the cosine's zero at pi/2 and short of the pole at pi.
CM_NEGATIVE = [(Chart.POLAR_VARIABLE, "nc", ((1.7, 2.8), (0.6, 1.4), (0.2, 1.2)), -1.0, k2)
               for k2 in (1.0, -1.0)]


@pytest.mark.parametrize("chart, kind, points, z, kappa2, off", [
    (Chart.BELTRAMI, "nc", [(0.3, 0.8, 1.2)], -0.4, 1.0, 1.0),
    (Chart.BELTRAMI, "cc", [(0.3, 0.8, 1.2)], 0.7, 1.0, 1.0),
    (Chart.BELTRAMI, "cc", [(0.9, 0.25, 0.6)], -0.3, 1.0, 1.0),
    (Chart.POLAR_VARIABLE, "nc", [(0.9, 1.1, 0.4)], 0.5, 1.0, 1.0),
    (Chart.POLAR_VARIABLE, "nc", [(2.0, 1.1, 0.4)], -1.0, 1.0, -1.0),  # C_{-z}(rho) < 0
    (Chart.POLAR_VARIABLE, "nc", [(2.0, 1.1, 0.4)], -1.0, -1.0, -1.0),
    (Chart.POLAR_CONSTANT, "cc", [(0.9, 1.1, 0.4)], 0.3, 1.0, 1.0),
    (Chart.POLAR_CONSTANT, "cc", [(0.9, 1.1, 0.4)], -0.3, -2.0, 1.0),
] + [(chart, kind, jittered_grid(ranges, seed=50), z, kappa2, off)
     for cases, off in ((SIGNED, 1.0), (CM_NEGATIVE, -1.0))
     for chart, kind, ranges, z, kappa2 in cases],
    ids=["beltrami-nc", "beltrami-cc", "beltrami-cc-neg-z", "polar-variable",
         "polar-variable-cm-neg", "polar-variable-cm-neg-k2-neg", "polar-constant",
         "polar-constant-k2-neg"]
    + [f"grid-{case}" for case in SIGNED_IDS]
    + [f"grid-polar-variable-cm-neg-k2{k2}" for *_, k2 in CM_NEGATIVE])
def test_metric_has_the_bits_of_the_diag_forms(chart, kind, points, z, kappa2, off):
    """All nine entries of a C-contiguous float64 3x3, the sign ``off`` of the
    off-diagonal zeros included (-0.0 where C_{-z}(rho) < 0), at fixed points
    and on the jittered grids of the curvature tests."""
    params = SpaceParams(z, kappa2)
    for point in points:
        got = metric(chart, kind, point, params)
        want = diag_form_metric(chart, kind, point, params)
        assert got.shape == (3, 3) and got.dtype == np.float64 and got.flags.c_contiguous
        assert [float(v).hex() for v in got.ravel()] == [float(v).hex() for v in want.ravel()]
        assert all(math.copysign(1.0, got[i, j]) == off
                   for i in range(3) for j in range(3) if i != j)


@pytest.mark.parametrize("chart, kind, point, z, kappa2, entry, op", [
    (Chart.BELTRAMI, "cc", (0.01, 1.0, 0.5), -400.0, 1.0, (0, 0), "multiply"),
    (Chart.POLAR_VARIABLE, "nc", (1.5, 1.0, 0.5), -1.0, 1e308, (1, 1), "divide"),
], ids=["beltrami-cc-times-e", "polar-variable-over-cm"])
def test_a_scale_that_overflows_warns_and_raises_as_the_diag_form_did(
        chart, kind, point, z, kappa2, entry, op):
    """A finite entry that ``* e`` or ``/ cm`` takes past the largest float
    warns, and raises under the CLI's ``np.errstate(over="raise")``, as the
    numpy operation did; it never becomes an inf in silence."""
    params = SpaceParams(z, kappa2)
    with pytest.warns(RuntimeWarning, match=f"overflow encountered in {op}"):
        got = metric(chart, kind, point, params)
    with np.errstate(over="ignore"):
        want = diag_form_metric(chart, kind, point, params)
    assert got[entry] == math.inf
    assert [float(v).hex() for v in got.ravel()] == [float(v).hex() for v in want.ravel()]
    with np.errstate(over="raise"), pytest.raises(FloatingPointError, match=op):
        metric(chart, kind, point, params)


@pytest.mark.parametrize("point, kappa2, sign", [
    ((0.0, 1.0, 0.7), 1.0, 1.0), ((0.0, 1.0, 0.7), -1.0, -1.0),
    ((0.9, 0.0, 0.7), 1.0, 1.0), ((0.9, 0.0, 0.7), -1.0, -1.0),
], ids=["r0-plus-zero", "r0-minus-zero", "theta0-plus-zero", "theta0-minus-zero"])
def test_christoffel_refuses_a_zero_metric_entry_of_either_sign(point, kappa2, sign):
    """r = 0 or theta = 0 puts a zero on the polar-constant diagonal, -0.0
    for negative kappa2; either is the singular matrix inv refused."""
    params = SpaceParams(0.3, kappa2)
    gfn = lambda y: metric(Chart.POLAR_CONSTANT, "cc", y, params)
    zero = gfn(point)[2, 2]
    assert zero == 0.0 and math.copysign(1.0, zero) == sign
    with pytest.raises(ChartSingularityError, match="metric degenerate"):
        spaces._christoffel(gfn, np.asarray(point), 1e-4)


@pytest.mark.parametrize("n", [0, 1, 2])
def test_christoffel_gives_nan_for_a_nan_metric_entry(n):
    """A NaN on the diagonal is no singularity: no raise, and every
    Christoffel symbol with upper index n is NaN."""
    params = SpaceParams(0.3, 1.0)

    def gfn(y):
        g = metric(Chart.POLAR_CONSTANT, "cc", y, params)
        g[n, n] = math.nan
        return g

    gamma = spaces._christoffel(gfn, np.asarray((0.9, 1.1, 0.7)), 1e-4)[1]
    assert gamma.shape == (3, 3, 3) and np.isnan(gamma[n]).all()


@pytest.mark.parametrize("family,kind,chart", [
    (Family.FREE_NC, "nc", Chart.BELTRAMI),
    (Family.FREE_NC, "nc", Chart.POLAR_VARIABLE),
    (Family.FREE_CC, "cc", Chart.BELTRAMI),
    (Family.FREE_CC, "cc", Chart.POLAR_CONSTANT),
])
def test_metric_legendre_consistency(family, kind, chart):
    """g(qdot, qdot) = 2 L with qdot = dH/dp and L = p.qdot - H (free flow)."""
    params = SpaceParams(0.3, 1.0)
    h = hamiltonian(HamiltonianSpec(family, params), chart)
    rng = np.random.default_rng(37)
    for _ in range(15):
        if chart is Chart.BELTRAMI:
            pos = rng.uniform(0.2, 0.9, 3)
        else:
            pos = np.array([rng.uniform(0.4, 1.2), rng.uniform(0.5, 1.2),
                            rng.uniform(0.1, 1.0)])
        mom = rng.uniform(-1.2, 1.2, 3)
        s = PhaseState(chart, tuple(pos) + tuple(mom))
        qdot = grad(h, s)[3:]
        g = metric(chart, kind, pos, params)
        lagrangian = mom @ qdot - h(s)
        npt.assert_allclose(qdot @ g @ qdot, 2.0 * lagrangian, rtol=1e-10)


# -- curvature --------------------------------------------------------------

def test_curvature_constant_family():
    """K_ij = z and K = 6z for the constant-curvature metrics."""
    for z, kappa2 in ((0.3, 1.0), (-0.4, 1.0), (0.5, -1.0)):
        params = SpaceParams(z, kappa2)
        res = curvature(Chart.POLAR_CONSTANT, "cc", (0.9, 1.0, 0.7), params)
        for got in (res.k12, res.k13, res.k23):
            assert abs(got - z) < 1e-5
        assert abs(res.kscalar - 6.0 * z) < 1e-5


def test_curvature_cc_beltrami_chart():
    params = SpaceParams(0.3, 1.0)
    res = curvature(Chart.BELTRAMI, "cc", (0.4, 0.7, 0.5), params)
    assert abs(res.kscalar - 1.8) < 1e-5


def test_curvature_flat_everywhere():
    params = SpaceParams(0.0, 1.0)
    res = curvature(Chart.BELTRAMI, "nc", (0.5, 0.8, 1.1), params)
    assert abs(res.kscalar) < 1e-10


@pytest.mark.parametrize("h", [0.0, -1e-4, math.nan, math.inf])
def test_curvature_rejects_a_step_that_is_not_finite_and_positive(h):
    with pytest.raises(DomainError, match="step"):
        curvature(Chart.POLAR_CONSTANT, "cc", (0.9, 1.0, 0.7),
                  SpaceParams(0.3, 1.0), h=h)


def test_curvature_nc_beltrami_closed_forms():
    """Numeric Riemann pipeline against the variable-curvature closed forms."""
    params = SpaceParams(0.3, 1.0)
    rng = np.random.default_rng(41)
    for _ in range(20):
        pos = rng.uniform(0.2, 1.0, 3)
        res = curvature(Chart.BELTRAMI, "nc", pos, params)
        closed = res.closed
        qq = pos @ pos
        assert closed["kscalar"] == pytest.approx(-1.5 * math.sinh(0.3 * qq),
                                                  rel=1e-12)
        assert abs(res.k12 - closed["k12"]) < 1e-4
        assert abs(res.k13 - closed["k13"]) < 1e-4
        assert abs(res.k23 - closed["k23"]) < 1e-4
        assert abs(res.kscalar - closed["kscalar"]) < 1e-4


def test_curvature_nc_polar_closed_forms():
    """rho-chart: K12 = K13, K23 = K12/2, K near-origin vanishes."""
    z = 0.25
    params = SpaceParams(z, 1.0)
    res = curvature(Chart.POLAR_VARIABLE, "nc", (1.0, 1.1, 0.8), params)
    closed = res.closed
    l1 = math.sqrt(z)
    want = -0.5 * l1 ** 2 * math.sinh(l1 * 1.0) ** 2 / math.cosh(l1 * 1.0)
    assert closed["k12"] == pytest.approx(want, rel=1e-12)
    assert abs(res.k12 - closed["k12"]) < 1e-4
    assert abs(res.k13 - closed["k13"]) < 1e-4
    assert abs(res.k23 - closed["k23"]) < 1e-4
    assert abs(res.kscalar - closed["kscalar"]) < 1e-4
    origin = curvature(Chart.BELTRAMI, "nc", (0.02, 0.02, 0.02), params)
    assert abs(origin.kscalar) < 1e-3          # -5 z sinh(z q^2) ~ 0 near q = 0
    assert abs(origin.kscalar - origin.closed["kscalar"]) < 1e-5


def test_curvature_consistent_across_charts():
    """Scalar curvature is a scalar: same value through the chart map."""
    z = 0.3
    params = SpaceParams(z, 1.0)
    q = np.array([0.5, 0.7, 0.9])
    s = PhaseState(Chart.BELTRAMI, tuple(q) + (0.0, 0.0, 0.0))
    sp = to_polar(s, params, Chart.POLAR_VARIABLE)
    a = curvature(Chart.BELTRAMI, "nc", q, params).kscalar
    b = curvature(Chart.POLAR_VARIABLE, "nc", sp.positions, params).kscalar
    assert abs(a - b) < 1e-4


# -- radial reduction -------------------------------------------------------

def test_radial_reduction_euclidean_kepler():
    """z = 0, c3 = 1, k = 1: V_eff = 1/(2 r^2) - 1/r, minimum -1/2 at r = 1."""
    gamma = 1.0 / (2.0 * math.sqrt(2.0))
    spec = HamiltonianSpec(Family.KEPLER_CC, SpaceParams(0.0, 1.0, gamma))
    rad = radial_reduction(spec, 1.0)
    assert rad.potential(1.0) == pytest.approx(-0.5, rel=1e-14)
    rs = np.linspace(0.4, 4.0, 400)
    vals = [rad.potential(r) for r in rs]
    assert min(vals) >= -0.5 - 1e-6
    assert rs[int(np.argmin(vals))] == pytest.approx(1.0, abs=0.02)
    spec_nc = HamiltonianSpec(Family.KEPLER_NC, SpaceParams(0.0, 1.0, gamma))
    rad_nc = radial_reduction(spec_nc, 1.0)
    for r in (0.5, 1.0, 2.0):
        assert rad_nc.potential(r) == pytest.approx(rad.potential(r), rel=1e-12)
        assert rad_nc.hamiltonian(r, 0.3) == pytest.approx(
            rad.hamiltonian(r, 0.3), rel=1e-12)


def test_radial_reduction_matches_full_hamiltonian():
    """h(r, p_r; c3 = C3(s)) equals the 3D Hamiltonian pointwise."""
    from curvkepler.symmetry import constants
    params = SpaceParams.preset("spherical", gamma=0.45)
    spec = HamiltonianSpec(Family.KEPLER_CC, params)
    h3 = hamiltonian(spec, Chart.POLAR_CONSTANT)
    c3 = constants(spec, Chart.POLAR_CONSTANT)["C3"]
    rng = np.random.default_rng(43)
    for _ in range(25):
        s = PhaseState.polar_constant(rng.uniform(0.4, 2.4), rng.uniform(0.4, 2.6),
                                      rng.uniform(0, 6), *rng.uniform(-1.5, 1.5, 3))
        rad = radial_reduction(spec, c3(s))
        npt.assert_allclose(rad.hamiltonian(s.coords[0], s.coords[3]), h3(s),
                            rtol=1e-10)


def test_family_polar_chart_is_the_compatible_polar_chart():
    params = SpaceParams(0.1, 1.0, 0.3)
    for family, chart in ALL_FAMILIES:
        assert family.polar_chart is chart
        assert HamiltonianSpec(family, params).compatible_charts() == \
            (Chart.BELTRAMI, chart)
        assert radial_reduction(HamiltonianSpec(family, params), 1.0).chart is chart
    assert Family.CUSTOM.polar_chart is None


def test_radial_reduction_guards():
    spec = HamiltonianSpec(Family.KEPLER_CC, SpaceParams(0.1, 1.0, 0.3))
    for c3 in (-1.0, math.nan):
        with pytest.raises(DomainError):
            radial_reduction(spec, c3)


def test_chart_guard_reports_reasons():
    params = SpaceParams.preset("spherical", gamma=0.3)
    guard = chart_guard(Chart.POLAR_CONSTANT, params)
    assert guard((1e-8, 1.0, 0.0, 0, 0, 0)) is not None
    assert guard((1.0, 1e-8, 0.0, 0, 0, 0)) is not None
    assert guard((1.0, 1.0, 0.0, 0, 0, 0)) is None
    guard_b = chart_guard(Chart.BELTRAMI, params)
    assert guard_b((1e-9, 1e-9, 1e-9, 0, 0, 0)) is not None


@pytest.mark.parametrize("chart, params, before, after, reason", [
    (Chart.POLAR_CONSTANT, SpaceParams.preset("spherical"), (0.6, 1.0), (-1.4, 1.0),
     "radial pole crossed between steps: S_kappa1(r) changed sign"),
    (Chart.POLAR_CONSTANT, SpaceParams.preset("spherical"), (3.0, 1.0), (3.3, 1.0),
     "radial pole crossed between steps: S_kappa1(r) changed sign"),
    (Chart.POLAR_CONSTANT, SpaceParams.preset("hyperbolic"), (1.0, 0.3), (1.0, -0.2),
     "polar axis crossed between steps: S_kappa2(theta) changed sign"),
    (Chart.POLAR_VARIABLE, SpaceParams(0.5, 1.0), (0.3, 1.0), (-0.2, 1.0),
     "radial pole crossed between steps: S_{-kappa1}(rho) changed sign"),
    (Chart.POLAR_VARIABLE, SpaceParams(0.5, 1.0), (1.0, 3.0), (1.0, 3.3),
     "polar axis crossed between steps: S_kappa2(theta) changed sign"),
    (Chart.POLAR_VARIABLE, SpaceParams(-1.0, 1.0), (1.4, 1.0), (1.8, 1.0),
     "chart edge crossed between steps: C_{-kappa1}(rho) changed sign"),
    (Chart.BELTRAMI, SpaceParams(0.5, 1.0), (0.3, 0.2, 0.4), (0.3, -0.1, 0.4),
     "coordinate plane q2 = 0 crossed between steps: q2 changed sign"),
], ids=["pole", "antipode", "axis", "rho pole", "theta antipode", "edge", "beltrami q2"])
def test_a_step_over_the_singular_set_is_a_crossing(chart, params, before, after, reason):
    """Neither end is within the guard's epsilon of the singular set, so only
    the sign change between them shows the step across it."""
    guard = chart_guard(chart, params)
    pad = (0.0,) * (6 - len(before))
    start, end = before + pad, after + pad
    assert guard(start) is None and guard(end) is None
    ok, signs = guard.step(start, None)
    assert ok is None
    assert guard.step(start, signs) == (None, signs)
    got, _ = guard.step(end, signs)
    assert got == reason


def _pair_guard(chart, params, eps=1e-6):
    """chart_guard on a polar chart written on kernel._kappa_pair, reading
    S (and C) from the pair, as it was before the S-only helper."""
    z, kappa2, pair = params.z, params.kappa2, kernel._kappa_pair

    def guard(c):
        if chart is Chart.POLAR_CONSTANT:
            if abs(pair(z, c[0])[0]) < eps:
                return "radial pole: S_kappa1(r) ~ 0"
            if abs(pair(kappa2, c[1])[0]) < eps:
                return "polar axis: S_kappa2(theta) ~ 0"
            return None
        s, cm = pair(-z, c[0])
        if abs(s) < eps:
            return "radial pole: S_{-kappa1}(rho) ~ 0"
        if abs(pair(kappa2, c[1])[0]) < eps:
            return "polar axis: S_kappa2(theta) ~ 0"
        if abs(cm) < eps:
            return "chart edge: C_{-kappa1}(rho) ~ 0"
        return None
    return guard


def test_s_only_polar_constant_guard_is_the_pair_guard():
    """On every preset, near the radial pole, the polar axis and theta = pi,
    the guard on kernel._kappa_s gives the pair guard's answer."""
    for name in PRESETS:
        params = SpaceParams.preset(name, gamma=0.3)
        guard = chart_guard(Chart.POLAR_CONSTANT, params)
        old = _pair_guard(Chart.POLAR_CONSTANT, params)
        for r in (0.0, -0.0, 5e-7, 2e-6, 0.9, math.pi, 2.5):
            for th in (1e-7, 0.8, math.pi - 5e-7, math.pi, 3.0):
                point = (r, th, 0.3, 0.0, 0.0, 0.0)
                assert guard(point) == old(point), (name, point)


# The simulate presets of tests/test_cli.py that end early: a radial plunge
# on the sphere and a z > 0 variable-curvature escape (step underflow).
_ENDINGS = {
    "collision": (Family.KEPLER_CC, SpaceParams.preset("spherical", gamma=0.5),
                  (0.6, 1.5707963, 0.0, -1.0, 0.0, 0.0), 5.0,
                  "radial pole: S_kappa1(r) ~ 0"),
    "runaway": (Family.KEPLER_NC, SpaceParams(0.4, 1.0, 0.45),
                (1.0, 1.2, 0.4, 0.5, 0.2, 0.6), 30.0, "step-underflow"),
}


@pytest.mark.parametrize("ending", _ENDINGS)
def test_early_endings_are_those_of_the_pair_guard(ending):
    """The collision and runaway orbits end for the same reason, at the same
    state, under chart_guard as under the pair guard."""
    family, params, coords, t_end, reason = _ENDINGS[ending]
    chart = family.polar_chart
    h = hamiltonian(HamiltonianSpec(family, params), chart)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=t_end)
    runs = []
    for guard in (chart_guard(chart, params), _pair_guard(chart, params)):
        try:
            tr = integrate(h, PhaseState(chart, coords), cfg, domain_guard=guard)
        except StepUnderflowError as err:
            tr = err.trajectory
        runs.append(tr)
    new, old = runs
    assert new.terminated_early and new.termination_reason == reason
    assert new.termination_reason == old.termination_reason
    assert new.times.tobytes() == old.times.tobytes()
    assert new.states.tobytes() == old.states.tobytes()


def _old_polar_variable_guard(params, c, eps=1e-6):
    """chart_guard on the polar-variable chart as separate S and C calls."""
    z = params.z
    if abs(kernel.skappa(-z, c[0])) < eps:
        return "radial pole: S_{-kappa1}(rho) ~ 0"
    if abs(kernel.skappa(params.kappa2, c[1])) < eps:
        return "polar axis: S_kappa2(theta) ~ 0"
    if abs(kernel.ckappa(-z, c[0])) < eps:
        return "chart edge: C_{-kappa1}(rho) ~ 0"
    return None


@pytest.mark.parametrize("z", [0.3, -0.3, 0.0, -0.0, 1e-12, -2.0])
def test_one_kappa_pair_per_radius_is_the_separate_s_and_c_calls(z):
    """metric, chart_guard and the closed-form curvature on the polar-variable
    chart take S_{-z}(rho) and C_{-z}(rho) from one kernel._kappa_pair call:
    bit for bit what separate skappa and ckappa calls gave, on the Taylor
    branch, both trig branches, at the radial pole and at the chart edge."""
    params = SpaceParams(z, 1.3)
    guard = chart_guard(Chart.POLAR_VARIABLE, params)
    edge = math.pi / 2 / math.sqrt(-z) if z < 0 else 1.0
    for rho in (1e-7, 1e-5, 0.4, 1.1, edge, edge * (1 + 1e-9), edge * (1 - 1e-9)):
        s, c = kernel.skappa(-z, rho), kernel.ckappa(-z, rho)
        assert [v.hex() for v in kernel._kappa_pair(-z, rho)] == [s.hex(), c.hex()]
        for th in (1e-8, 0.8):
            point = (rho, th, 0.3, 0.0, 0.0, 0.0)
            assert guard(point) == _old_polar_variable_guard(params, point), point
            if c == 0.0:
                continue
            s2 = kernel.skappa(1.3, th)
            want = np.diag((1.0, 1.3 * s * s, 1.3 * s * s * s2 * s2)) / c
            got = metric(Chart.POLAR_VARIABLE, "nc", point[:3], params)
            assert [v.hex() for v in got.ravel().tolist()] == \
                [v.hex() for v in want.ravel().tolist()], point
        if c != 0.0:
            k12 = -0.5 * z * z * s * s / c
            closed = spaces._closed_curvature(Chart.POLAR_VARIABLE, "nc", (rho, 0.8, 0.3), params)
            assert closed["k12"].hex() == k12.hex()
