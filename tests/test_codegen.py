"""Compiled straight-line gradients against the 6-lane dual evaluation."""

import math

import numpy as np
import pytest

from curvkepler import kernel
from curvkepler.coalgebra import sample_beltrami
from curvkepler.dynamics import IntegratorConfig, integrate
from curvkepler.phase import (P1, P3, Q1, Q2, Chart, Observable, PhaseState,
                              constant, exp, tkappa)
from curvkepler.spaces import (PRESETS, Family, HamiltonianSpec, SpaceParams,
                               chart_guard, hamiltonian)
from curvkepler.symmetry import constants, sample_polar

_NAMED = (Family.FREE_NC, Family.FREE_CC, Family.KEPLER_NC, Family.KEPLER_CC)


def _dual(ob):
    """The same observable without an expression graph: dual path only."""
    return Observable(ob.fn, chart=ob.chart)


def _observables(spec, chart):
    obs = dict(constants(spec, chart))
    obs["H"] = hamiltonian(spec, chart)
    return obs


@pytest.mark.parametrize("family", _NAMED, ids=lambda f: f.value)
def test_compiled_matches_dual_on_every_family_chart_and_preset(family):
    """Equal values and gradients on every chart, Beltrami included."""
    rng = np.random.default_rng(11)
    for preset in PRESETS:
        params = SpaceParams.preset(preset, gamma=0.5)
        spec = HamiltonianSpec(family, params)
        for chart in spec.compatible_charts():
            for name, ob in _observables(spec, chart).items():
                assert ob.compile_gradient(), (preset, chart, name)
                ref = _dual(ob)
                for _ in range(15):
                    s = (sample_beltrami(rng) if chart is Chart.BELTRAMI
                         else sample_polar(params, rng, chart))
                    val, g = ob.value_and_gradient(s)
                    ref_val, ref_g = ref.value_and_gradient(s)
                    assert val == ref_val, (preset, chart, name)
                    assert np.array_equal(g, ref_g), (preset, chart, name, g - ref_g)
                    assert np.array_equal(ob.gradient(s), g)


def _raised(fn, state):
    try:
        fn(state)
    except Exception as exc:        # the class is what is compared
        return type(exc)
    return None


def test_compiled_raises_what_the_dual_path_raises():
    kepler = hamiltonian(HamiltonianSpec(Family.KEPLER_CC,
                                         SpaceParams.preset("spherical", 0.5)),
                         Chart.POLAR_CONSTANT)
    pole = tkappa(1.0, Q1) * P1 + Q2
    cases = [
        (kepler, PhaseState.polar_constant(1.0, 0.0, 0.3, 0.1, 0.2, 0.9)),  # theta = 0
        (kepler, PhaseState.polar_constant(0.0, 1.0, 0.3, 0.1, 0.2, 0.9)),  # r = 0
        (pole, PhaseState.beltrami(math.pi / 2, 0.4, 0.0, 0.3, 0.0, 0.0)),
    ]
    for ob, state in cases:
        assert ob.compile_gradient()
        ref = _dual(ob)
        for method in ("gradient", "value_and_gradient"):
            want = _raised(getattr(ref, method), state)
            assert want is not None and issubclass(want, ZeroDivisionError)
            assert _raised(getattr(ob, method), state) is want
    assert _raised(pole.gradient, PhaseState.beltrami(math.pi / 2, 0, 0, 0, 0, 0)) \
        is kernel.PoleError


def test_constant_subtrees_fold_and_raising_ones_stay_on_duals():
    ob = exp(constant(0.5)) * Q1 + P3 / constant(4.0)
    assert ob.compile_gradient()
    s = (0.3, 0.0, 0.0, 0.0, 0.0, 1.5)
    assert ob.value_and_gradient(s)[0] == _dual(ob).value_and_gradient(s)[0]
    assert np.array_equal(ob.gradient(s), [math.exp(0.5), 0, 0, 0, 0, 0.25])
    bad = Q1 / constant(0.0)
    assert not bad.compile_gradient()
    with pytest.raises(ZeroDivisionError):
        bad.gradient(s)


def test_opaque_and_custom_hamiltonians_are_not_compiled_and_still_integrate():
    opaque = Observable(lambda *s: 0.5 * (s[3] * s[3] + s[0] * s[0]))
    assert opaque.node is None and not opaque.compile_gradient()
    assert not (opaque + Q1).compile_gradient()
    tr = integrate(opaque, PhaseState.beltrami(1.0, 0, 0, 0, 0, 0),
                   IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=math.pi))
    assert abs(tr.states[-1][0] + 1.0) < 1e-8

    gamma = 0.4
    params = SpaceParams(0.1, 1.0, gamma)
    spec = HamiltonianSpec(
        Family.CUSTOM, params, f=kernel.exp,
        potential=lambda z, jm: -gamma / kernel.sqrt(jm * kernel.expm1c(2.0 * z * jm)))
    h = hamiltonian(spec, Chart.BELTRAMI)
    assert not h.compile_gradient()
    tr = integrate(h, PhaseState.beltrami(0.4, 0.7, 0.3, 0.6, -0.2, 0.9),
                   IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=0.5),
                   monitors={"H": h},
                   domain_guard=chart_guard(Chart.BELTRAMI, params))
    assert not tr.terminated_early
    assert tr.drift["H"] < 1e-8


@pytest.mark.parametrize("family, chart, params, state", [
    (Family.KEPLER_CC, Chart.POLAR_CONSTANT, SpaceParams.preset("spherical", 0.5),
     (1.1, 1.2, 0.4, 0.2, 0.4, 0.9)),
    (Family.KEPLER_NC, Chart.POLAR_VARIABLE, SpaceParams(-0.4, 1.0, gamma=0.45),
     (1.0, 1.2, 0.4, 0.15, 0.4, 0.8)),
], ids=["kepler-cc", "kepler-nc"])
def test_compiled_integration_is_bitwise_the_dual_integration(family, chart, params, state):
    h = hamiltonian(HamiltonianSpec(family, params), chart)
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, t_end=3.0, sample_stride=5)
    s0 = PhaseState(chart, state)
    guard = chart_guard(chart, params)
    fast = integrate(h, s0, cfg, monitors={"H": h}, domain_guard=guard)
    slow = integrate(_dual(h), s0, cfg, monitors={"H": h}, domain_guard=guard)
    assert h.compile_gradient()
    assert np.array_equal(fast.times, slow.times)
    assert np.array_equal(fast.states, slow.states)
    assert np.array_equal(fast.monitors["H"], slow.monitors["H"])
    assert fast.stats == slow.stats
