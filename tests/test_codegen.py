"""Compiled straight-line gradients against the 6-lane dual evaluation."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from curvkepler import codegen, coalgebra, kernel, symmetry
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


# -- compiled bracket tables and the code cache ------------------------------

def _captured_tables(monkeypatch):
    """(suite, table, sampler) of each run_table call of the four suites."""
    seen = []
    real = coalgebra.run_table

    def capture(suite, table, sampler, samples, seed, params=None):
        seen.append((suite, table, sampler))
        return real(suite, table, sampler, samples, seed, params)

    monkeypatch.setattr(coalgebra, "run_table", capture)
    monkeypatch.setattr(symmetry, "run_table", capture)
    params = SpaceParams.preset("spherical", gamma=0.5)
    coalgebra.verify_sl2z(coalgebra.three_site(0.4), samples=1)
    coalgebra.verify_casimirs(0.4, samples=1)
    symmetry.verify_so4(params, samples=1)
    symmetry.verify_lrl_algebra(params, samples=1)
    monkeypatch.undo()
    return seen


def _opaque_table(table, wrap):
    """The same identities with the observables for which ``wrap`` holds
    replaced by graph-free copies, which run on duals."""
    memo = {}

    def op(o):
        if not isinstance(o, Observable) or not wrap(o):
            return o
        return memo.setdefault(id(o), _dual(o))
    return [dataclasses.replace(t, f=op(t.f), g=op(t.g), rhs=op(t.rhs)) for t in table]


def _reference_run_table(table, sampler, samples, seed):
    """The per-sample loop run_table replaced: (residual, worst point) per row."""
    rng = np.random.default_rng(seed)
    worst = [(-1.0, None)] * len(table)
    for _ in range(samples):
        state = sampler(rng)
        for i, t in enumerate(table):
            scale = 1.0
            if t.g is not None:
                gf, gg = t.f.gradient(state), t.g.gradient(state)
                lhs = float(gf[:3] @ gg[3:] - gg[:3] @ gf[3:])
                scale = 1e-4 * float(np.linalg.norm(gf) * np.linalg.norm(gg))
            else:
                lhs = t.f.value_and_gradient(state)[0]
            rhs = (t.rhs.value_and_gradient(state)[0] if isinstance(t.rhs, Observable)
                   else float(t.rhs))
            res = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs), scale)
            if res > worst[i][0] or (math.isnan(res) and not math.isnan(worst[i][0])):
                worst[i] = (res, state.coords)
    return worst


def test_compiled_tables_equal_dual_tables_and_the_per_sample_loop(monkeypatch):
    """Every suite's table: compiled, all-opaque (dual) and half-opaque runs
    give the same residuals, NaN counts and worst points, and those of the
    per-sample reference loop (the same float operations, so exactly)."""
    for suite, table, sampler in _captured_tables(monkeypatch):
        compiled = coalgebra.run_table(suite, table, sampler, 25, 3)
        flip = itertools.cycle((True, False))
        for variant in (_opaque_table(table, lambda o: True),
                        _opaque_table(table, lambda o: next(flip))):
            dual = coalgebra.run_table(suite, variant, sampler, 25, 3)
            assert [r.as_dict() for r in dual.results] == \
                [r.as_dict() for r in compiled.results], suite
        ref = _reference_run_table(table, sampler, 25, 3)
        got = [(r.max_residual, r.worst_point) for r in compiled.results]
        assert got == ref, suite
        assert all(r.nan_samples == 0 for r in compiled.results)


def _compile_calls(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[0])
        return compile(*args)

    monkeypatch.setattr(codegen, "compile", counting, raising=False)
    return calls


def test_structure_cache_compiles_each_table_structure_once(monkeypatch):
    codegen._code.cache_clear()
    calls = _compile_calls(monkeypatch)
    first = symmetry.verify_lrl_algebra(SpaceParams.preset("spherical", 0.5), samples=3)
    assert len(calls) == 1 and codegen._code.cache_info().currsize == 1
    for params in (SpaceParams(0.3, -0.7, 1.1), SpaceParams(0.0, 1.0, 0.5),
                   SpaceParams.preset("hyperbolic", 0.25)):
        report = symmetry.verify_lrl_algebra(params, samples=3)
        assert report.passed()
    assert len(calls) == 1                       # no compile() at new parameters
    assert first.passed()
    control = symmetry.verify_lrl_algebra(SpaceParams.preset("spherical", 0.5),
                                          samples=3, perturb="j02")
    assert not control.passed(1e-3)
    assert len(calls) == 2 and codegen._code.cache_info().currsize == 2


def test_structure_cache_stays_at_its_bound():
    bound = codegen._code.cache_info().maxsize
    chain = Q1
    for _ in range(bound + 5):                  # one new structure each time
        chain = chain * Q2 + P1
        assert chain.compile_gradient()
        assert codegen._code.cache_info().currsize <= bound
    assert codegen._code.cache_info().currsize == bound
