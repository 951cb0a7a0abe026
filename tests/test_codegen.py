"""Compiled straight-line gradients against the 6-lane dual evaluation."""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from curvkepler import cli, codegen, coalgebra, kernel, phase, symmetry
from curvkepler.coalgebra import sample_beltrami
from curvkepler.dynamics import IntegratorConfig, integrate
from curvkepler.phase import (P1, P2, P3, Q1, Q2, Chart, Observable, PhaseState,
                              ckappa, constant, cotkappa, exp, skappa, tkappa)
from curvkepler.spaces import (PRESETS, Family, HamiltonianSpec, SpaceParams,
                               chart_guard, hamiltonian)
from curvkepler.symmetry import constants, sample_polar

_NAMED = (Family.FREE_NC, Family.FREE_CC, Family.KEPLER_NC, Family.KEPLER_CC)


def _dual(ob):
    """The same observable without an expression graph: dual path only."""
    return Observable(ob.fn, chart=ob.chart)


def _compiles(ob, grads=True):
    """Whether the observable's graph compiles in the mode ``grads``."""
    return codegen.compile_roots([ob._node], (grads,), ob.binding) is not None


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
                assert _compiles(ob), (preset, chart, name)
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
        assert _compiles(ob)
        ref = _dual(ob)
        for method in ("gradient", "value_and_gradient"):
            want = _raised(getattr(ref, method), state)
            assert want is not None and issubclass(want, ZeroDivisionError)
            assert _raised(getattr(ob, method), state) is want
    assert _raised(pole.gradient, PhaseState.beltrami(math.pi / 2, 0, 0, 0, 0, 0)) \
        is kernel.PoleError


@pytest.mark.parametrize("kfn, kappa, x", [
    (tkappa, 1.0, math.pi / 2), (tkappa, 4.0, math.pi / 4),
    (cotkappa, 1.0, 0.0), (cotkappa, 1.0, math.pi), (cotkappa, -0.5, -0.0),
    (cotkappa, 0, 0.0),
], ids=["tkappa-1", "tkappa-4", "cotkappa-0", "cotkappa-pi", "cotkappa-hyperbolic",
        "cotkappa-int-label"])
def test_compiled_ratio_calls_its_rule_only_at_the_pole(kfn, kappa, x, monkeypatch):
    """The compiled gradient writes a ratio's quotient and derivative out and
    calls its kernel rule only where the denominator is below the pole
    threshold: there it raises the PoleError of the dual path, message
    included."""
    ob = kfn(kappa, Q1) * P1 + Q2
    pole = PhaseState.beltrami(x, 0.4, 0.0, 0.3, 0.0, 0.0)
    with pytest.raises(kernel.PoleError) as dual:
        _dual(ob).gradient(pole)
    name = kfn.__name__
    calls = []
    rule = kernel.KAPPA_RULES[name]
    # Compiled code reads its rules from the shared base globals when bound,
    # and an equal graph an earlier case bound is this one: bind it again.
    monkeypatch.setitem(codegen._BASE_GLOBALS, f"{name}_rule",
                        lambda *a: calls.append(a) or rule(*a))
    codegen._bound.cache_clear()
    assert _compiles(ob)        # bound now, with the spy in its globals
    regular = PhaseState.beltrami(x + 0.25, 0.4, 0.0, 0.3, 0.0, 0.0)
    assert np.array_equal(ob.gradient(regular), _dual(ob).gradient(regular))
    assert calls == []
    with pytest.raises(kernel.PoleError) as compiled:
        ob.gradient(pole)
    assert type(compiled.value) is type(dual.value)
    assert str(compiled.value) == str(dual.value)
    assert len(calls) == 1


def test_compiled_kepler_gradient_evaluates_one_kappa_pair_per_argument():
    """skappa(z, r) and cotkappa(z, r) share one (S, C) pair, and
    skappa(kappa2, theta) has its own: two pair instructions per gradient,
    where each of the three kappa-trig nodes used to evaluate S and C
    itself.  The partial graphs' kappa-trig nodes read the same pairs, and
    both modes (the gradient and values only) write each pair out as
    statements, with no call of kernel._kappa_pair."""
    params = SpaceParams.preset("spherical", 0.5)
    h = hamiltonian(HamiltonianSpec(Family.KEPLER_CC, params), Chart.POLAR_CONSTANT)
    for grads in ((True,), (False,)):
        structure, bind = codegen._lower([h.node], grads)
        ins, consts = structure[0], bind(h.binding)
        pairs = sorted((ins[i[1]], consts[~i[2]]) for i in ins if i[0] == "pair")
        assert pairs == [(("coord", 0), params.z), (("coord", 1), params.kappa2)]
        source = "\n".join(codegen._Emitter().body(structure, grads[0]))
        assert "kappa_pair(" not in source and source.count("sqrt(") == 4


@pytest.mark.parametrize("kappa", [0.3, -0.3, 1e-12, 0.0, -0.0, 0], ids=repr)
def test_written_out_pair_is_kernel_kappa_pair_and_the_dual_path_bit_for_bit(kappa):
    """The emitted (S, C) statements give kernel._kappa_pair's S and C, and
    the gradient mode the dual path's S' = C and C' = -kappa S, bit for bit:
    on the Taylor branch (|u| < 1e-8, u > 0 and u < 0), at x = +-0.0, on
    both sides of it, and where u or sinh(sqrt(-u)) overflows.  Where the
    pair raises, both modes raise the same class."""
    roots = [skappa(kappa, Q1), ckappa(kappa, Q1)]
    grad = _gradient(roots)
    vals = _values_only(roots)
    # 1e-5: Taylor at kappa = +-0.3; 1e155: u = +-inf (sin raises at +inf,
    # S = NaN and C = inf at -inf); 2e3: sinh overflows at kappa = -0.3.
    for x in np.linspace(-4.0, 4.0, 41).tolist() + [1e-5, -1e-5, -0.0, 1e155, 2e3]:
        s = (x, 0.0, 0.0, 0.0, 0.0, 0.0)
        try:
            pair = kernel._kappa_pair(kappa, x)
        except (ValueError, OverflowError) as exc:
            for f in (grad, vals):
                with pytest.raises(type(exc)):
                    f(*s)
            continue
        want = [v.hex() for v in pair]
        assert [v.hex() for v in vals(*s)] == want, x
        out = grad(*s)
        assert [out[0].hex(), out[7].hex()] == want, x
        dual = [kernel.skappa(kappa, kernel.KScalar(x, kernel._UNIT[0])),
                kernel.ckappa(kappa, kernel.KScalar(x, kernel._UNIT[0]))]
        assert [d.val.hex() for d in dual] == want, x
        # the q1 lane; the others are exact zeros (NaN on the dual path
        # when the derivative is infinite)
        assert [out[1].hex(), out[8].hex()] == [d.d[0].hex() for d in dual], x


def test_kappa_pairs_are_keyed_by_the_label_bits():
    """Labels 0.0, -0.0 and the int 0 give the same S and C but derivatives
    C' = -kappa S of different zero sign, so they must not share a pair."""
    roots = [ckappa(0.0, Q1), ckappa(-0.0, Q1), skappa(0.3, Q1) * cotkappa(0.3, Q1),
             tkappa(0.3, Q2) + skappa(-0.0, Q1), ckappa(0, Q1)]
    (ins, _), _ = codegen._lower([r.node for r in roots], [True] * len(roots))
    assert sum(op == "pair" for op, *_ in ins) == 5
    f = _gradient(roots)
    s = (0.7, 0.4, 0.0, 0.0, 0.0, 0.0)
    out = f(*s)
    for j, ob in enumerate(roots):
        val, g = _dual(ob).value_and_gradient(s)
        assert out[7 * j] == val and np.array_equal(out[7 * j + 1: 7 * j + 7], g), j
    # d/dq1 of ckappa(0.0, q1), ckappa(-0.0, q1) and ckappa(0, q1), as the
    # dual path gives them
    signs = [math.copysign(1.0, out[7 * j + 1]) for j in (0, 1, 4)]
    assert signs == [-1.0, 1.0, 1.0]
    assert [math.copysign(1.0, _dual(roots[j]).gradient(s)[0]) for j in (0, 1, 4)] == signs


def test_constant_subtrees_fold_and_raising_ones_stay_on_duals():
    """A constant divisor of zero: the partial's ``1.0 / 0.0`` raises when
    folded, so the gradient takes the dual path, and the values-only code
    compiles the quotient, which raises at the call as the evaluator does."""
    ob = exp(constant(0.5)) * Q1 + P3 / constant(4.0)
    assert _compiles(ob)
    s = (0.3, 0.0, 0.0, 0.0, 0.0, 1.5)
    assert ob.value_and_gradient(s)[0] == _dual(ob).value_and_gradient(s)[0]
    assert np.array_equal(ob.gradient(s), [math.exp(0.5), 0, 0, 0, 0, 0.25])
    bad = Q1 / constant(0.0)
    assert not _compiles(bad) and _compiles(bad, grads=False)
    for call in (bad.gradient, bad, lambda s: bad.fn(*s)):
        with pytest.raises(ZeroDivisionError):
            call(s)


def test_opaque_and_custom_hamiltonians_are_not_compiled_and_still_integrate():
    opaque = Observable(lambda *s: 0.5 * (s[3] * s[3] + s[0] * s[0]))
    assert opaque.node is None and not _compiles(opaque)
    assert not _compiles(opaque + Q1)
    tr = integrate(opaque, PhaseState.beltrami(1.0, 0, 0, 0, 0, 0),
                   IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=math.pi))
    assert abs(tr.states[-1][0] + 1.0) < 1e-8

    gamma = 0.4
    params = SpaceParams(0.1, 1.0, gamma)
    spec = HamiltonianSpec(
        Family.CUSTOM, params, f=kernel.exp,
        potential=lambda z, jm: -gamma / kernel.sqrt(jm * kernel.expm1c(2.0 * z * jm)))
    h = hamiltonian(spec, Chart.BELTRAMI)
    assert not _compiles(h)
    tr = integrate(h, PhaseState.beltrami(0.4, 0.7, 0.3, 0.6, -0.2, 0.9),
                   IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=0.5),
                   monitors={"H": h},
                   domain_guard=chart_guard(Chart.BELTRAMI, params))
    assert not tr.terminated_early
    assert tr.drift["H"] < 1e-8


def test_an_observable_compiles_on_first_use_and_lowers_once_per_mode(monkeypatch):
    """On graphs never compiled before (every named family's Hamiltonian
    and constants at a gamma no other test uses), the first call gives the
    evaluator's value bit for bit and the first gradient the dual path's
    value and partials, up to the sign of a zero.  Each mode lowers a graph
    once, on the first call of the loop on its node (the lowering cache
    emptied first, since graphs are shared by every parameter set, and an
    expression two families build, such as C3, is one node): no later call
    in that mode, on the same observable or on a copy a builder returns,
    lowers again."""
    codegen._lowered.cache_clear()
    codegen._bound.cache_clear()
    lowered, seen = [], set()
    real = codegen._lower
    monkeypatch.setattr(codegen, "_lower", lambda *a: lowered.append(a) or real(*a))
    rng = np.random.default_rng(27)
    for family in _NAMED:
        params = SpaceParams.preset("spherical", gamma=0.4271)
        spec = HamiltonianSpec(family, params)
        chart = family.polar_chart
        for name, ob in _observables(spec, chart).items():
            s, again = sample_polar(params, rng, chart), sample_polar(params, rng, chart)
            ref_val, ref_g = _dual(ob).value_and_gradient(s)
            new = [(ob.node, mode) not in seen for mode in (False, True)]
            seen.update((ob.node, mode) for mode in (False, True))
            lowered.clear()
            assert ob(s).hex() == ob.fn(*s.coords).hex() == ref_val.hex(), (family, name)
            assert len(lowered) == new[0]
            g = ob.gradient(s)
            assert len(lowered) == sum(new) and np.array_equal(g, ref_g), (family, name, g - ref_g)
            val, g2 = ob.value_and_gradient(s)
            assert val.hex() == ref_val.hex() and np.array_equal(g2, g)
            copy = _observables(spec, chart)[name]
            assert copy is not ob and copy.node is ob.node
            for o in (ob, copy):
                o(again), o.gradient(again), o.value_and_gradient(again)
            assert len(lowered) == sum(new), (family, name)


def test_grad_of_a_callable_touches_no_compile_cache():
    """``phase.grad`` on a plain callable wraps it in an opaque
    ``Observable(fn)``, which never asks codegen for code: the cache of
    bound functions sees no lookup, so no dead entry is left behind."""
    f = lambda *x: x[0] * kernel.exp(x[4]) + x[1]
    s = PhaseState.beltrami(0.6, 0.2, -0.3, 0.1, 0.5, 0.7)
    before = codegen._bound.cache_info()
    grads = [phase.grad(f, s) for _ in range(3)]
    assert Observable(f)(s) == f(*s.coords)
    assert codegen._bound.cache_info() == before
    want = [math.exp(0.5), 1.0, 0.0, 0.0, 0.6 * math.exp(0.5), 0.0]
    assert all(np.array_equal(g, want) for g in grads)


@dataclasses.dataclass
class _Affine:
    """A callable of the six coordinates that cannot be hashed (``eq``
    without ``frozen``), as user callables often are."""
    k: float

    def __call__(self, *x):
        return self.k * x[0] + x[4]


def test_an_unhashable_callable_and_an_array_constant_build_and_evaluate():
    """Nodes are interned, but an opaque leaf's callable and a const that is
    not a number are keyed by identity, never hashed: ``Observable(fn)`` on
    an unhashable callable and ``Q1 * np.array(2.0)`` build and evaluate on
    the interpreted path, and an equal callable or array is another node."""
    s = PhaseState.beltrami(0.6, 0.2, -0.3, 0.1, 0.5, 0.7)
    f = _Affine(2.0)
    ob = Observable(f)
    assert ob(s) == f(*s.coords) == 1.7
    assert np.array_equal(ob.gradient(s), [2.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    assert Observable(f).node is None and Observable(_Affine(2.0))._node is not ob._node
    scaled = Q1 * np.array(2.0)
    assert not _compiles(scaled) and scaled(s) == 1.2
    val, g = scaled.value_and_gradient(s)
    assert val == 1.2 and np.array_equal(g, [2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert (Q1 * np.array(2.0)).node is not scaled.node


def test_an_expression_built_twice_is_one_node():
    """Every node is interned: the same formula built twice, over equal
    numbers that are different objects, parameters, kernel functions, a
    curvature label and an opaque leaf, gives one node, and so do its
    partial graphs."""
    half, f = np.array(0.5), _Affine(3.0)

    def build(two):
        return (phase.sinhc(phase.Z * Q1 * Q1) * P1 ** two + ckappa(-phase.KAPPA2, Q2) / 3.0
                - Observable(f) * half)

    first, second = build(2.0), build(float("2"))
    assert first.node is second.node and first is not second
    x = Q1 * P2 + phase.GAMMA
    assert (x * float("1.5")).node is (x * 1.5).node
    assert codegen._partials([(x * 1.5).node]) == codegen._partials([(x * 1.5).node])


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
    assert _compiles(h)
    assert np.array_equal(fast.times, slow.times)
    assert np.array_equal(fast.states, slow.states)
    assert np.array_equal(fast.monitors["H"], slow.monitors["H"])
    assert fast.stats == slow.stats


# -- compiled bracket tables and the code cache ------------------------------

def _captured_tables(monkeypatch):
    """(suite, table, sampler) of each run_table call of the four suites,
    each table's identities holding its observables bound."""
    seen = []
    real = coalgebra.run_table

    def capture(suite, table, sampler, samples, seed, params=None):
        seen.append((suite, [phase.bound(t, table.binding) for t in table], sampler))
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


def _clear_code_caches():
    """Empty the lowered root sets (with their code objects), the bound
    functions and the table plans, so the next call compiles every
    structure it needs."""
    codegen._lowered.cache_clear()
    codegen._bound.cache_clear()
    coalgebra._plan.cache_clear()


def test_structure_cache_compiles_each_table_structure_once(monkeypatch):
    _clear_code_caches()
    calls = _compile_calls(monkeypatch)
    first = symmetry.verify_lrl_algebra(SpaceParams.preset("spherical", 0.5), samples=3)
    assert len(calls) == 1 and codegen._lowered.cache_info().currsize == 1
    for params in (SpaceParams(0.3, -0.7, 1.1), SpaceParams(0.0, 1.0, 0.5),
                   SpaceParams.preset("hyperbolic", 0.25)):
        report = symmetry.verify_lrl_algebra(params, samples=3)
        assert report.passed()
    assert len(calls) == 1                       # no compile() at new parameters
    assert first.passed()
    control = symmetry.verify_lrl_algebra(SpaceParams.preset("spherical", 0.5),
                                          samples=3, perturb="j02")
    assert not control.passed(1e-3)
    assert len(calls) == 2 and codegen._lowered.cache_info().currsize == 2


def test_verify_all_at_new_parameters_emits_and_compiles_nothing(monkeypatch):
    """A second `verify --suite all` in the process, at new (z, kappa2,
    gamma), finds both batch structures (the Beltrami tables and the polar
    ones) in the cache: it lowers each graph and emits no source and calls
    no compile()."""
    _clear_code_caches()
    calls = _compile_calls(monkeypatch)
    emitted = []
    real = codegen._Emitter.body
    monkeypatch.setattr(codegen._Emitter, "body",
                        lambda self, structure, grads: emitted.append(structure)
                        or real(self, structure, grads))
    argv = ["verify", "--suite", "all", "--samples", "3"]
    assert cli.main(argv + ["--preset", "spherical"]) == 0
    assert len(calls) == len(emitted) == 2
    for params in (["--z", "0.3", "--kappa2", "-0.7", "--gamma", "1.1"],
                   ["--z", "0.0", "--kappa2", "1.0"],
                   ["--preset", "hyperbolic", "--gamma", "0.25"]):
        assert cli.main(argv + params) == 0
    assert len(calls) == len(emitted) == 2
    assert codegen._lowered.cache_info().currsize == 2


def test_structure_cache_stays_at_its_bound():
    bound = codegen._lowered.cache_info().maxsize
    chain = Q1
    for _ in range(bound + 5):                  # one new structure each time
        chain = chain * Q2 + P1
        assert _compiles(chain)
        assert codegen._lowered.cache_info().currsize <= bound
    assert codegen._lowered.cache_info().currsize == bound


# -- the graph evaluator -------------------------------------------------------

_FORMS = {
    "ob + 2": lambda x: x + 2, "2 + ob": lambda x: 2 + x,
    "ob - 2": lambda x: x - 2, "2 - ob": lambda x: 2 - x,
    "2 * ob": lambda x: 2 * x, "ob / 2": lambda x: x / 2,
    "2 / ob": lambda x: 2 / x, "ob ** 3": lambda x: x ** 3,
    "-ob": lambda x: -x, "ob * ob": lambda x: x * x,
}
_UNARY = ("exp", "log", "sqrt", "sin", "cos", "sinh", "cosh", "sinhc", "expm1c")
_KAPPA = ("ckappa", "skappa", "tkappa", "cotkappa")


# Each case builds its expression from a module's functions: phase's lifted
# ones on an observable, kernel's on a float or a dual.
_CASES = ([(name, lambda lib, x, form=form: form(x)) for name, form in _FORMS.items()]
          + [(name, lambda lib, x, name=name: getattr(lib, name)(x)) for name in _UNARY]
          + [(f"{name}({kappa})", lambda lib, x, name=name, kappa=kappa:
              getattr(lib, name)(kappa, x)) for name in _KAPPA for kappa in (0.3, 0.0, -0.0)])


def _hex(x):
    """float.hex of a float, or of a dual's value and partials."""
    if isinstance(x, kernel.KScalar):
        return [float.hex(x.val)] + [float.hex(d) for d in x.d]
    return float.hex(x)


@pytest.mark.parametrize("case", [c for _, c in _CASES], ids=[n for n, _ in _CASES])
def test_evaluator_applies_the_operations_the_expression_applies(case):
    """Each operator form and lifted function, evaluated from the graph on
    floats and on duals, gives bit for bit what the same expression gives
    when written with floats and KScalars."""
    ob = case(phase, 0.5 * Q1 + P2)
    s = (0.6, 0.0, 0.0, 0.0, 0.5, 0.0)
    for coords in (s, kernel.seeded(s)):
        assert _hex(ob.fn(*coords)) == _hex(case(kernel, 0.5 * coords[0] + coords[4]))


def test_deep_graph_evaluates_on_floats_and_duals_and_compiles():
    """A 3,000-term sum: the evaluator and the lowering walk iteratively."""
    ob, ref = Q1, 0.6
    s = (0.6, 0.0, 0.0, 0.0, 0.5, 0.0)
    for k in range(3000):
        ob = ob + (k % 7) * P2
        ref = ref + 0.5 * (k % 7)
    assert ob.fn(*s) == ob(s) == ref
    val, g = _dual(ob).value_and_gradient(s)
    assert val == ref and np.array_equal(g, [1.0, 0, 0, 0, sum(k % 7 for k in range(3000)), 0])
    assert _compiles(ob)
    got = ob.value_and_gradient(s)
    assert got[0] == val and np.array_equal(got[1], g)


def test_opaque_leaf_joins_a_graph_and_a_mixed_set_compiles_nothing(monkeypatch):
    opaque = Observable(lambda *s: s[0] * s[4])
    ob = opaque + Q1
    s = PhaseState.beltrami(0.6, 0.2, -0.3, 0.1, 0.5, 0.7)
    (v1, g1), (v2, g2) = opaque.value_and_gradient(s), Q1.value_and_gradient(s)
    val, g = ob.value_and_gradient(s)
    assert ob(s) == val == v1 + v2 and np.array_equal(g, g1 + g2)
    assert not _compiles(ob)

    pure = [Q1 * P2, exp(Q2) + P3, Q1 * Q1]
    table = [coalgebra.Identity("pure", pure[0], pure[1], rhs=pure[2]),
             coalgebra.Identity("mixed", ob, rhs=ob)]
    want = _reference_run_table(table, sample_beltrami, 5, 1)
    calls = []
    real = codegen.compile_roots
    monkeypatch.setattr(codegen, "compile_roots",
                        lambda roots, grads, binding=None: calls.append((roots, grads))
                        or real(roots, grads, binding))
    report = coalgebra.run_table("t", table, sample_beltrami, 5, 1)
    assert [(r.max_residual, r.worst_point) for r in report.results] == want
    # The graphs and the opaque leaf make one root set, which builds no
    # compiled function: every observable takes the dual path.
    # Only the bracket's operands are asked for partials.
    (roots, grads), = calls
    assert set(roots) == {p.node for p in pure} | {ob._node}
    assert {nd for nd, g in zip(roots, grads) if g} == {pure[0].node, pure[1].node}
    assert real(roots, grads) is None and real([p.node for p in pure], (True,) * 3) is not None


# -- values-only mode ------------------------------------------------------------

def _gradient(roots):
    f = codegen.compile_roots([r.node for r in roots], [True] * len(roots))
    assert f is not None
    return f


def _values_only(roots):
    f = codegen.compile_roots([r.node for r in roots], [False] * len(roots))
    assert f is not None
    return f


def test_values_only_mode_matches_the_evaluator_bit_for_bit():
    """Every operator form (division by a constant and by an observable,
    pow), unary and kappa function (labels 0.3, 0.0, -0.0 and int 0), and
    sinhc/expm1c on either side of their series switch, compiled as the
    roots of one values-only function: each value is the evaluator's, bit
    for bit.  The gradient mode's value is the same: at x = 0.8, x / 10 is
    the true quotient in both (x * (1 / 10) would differ in the last bit)."""
    x = 0.5 * Q1 + P2
    u = Q1 * P3
    roots = ([case(phase, x) for _, case in _CASES]
             + [getattr(phase, name)(0, x) for name in _KAPPA]
             + [x / 10, Q1 / P2, phase.sinhc(u), phase.expm1c(u)])
    f = _values_only(roots)
    points = [(0.6, 0.0, 0.0, 0.0, 0.5, 0.0)]
    points += [(0.5, 0.0, 0.0, 0.0, 0.7, w / 0.5) for w in (4e-6, -4e-6, 2e-5, -2e-5, 0.3, 0.6)]
    for s in points:
        got = f(*s)
        assert len(got) == len(roots)
        assert [float.hex(v) for v in got] == [float.hex(ob(s)) for ob in roots], s
    grad = _gradient(roots[-4:-3])
    assert grad(*points[0])[0] == f(*points[0])[-4] == 0.8 / 10 != 0.8 * (1 / 10)


def test_each_mask_lowers_and_binds_its_roots_once(monkeypatch):
    """The gradient, mixed and values-only functions of the same roots are
    three entries of the bound-function cache, keyed by roots and mask: one
    lowering walk and one code object each, and a repeated call under any
    mask returns its function from the cache.  The values-only code of a
    ratio raises at its pole as the evaluator does."""
    roots = [(Q1 * P2 + 1) / 3, phase.tkappa(0.4, Q2)]
    nodes = [r.node for r in roots]
    (ins, outs), consts = codegen._lower(nodes, (False, False))
    assert [op for op, *_ in ins].count("div") == 1 and len(outs) == 2
    walks = []
    real = codegen._lower
    monkeypatch.setattr(codegen, "_lower", lambda *a: walks.append(a) or real(*a))
    _clear_code_caches()
    grad = codegen.compile_roots(nodes, (True, True))
    values = codegen.compile_roots(nodes, (False, False))
    mixed = codegen.compile_roots(nodes, [False, True])
    assert codegen.compile_roots(nodes, (False, False)) is values
    assert codegen.compile_roots(nodes, (True, True)) is grad and values is not grad
    assert codegen.compile_roots(nodes, (False, True)) is mixed
    assert len(walks) == 3 and codegen._lowered.cache_info().currsize == 3
    assert codegen._bound.cache_info().currsize == 3
    s = (0.6, 0.3, 0.0, 0.0, 0.5, 0.0)
    assert values(*s) == grad(*s)[::7] == tuple(ob(s) for ob in roots)
    assert mixed(*s) == grad(*s)[:1] + grad(*s)[7:]
    with pytest.raises(kernel.PoleError):
        _values_only(roots[1:])(0.0, math.pi / 2 / math.sqrt(0.4), 0.0, 0.0, 0.0, 0.0)


def _ratio_poles(name, kappa):
    """The poles of tkappa (C = 0) or cotkappa (S = 0) in [0, pi / sqrt(kappa)]."""
    if name == "cotkappa":
        return [0.0] + ([math.pi / math.sqrt(kappa)] if kappa > 0 else [])
    return [math.pi / 2 / math.sqrt(kappa)] if kappa > 0 else []


@pytest.mark.parametrize("kappa", [0.4, 0.0, -0.4], ids=repr)
@pytest.mark.parametrize("kfn", [tkappa, cotkappa], ids=lambda f: f.__name__)
def test_values_only_ratio_is_the_kernel_ratio_and_raises_at_its_pole(kfn, kappa, monkeypatch):
    """Values-only code writes a ratio's quotient out: off a pole, on either
    side of it and just outside ``_POLE_EPS`` of ``cotkappa``'s pole at 0,
    it gives the kernel function's bits without calling the rule; within
    ``_POLE_EPS`` of a pole it calls the rule, which raises the kernel's
    ``PoleError``."""
    name = kfn.__name__
    ref, rule, calls = getattr(kernel, name), kernel.KAPPA_RULES[name], []
    monkeypatch.setitem(codegen._BASE_GLOBALS, f"{name}_rule",
                        lambda *a: calls.append(a) or rule(*a))
    codegen._bound.cache_clear()        # bind again, on the counting rule
    try:
        f = _values_only([kfn(kappa, Q2) + P1])
    finally:        # no later call may run the counting rule
        codegen._bound.cache_clear()
    poles = _ratio_poles(name, kappa)
    near = [p + d for p in poles for d in (-1e-3, -1e-9, 1e-9, 1e-3)]
    if name == "cotkappa":
        near += [-2 * kernel._POLE_EPS, 2 * kernel._POLE_EPS]
    for x in [0.3, -0.7, 1.9, *near]:
        want = ref(kappa, x) + 0.5
        assert float.hex(f(0.0, x, 0.0, 0.5, 0.0, 0.0)[0]) == float.hex(want), x
    assert calls == []
    at_pole = poles + ([0.5 * kernel._POLE_EPS, -0.5 * kernel._POLE_EPS]
                       if name == "cotkappa" else [])
    for x in at_pole:
        with pytest.raises(kernel.PoleError) as want:
            ref(kappa, x)
        with pytest.raises(kernel.PoleError) as got:
            f(0.0, x, 0.0, 0.5, 0.0, 0.0)
        assert str(got.value) == str(want.value)
    assert len(calls) == len(at_pole)


# -- every observable set the library builds compiles -----------------------------
#
# The dual path is the fallback of a root set that does not compile; these
# tests pin that none of the library's own sets needs it.

@pytest.mark.parametrize("family", _NAMED, ids=lambda f: f.value)
def test_every_hamiltonian_and_monitor_compiles(family):
    """On every preset and compatible chart the Hamiltonian compiles in
    gradient mode, and each monitor (the constants and H) in values mode."""
    for preset in sorted(PRESETS):
        spec = HamiltonianSpec(family, SpaceParams.preset(preset, gamma=0.5))
        for chart in spec.compatible_charts():
            assert _compiles(hamiltonian(spec, chart)), (preset, chart)
            for name, ob in _observables(spec, chart).items():
                assert _compiles(ob, grads=False), (preset, chart, name)


_SUITE_PARAMS = ([SpaceParams.preset(p, gamma=0.5) for p in sorted(PRESETS)]
                 + [SpaceParams(z, kappa2, 0.5) for z in (0.5, -0.5) for kappa2 in (1.0, -1.0)]
                 + [SpaceParams(0.3, 1.0, 0.5)])
_GENERATORS = (None, *sorted(cli._COALGEBRA_GENS), *sorted(cli._SO4_GENS))


@pytest.mark.parametrize("params", _SUITE_PARAMS, ids=lambda p: f"z={p.z},kappa2={p.kappa2}")
def test_both_verify_batches_compile_as_one_root_set_each(params, monkeypatch):
    """The Beltrami and the polar batch of ``verify --suite all``, built as
    the CLI builds them with no --perturb and with each generator, each
    compile whole as the one root set of their column plan."""
    batches = []
    monkeypatch.setattr(coalgebra, "run_tables",
                        lambda jobs, sampler, samples, seed: batches.append(jobs) or [])
    for perturb in _GENERATORS:
        batches.clear()
        cli._run_suites("all", params, 1, 0, perturb)
        assert len(batches) == 2
        for jobs in batches:
            batch = coalgebra._batch(jobs)
            columns = coalgebra._plan(tuple(batch)).columns
            assert codegen.compile_roots(columns.nodes, columns.grads, batch.binding) \
                is not None, (perturb, jobs[0][0])


@pytest.mark.parametrize("family", _NAMED, ids=lambda f: f.value)
def test_every_rank_observable_set_compiles(family):
    """C2, C2mid, C3 and H on the family's polar chart, and on kepler-cc
    each with one LRL component appended, compile as one root set."""
    lrl = ("L1", "L2", "L3") if family is Family.KEPLER_CC else ()
    for preset in sorted(PRESETS):
        spec = HamiltonianSpec(family, SpaceParams.preset(preset, gamma=0.5))
        consts = constants(spec, family.polar_chart)
        obs = [consts["C2"], consts["C2mid"], consts["C3"],
               hamiltonian(spec, family.polar_chart)]
        for extra in [[]] + [[consts[name]] for name in lrl]:
            assert phase.Columns(obs + extra).compiled is not None, (preset, extra)


def test_the_custom_hamiltonian_is_the_fallbacks_one_built_in_user():
    """A ``Family.CUSTOM`` Hamiltonian wraps user callables, so it does not
    compile: it is the one observable the library builds that takes the
    dual path."""
    spec = HamiltonianSpec(
        Family.CUSTOM, SpaceParams(0.1, 1.0, 0.4), f=kernel.exp,
        potential=lambda z, jm: -0.4 / kernel.sqrt(jm * kernel.expm1c(2.0 * z * jm)))
    h = hamiltonian(spec, Chart.BELTRAMI)
    assert not _compiles(h) and not _compiles(h, grads=False)


# -- gradient masks ---------------------------------------------------------------

def _hexes(values):
    return [float.hex(float(v)) for v in values]


def _verify_batches(params, perturb, monkeypatch):
    """(observables, sampler, binding) of each batch of ``verify --suite
    all``, the observables in the order of the batch's column plan, bound."""
    batches = []
    with monkeypatch.context() as m:
        m.setattr(coalgebra, "run_tables",
                  lambda jobs, sampler, samples, seed: batches.append((jobs, sampler)) or [])
        cli._run_suites("all", params, 1, 0, perturb)
    out = []
    for jobs, sampler in batches:
        batch = coalgebra._batch(jobs)
        obs = {id(o): o for ident in batch for o in (ident.f, ident.g, ident.rhs)
               if isinstance(o, Observable)}
        out.append(([phase.bound(o, batch.binding) for o in obs.values()], sampler,
                    batch.binding))
    return out


@pytest.mark.parametrize("preset, perturb", [(p, None) for p in sorted(PRESETS)]
                         + [("hyperbolic", "jplus"), ("hyperbolic", "j02")])
def test_every_mask_gives_the_all_true_functions_bits(preset, perturb, monkeypatch):
    """Seeded random masks over both batches of ``verify --suite all`` (and
    one --perturb table of each): at 50 states of the batch's own sampler,
    every root's value and every flagged root's six partials are the
    all-true function's bits.  The all-false function returns each
    observable's value (its own values-only code) and seeds no coordinate."""
    rng = np.random.default_rng(26)
    for obs, sampler, binding in _verify_batches(SpaceParams.preset(preset, gamma=0.5),
                                                 perturb, monkeypatch):
        nodes, n = [o.node for o in obs], len(obs)
        full = codegen.compile_roots(nodes, [True] * n, binding)
        none = codegen.compile_roots(nodes, [False] * n, binding)
        masked = [(m, codegen.compile_roots(nodes, m, binding))
                  for m in (rng.random(n) < p for p in (0.2, 0.5, 0.8))]
        assert all(_compiles(o, grads=False) for o in obs)
        for s in sampler(np.random.default_rng(rng.integers(2 ** 32)), n=50):
            want = full(*s.coords)
            assert len(want) == 7 * n
            for m, f in masked:
                assert _hexes(f(*s.coords)) == _hexes(
                    x for j in range(n) for x in want[7 * j:7 * j + (7 if m[j] else 1)])
            got = none(*s.coords)
            assert _hexes(got) == _hexes(want[::7]), s
            assert _hexes(got) == _hexes(o(s) for o in obs), s
        structure, _ = codegen._lower(nodes, [False] * n)
        source = codegen._Emitter().body(structure, False)
        assert [line for line in source if " = float(" in line] == []


def test_an_unflagged_root_gets_no_partial_graph(monkeypatch):
    """exp(q1) is flagged and shared with an unflagged root exp(q1) * p2:
    only exp(q1) gets partial graphs, whose d/dq1 is exp(q1)'s own node,
    so the code computes exp once and no partial of the product; the
    product, read once, is written into the return statement."""
    e = exp(Q1)
    asked = []
    real = codegen._partials
    monkeypatch.setattr(codegen, "_partials", lambda roots: asked.append(roots) or real(roots))
    structure, _ = codegen._lower([(e * P2).node, e.node], (False, True))
    assert asked == [[e.node]]
    assert codegen._Emitter().body(structure, True) == [
        "x0 = float(x0)", "t0 = exp(x0)", "x4 = float(x4)",
        "return ((t0 * x4), t0, t0, 0.0, 0.0, 0.0, 0.0, 0.0, )"]


@pytest.mark.parametrize("grads", [(True, False, False, True), (False, True, True, False)])
def test_dual_fallback_under_a_mask_gives_the_dual_paths_values_and_partials(grads):
    """A column set holding an opaque ``Observable(fn)`` takes the dual path
    for every observable: under a mask it gives each one's dual value and
    each flagged one's dual partials, as one contiguous block.  A state on
    the wrong chart raises before any observable is evaluated."""
    calls = []
    opaque = Observable(lambda *x: calls.append(x) or x[0] * kernel.exp(x[4]),
                        chart=Chart.BELTRAMI)
    obs = [Q1 * P2, opaque, exp(Q2) + P3, Q1 * Q1 / P1]
    cols = phase.Columns(obs, grads)
    assert cols.compiled is None
    states = sample_beltrami(np.random.default_rng(4), n=20)
    values, partials = cols(states)
    assert values.shape == (20, 4) and partials.shape == (20, sum(grads), 6)
    assert partials.flags.c_contiguous
    for i, s in enumerate(states):
        ref = [_dual(ob).value_and_gradient(s) for ob in obs]
        assert _hexes(values[i]) == _hexes(v for v, _ in ref)
        assert _hexes(partials[i].ravel()) == _hexes(
            x for (_, g), flag in zip(ref, grads) if flag for x in g)
    calls.clear()
    with pytest.raises(phase.ChartMismatchError):
        cols(states[:3] + [PhaseState.polar_constant(1.1, 1.2, 0.4, 0.2, 0.4, 0.9)])
    assert calls == []


def test_dual_fallback_evaluates_an_unflagged_root_on_floats(monkeypatch):
    """Under the all-false mask a column set holding an opaque leaf runs
    every observable on floats: it builds no KScalar, and its values are
    the all-true set's bit for bit."""
    opaque = Observable(lambda *x: x[0] * kernel.exp(x[4]))
    obs = [Q1 * P2, opaque, exp(Q2) + P3, Q1 * Q1 / P1]
    states = sample_beltrami(np.random.default_rng(5), n=10)
    want, _ = phase.Columns(obs)(states)
    built = []
    real = kernel.KScalar.__init__
    monkeypatch.setattr(kernel.KScalar, "__init__",
                        lambda self, *a: built.append(a) or real(self, *a))
    cols = phase.Columns(obs, [False] * len(obs))
    assert cols.compiled is None
    values, partials = cols(states)
    assert built == [] and partials.shape == (10, 0, 6)
    assert _hexes(values.ravel()) == _hexes(want.ravel())


def test_second_partials_of_the_partial_graphs_are_the_gradients_difference():
    """``_partials`` applied to the Kepler-CC polar-constant H's partial
    graphs gives its Hessian: a central difference of the compiled gradient
    with step h is within 10 h**2 of it at two steps (the error is 3.6 h**2
    here), and the mixed partials are symmetric to rounding."""
    params = SpaceParams.preset("spherical", 0.5)
    h = hamiltonian(HamiltonianSpec(Family.KEPLER_CC, params), Chart.POLAR_CONSTANT)
    point = (1.1, 1.2, 0.4, 0.2, 0.4, 0.9)
    first, = codegen._partials([h.node])
    second = iter(codegen._partials([p for p in first if p is not None]))
    hess = np.array([[0.0 if q is None else codegen.evaluator(q, h.binding)(*point)
                      for q in (codegen._NONE if p is None else next(second))]
                     for p in first])
    grad = codegen.compile_roots([h.node], (True,), h.binding)
    for step in (1e-3, 5e-4):
        for j in range(6):
            up, dn = list(point), list(point)
            up[j] += step
            dn[j] -= step
            fd = (np.array(grad(*up)[1:]) - np.array(grad(*dn)[1:])) / (2 * step)
            assert np.all(np.abs(fd - hess[:, j]) <= 10 * step ** 2), (step, j)
    assert np.count_nonzero(hess) > 6
    assert np.allclose(hess, hess.T, rtol=0, atol=1e-14)


def test_a_squares_partial_builds_its_product_once():
    """The partial of ``s * s`` is ``s·s' + s·s'`` over one product node, so
    the compiled code multiplies once where it multiplied twice."""
    s = Q1 * P1
    lanes, = codegen._partials([(s * s).node])
    for lane in (lanes[0], lanes[3]):
        assert lane.op == "add" and lane.kids[0] is lane.kids[1]
        assert lane.kids[0].op == "mul"


_ELEMENTARY = ("exp", "log", "sqrt", "sin", "cos", "sinh", "cosh", "sinhc", "expm1c",
               "skappa", "ckappa", "tkappa", "cotkappa")


def test_phase_defines_no_function_of_its_own():
    """One function per name: phase re-exports kernel's elementary functions."""
    assert all(getattr(phase, name) is getattr(kernel, name) for name in _ELEMENTARY)
    assert not hasattr(phase, "_lift")


@pytest.mark.parametrize("build, op, kids, fn, on_floats", [
    (lambda: kernel.skappa(0.3, Q1), "kfn", lambda: (codegen.Node("const", param=0.3), Q1.node),
     kernel.skappa, lambda z, q1, q2: kernel.skappa(0.3, q1)),
    (lambda: kernel.tkappa(phase.Z, Q2), "kfn", lambda: (phase.Z.node, Q2.node),
     kernel.tkappa, lambda z, q1, q2: kernel.tkappa(z, q2)),
    (lambda: kernel.sinhc(phase.Z * Q1 * Q1), "fn", lambda: ((phase.Z * Q1 * Q1).node,),
     kernel.sinhc, lambda z, q1, q2: kernel.sinhc(z * q1 * q1)),
], ids=["skappa", "tkappa", "sinhc"])
def test_a_kernel_function_of_an_observable_is_its_graph_node(build, op, kids, fn, on_floats):
    """kernel's functions take an observable as well as a float or a dual:
    the result is the ``fn`` or ``kfn`` node over the label's and the
    argument's nodes, which compiles, and whose value is the float
    function's, bit for bit."""
    ob = build()
    assert isinstance(ob, Observable) and ob.node is codegen.Node(op, kids(), fn)
    ob = phase.bound(ob, (0.3, None, None))
    assert _compiles(ob) and _compiles(ob, False)
    for s in [(0.7, 1.1, 0.2, 0.4, -0.3, 0.9), (-1.3, 0.4, 0.0, 1.0, 0.5, -0.2)]:
        assert float.hex(ob(s)) == float.hex(on_floats(0.3, *s[:2]))


@pytest.mark.parametrize("what, build", [
    ("exponent", lambda o: Q1 ** o),
    ("curvature label", lambda o: skappa(o, Q1)),
    ("curvature label", lambda o: cotkappa(o, Q1 + P2)),
], ids=["pow", "skappa", "cotkappa"])
@pytest.mark.parametrize("operand", [P1, P1 * phase.Z], ids=["p1", "p1*z"])
def test_an_exponent_or_label_that_reads_the_coordinates_raises_when_built(what, build, operand):
    """An exponent or a curvature label is a coordinate-free operand with no
    partials of its own: one that reads the coordinates would drop them
    (d/dp1 of q1 ** p1 would read 0), so building it raises, naming it.  A
    parameter expression builds."""
    with pytest.raises(TypeError, match=re.escape(f"the {what} {operand!r} depends on")):
        build(operand)
    assert _compiles(phase.bound(build(-phase.Z), (0.5, None, None)))


@pytest.mark.parametrize("build", [lambda p, x: p * x, lambda p, x: x ** p,
                                   lambda p, x: skappa(p, x)], ids=["mul", "pow", "skappa"])
def test_a_bound_exponent_or_label_joins_its_binding(build):
    """A bound parameter expression is an operand like any other: as a
    factor, an exponent or a curvature label its binding joins the
    result's, and one that differs from the other operand's raises."""
    nz = phase.bound(-phase.Z, (0.5, None, None))
    s = (1.2, 0.0, 0.0, 0.0, 0.0, 0.0)
    ob = build(nz, Q1)
    assert ob.binding == (0.5, None, None) and ob(s) == build(-0.5, Q1)(s)
    with pytest.raises(phase.ParameterMismatchError, match="bound to z = "):
        build(nz, phase.bound(Q1, (0.25, None, None)))


# Formulas over a coordinate-free operand p (a parameter expression, or the
# float it stands for) and an observable x.
_P_FORMS = {
    "p + x": lambda p, x: p + x, "x + p": lambda p, x: x + p,
    "p - x": lambda p, x: p - x, "x - p": lambda p, x: x - p,
    "p * x": lambda p, x: p * x, "x * p": lambda p, x: x * p,
    "p / x": lambda p, x: p / x, "x / p": lambda p, x: x / p,
    "p ** 2 * x": lambda p, x: p ** 2 * x, "(x * p) ** 2": lambda p, x: (x * p) ** 2,
    **{f"{name}(p, x)": getattr(phase, name) for name in ("skappa", "ckappa", "tkappa", "cotkappa")},
}
# Parameter expressions, as functions of (z, kappa2, gamma).
_P_EXPRESSIONS = {"z": lambda z, k, g: z, "-z": lambda z, k, g: -z,
                  "kappa2 * z": lambda z, k, g: k * z, "z - gamma": lambda z, k, g: z - g}


def _bits_or_raised(ob, s):
    """The value and gradient as hex strings, or the class of what raises."""
    try:
        val, g = ob.value_and_gradient(s)
    except Exception as exc:        # the class is what is compared
        return type(exc)
    return [float.hex(v) for v in (val, *g)]


@pytest.mark.parametrize("form", sorted(_P_FORMS))
@pytest.mark.parametrize("z", [0.3, -0.0, 0.0, -1.0], ids=repr)
def test_a_graph_over_the_parameter_leaves_is_the_float_graphs_bits(z, form):
    """Built over Z, KAPPA2 and GAMMA and bound, or built on the floats they
    stand for, a formula gives one value and gradient, bit for bit, in
    compiled code and on duals alike, or raises the same class (x / z at
    z = 0)."""
    rng = np.random.default_rng(32)
    x = Q1 * P2 + Q2
    for name, expr in _P_EXPRESSIONS.items():
        binding = (z, float(rng.uniform(0.5, 1.5)), float(rng.uniform(-1.0, 1.0)))
        over_leaves = phase.bound(_P_FORMS[form](expr(phase.Z, phase.KAPPA2, phase.GAMMA), x),
                                  binding)
        on_floats = _P_FORMS[form](expr(*binding), x)
        for _ in range(8):
            s = tuple(rng.uniform(-1.5, 1.5, 6))
            for path in (lambda ob: ob, _dual):
                assert (_bits_or_raised(path(over_leaves), s)
                        == _bits_or_raised(path(on_floats), s)), (name, s)


def test_a_parameter_expression_used_twice_takes_one_constant_slot():
    """A parameter expression is one node, also when it is written out at
    each use, so its uses (as an operand and as the label of two curvature
    functions) read one constant slot, and the two functions one (S, C)
    pair."""
    nz = -phase.Z
    for ob in (nz * Q1 + ckappa(nz, Q2) * skappa(nz, Q2),
               -phase.Z * Q1 + ckappa(-phase.Z, Q2) * skappa(-phase.Z, Q2)):
        (ins, _), bind = codegen._lower([ob.node], (False,))
        assert bind((0.3, None, None)) == [-0.3]
        assert [op for op, *_ in ins].count("pair") == 1


def test_verify_all_binds_one_constant_per_parameter_expression(monkeypatch):
    """The two batches of ``verify --suite all`` at the spherical preset bind
    7 and 11 constants over 462 and 352 instructions (17 and 26 over 590
    and 421 when an expression built twice was two nodes, 32 and 46 when
    each use of a parameter expression took its own slot)."""
    _clear_code_caches()
    sizes, real = [], codegen._lower

    def spy(roots, grads):
        lowered = real(roots, grads)
        sizes.append((len(lowered[0][0]), len(lowered[1](params.binding))))
        return lowered

    monkeypatch.setattr(codegen, "_lower", spy)
    params = SpaceParams.preset("spherical", 0.5)
    cli._run_suites("all", params, 1, 0, None)
    assert sizes == [(462, 7), (352, 11)]
