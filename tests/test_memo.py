"""The process-wide memos: observable builders by parameter bits, lowering by root nodes."""

import contextlib
import importlib.util
import inspect
import io
import json
import os
import struct
import subprocess
import sys

import pytest

from curvkepler import cli, codegen, coalgebra, kernel, phase, spaces, symmetry
from curvkepler.phase import Chart
from curvkepler.spaces import Family, HamiltonianSpec, SpaceParams

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MEMOS = (coalgebra.one_site, coalgebra.coproduct_join, coalgebra.three_site,
         coalgebra._sinhc_exp_factors, coalgebra.three_site_closed_form,
         coalgebra.casimirs, coalgebra._perturbed, coalgebra.sl2z_table,
         coalgebra._casimir_table, symmetry.so4_generators, symmetry.lrl,
         symmetry._so4_table, symmetry._lrl_table, symmetry.constants,
         spaces.hamiltonian)


def test_memo_keys_tell_apart_what_compares_equal():
    """0.0, -0.0 and the int 0 compare equal, and NaNs compare unequal to
    everything; the keys go by type and bits instead."""
    nan2 = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000002))[0]
    keys = [phase._memo_key(v) for v in (0.0, -0.0, 0, False, float("nan"), nan2)]
    assert len(set(keys)) == 6
    assert phase._memo_key(float("nan")) == phase._memo_key(float("nan"))
    assert coalgebra.casimirs(0.0) is coalgebra.casimirs(0.0)
    assert len({id(coalgebra.casimirs(z)) for z in (0.0, -0.0, 0)}) == 3
    assert phase._memo_key(SpaceParams(0.0, 1.0)) != phase._memo_key(SpaceParams(0, 1.0))


def test_a_custom_spec_bypasses_the_cache():
    spec = HamiltonianSpec(Family.CUSTOM, SpaceParams(0.1, 1.0, 0.4), f=kernel.exp,
                           potential=lambda z, jm: -0.4 / kernel.sqrt(jm))
    size = len(spaces.hamiltonian.cache)
    first = spaces.hamiltonian(spec, Chart.BELTRAMI)
    assert spaces.hamiltonian(spec, Chart.BELTRAMI)._node is not first._node
    assert len(spaces.hamiltonian.cache) == size


_PRELUDE = "from curvkepler import cli\nfrom curvkepler.spaces import SpaceParams\n"
_CASES = (
    "cli.main(['verify', '--suite', 'all', '--z', '0.0', '--kappa2', '1', '--samples', '5'])",
    "cli.main(['verify', '--suite', 'all', '--z', '-0.0', '--kappa2', '1', '--samples', '5'])",
    "print([r.to_json() for r in cli._run_suites('all', SpaceParams(0, 1, 0.5), 5, 0, None)])",
    "print([r.to_json() for r in cli._run_suites('all', SpaceParams(0.0, 1, 0.5), 5, 0, None)])",
)


def _in_this_process(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_PRELUDE + case, {})
    return out.getvalue()


def _in_a_fresh_process(case):
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run([sys.executable, "-c", _PRELUDE + case], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_signed_and_integer_zeros_give_what_a_fresh_process_gives():
    """z = 0.0, then -0.0, then the int 0 and 0.0 again, in one process:
    each output is byte for byte that of the same call in a new process."""
    here = [_in_this_process(case) for case in _CASES]
    assert len(set(here)) == len(_CASES)
    assert here == [_in_a_fresh_process(case) for case in _CASES]


def test_returned_constants_and_hamiltonians_are_fresh(monkeypatch):
    """Callers share the graphs, never the dict or the observables; a memo
    hit's copy finds the code its graph already has and lowers nothing."""
    spec = HamiltonianSpec(Family.KEPLER_CC, SpaceParams.preset("spherical", 0.5))
    chart = Chart.POLAR_CONSTANT
    s = phase.PhaseState.polar_constant(1.1, 1.2, 0.4, 0.2, 0.4, 0.9)
    first = symmetry.constants(spec, chart)
    names = list(first)
    h = spaces.hamiltonian(spec, chart)
    want = [(ob(s), ob.gradient(s).tolist()) for ob in (first["C3"], h)]
    del first["L1"]
    first["C2"] = phase.Q1

    lowered = []
    real = codegen._lower
    monkeypatch.setattr(codegen, "_lower", lambda roots: lowered.append(roots) or real(roots))
    again = symmetry.constants(spec, chart)
    assert list(again) == names and again["C2"].name == "C2"
    assert again["C3"] is not first["C3"] and again["C3"].node is first["C3"].node
    h2 = spaces.hamiltonian(spec, chart)
    assert h2 is not h and h2.node is h.node and h2.name == h.name and h2.chart is chart
    assert [(ob(s), ob.gradient(s).tolist()) for ob in (again["C3"], h2)] == want
    assert lowered == []


def test_every_memo_stays_at_its_bound():
    """More new z values than any bound: every builder memo, the cache of
    bound compiled functions and the cache of table plans fill up and stay
    there."""
    bound = codegen._bound.cache_info().maxsize
    plans = coalgebra._plan.cache_info().maxsize
    steps = max(phase._MEMO_SIZE, bound // 2, plans // 2) + 5   # verify all binds 2 batches
    for i in range(steps):
        params = SpaceParams(0.01 + i / 1024, 1.0, 0.5)  # z values no other test uses
        cli._run_suites("all", params, 1, 0, None)
        symmetry.constants(HamiltonianSpec(Family.FREE_CC, params), Chart.POLAR_CONSTANT)
        assert all(len(m.cache) <= phase._MEMO_SIZE for m in MEMOS)
        assert codegen._bound.cache_info().currsize <= bound
        assert coalgebra._plan.cache_info().currsize <= plans
    assert [len(m.cache) for m in MEMOS] == [phase._MEMO_SIZE] * len(MEMOS)
    assert codegen._bound.cache_info().currsize == bound
    assert coalgebra._plan.cache_info().currsize == plans


def test_the_bound_function_cache_stays_at_its_bound():
    """More new root sets than the cache of bound functions holds: it fills
    up and stays there, and a repeated root set gets its function back."""
    bound = codegen._bound.cache_info().maxsize
    for i in range(bound + 5):
        roots = [(phase.Q1 * (1.0 + i) + phase.P2).node]
        f = codegen.compile_roots(roots, (True,))
        assert f(1.0, 0, 0, 0, 2.0, 0)[0] == 1.0 + i + 2.0
        assert codegen.compile_roots(roots, (True,)) is f
        assert codegen._bound.cache_info().currsize <= bound
    assert codegen._bound.cache_info().currsize == bound


def test_the_table_plan_cache_stays_at_its_bound():
    """More new tables than the cache of column plans holds: it fills up and
    stays there, and every report is still the one a fresh plan gives."""
    bound = coalgebra._plan.cache_info().maxsize
    jm = coalgebra.one_site(0.25).jminus
    first = None
    for i in range(bound + 5):
        table = [coalgebra.Identity("value", jm * (1.0 + i), rhs=jm * (1.0 + i))]
        report = coalgebra.run_table("t", table, coalgebra.sample_beltrami, 2, 5)
        assert report.results[0].max_residual == 0.0
        first = first or report.results[0].worst_point
        assert report.results[0].worst_point == first
        assert coalgebra._plan.cache_info().currsize <= bound
    assert coalgebra._plan.cache_info().currsize == bound


def test_a_perturbed_table_and_a_new_z_get_their_own_plans():
    """verify --suite all keeps one plan per batch of job tables: a repeated
    call finds both, a --perturb control misses for its own batch only, and
    a new z misses for both."""
    params = SpaceParams(0.0237, 1.0, 0.5)              # a z no other test uses

    def misses_and_hits(perturb, p=params):
        before = coalgebra._plan.cache_info()
        reports = cli._run_suites("all", p, 2, 0, perturb)
        after = coalgebra._plan.cache_info()
        return (after.misses - before.misses, after.hits - before.hits), reports

    assert misses_and_hits(None)[0] == (2, 0)
    (counts, healthy) = misses_and_hits(None)
    assert counts == (0, 2)
    for perturb in ("jplus", "j02"):
        counts, perturbed = misses_and_hits(perturb)
        assert counts == (1, 1)
        assert max(r.max_residual for r in perturbed) > 1e-3 > max(
            r.max_residual for r in healthy)
        assert misses_and_hits(perturb)[0] == (0, 2)
    assert misses_and_hits(None, SpaceParams(0.0238, 1.0, 0.5))[0] == (2, 0)
    tables = [job[1] for job in (coalgebra._casimirs_job(params.z, None),
                                 coalgebra._casimirs_job(params.z, "jplus"))]
    plans = [coalgebra._plan(tuple(t)) for t in tables]
    assert plans[0] is not plans[1]


def test_identities_are_equal_only_to_themselves():
    """Two identities with equal fields are two identities: a table's tuple
    compares and hashes by the objects it holds."""
    jm = coalgebra.one_site(0.25).jminus
    a, b = (coalgebra.Identity("value", jm, rhs=jm) for _ in range(2))
    assert a == a and a != b and len({a, b}) == 2
    assert hash(a) == object.__hash__(a)
    assert (a, b) == (a, b) and (a, b) != (a, a)


def test_a_table_keys_its_plan_by_its_identity_objects():
    """The same identities in the same order, as a list or a tuple, find one
    plan; equal identities that are other objects, or the same ones in
    another order, get their own."""
    site = coalgebra.one_site(0.25)

    def table():
        return [coalgebra.Identity("jm", site.jminus, rhs=site.jminus),
                coalgebra.Identity("jp", site.jplus, rhs=site.jplus)]

    first = table()
    plan = coalgebra._plan(tuple(first))
    assert coalgebra._plan(tuple(list(first))) is plan
    assert coalgebra._plan(tuple(table())) is not plan
    assert coalgebra._plan(tuple(reversed(first))) is not plan
    report = coalgebra.run_table("t", first, coalgebra.sample_beltrami, 2, 5)
    assert [r.max_residual for r in report.results] == [0.0, 0.0]
    assert coalgebra._plan(tuple(first)) is plan


def test_the_report_writer_layout_cache_stays_at_its_bound():
    """Dicts with more key sets than the layout cache holds: it fills up,
    stays there, and every text is still json.dumps's."""
    bound = cli._dict_layout.cache_info().maxsize
    for i in range(bound + 5):
        doc = {"outer": {f"k{i}": [1.0], "a": None}}
        assert cli._json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)
        assert cli._dict_layout.cache_info().currsize <= bound
    assert cli._dict_layout.cache_info().currsize == bound


def _counted_builds(monkeypatch):
    """Lowering walks and Node constructions made from here on."""
    walks, nodes = [], []
    real_lower, real_init = codegen._lower, codegen.Node.__init__
    monkeypatch.setattr(codegen, "_lower", lambda *a: walks.append(a) or real_lower(*a))

    def init(self, *args, **kwargs):
        nodes.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(codegen.Node, "__init__", init)
    return walks, nodes


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "--z", "0.35", "--kappa2", "-1", "--samples", "3"],
    ["verify", "--suite", "sl2z", "--z", "0.35", "--samples", "3", "--perturb", "jplus"],
    ["rank", "--family", "kepler-cc", "--preset", "hyperbolic", "--gamma", "0.4",
     "--samples", "3", "--append-lrl", "L2"],
    ["simulate", "--family", "kepler-nc", "--z", "0.35", "--kappa2", "1", "--gamma", "0.2",
     "--state", "1.0,1.2,0.4,0.15,0.4,0.8", "--t-end", "0.2"],
], ids=["verify-all", "verify-perturbed", "rank", "simulate"])
def test_a_repeated_call_builds_and_lowers_nothing(argv, monkeypatch, tmp_path):
    if argv[0] == "simulate":
        argv = argv + ["--csv", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json")]
    else:
        argv = argv + ["--out", str(tmp_path / "out.json")]
    code = cli.main(argv)
    walks, nodes = _counted_builds(monkeypatch)
    assert cli.main(argv) == code
    assert walks == [] and nodes == []


def test_warm_verify_all_evaluates_few_sinhc_per_sample(monkeypatch, tmp_path):
    """one_site, the closed forms and the Casimirs share one sinhc(z q_i^2)
    node per site: 12 calls per sample (22 when each built its own)."""
    samples = 100
    argv = ["verify", "--suite", "all", "--preset", "spherical", "--samples", str(samples),
            "--out", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0
    calls = []
    real = kernel.RULES["sinhc"]
    # Compiled code reads its rules from the shared base globals when it is
    # bound, so the counting rule goes there and the warm builders' graphs
    # are bound again.
    monkeypatch.setitem(codegen._BASE_GLOBALS, "sinhc_rule", lambda v: calls.append(v) or real(v))
    codegen._bound.cache_clear()
    coalgebra._plan.cache_clear()
    try:
        assert cli.main(argv) == 0
    finally:        # no later call may run the counting rule
        codegen._bound.cache_clear()
        coalgebra._plan.cache_clear()
    assert 0 < len(calls) <= 12 * samples


def test_a_call_is_keyed_by_its_bound_arguments(monkeypatch):
    """Defaults applied, positional or by name: one entry per call, and the
    names and defaults are read once, when the builder is decorated."""
    z = 0.0123                                          # a z no other test uses
    first = coalgebra.one_site(z)
    params = SpaceParams(z, 1.0)
    gens = symmetry.so4_generators(params)
    size = len(coalgebra.one_site.cache)
    monkeypatch.setattr(inspect, "signature", None)     # a hit needs no signature
    for again in (coalgebra.one_site(z, 1), coalgebra.one_site(z, site=1),
                  coalgebra.one_site(site=1, z=z)):
        assert again is first
    assert len(coalgebra.one_site.cache) == size
    assert symmetry.so4_generators(params, None) is gens
    assert symmetry.so4_generators(params, perturb=None) is gens


@pytest.mark.parametrize("args, kwargs", [((), {}), ((0.1, 1, 2), {}), ((0.1,), {"sit": 1}),
                                          ((0.1,), {"z": 0.1}), ((0.1, 1), {"site": 1})])
def test_a_call_that_does_not_bind_raises_as_the_builder_does(args, kwargs):
    size = len(coalgebra.one_site.cache)
    with pytest.raises(TypeError):
        coalgebra.one_site(*args, **kwargs)
    with pytest.raises(TypeError):
        coalgebra.one_site.__wrapped__(*args, **kwargs)
    assert len(coalgebra.one_site.cache) == size


def test_memo_rejects_a_builder_with_variadic_parameters():
    with pytest.raises(TypeError):
        phase.memo(lambda *args: args)


def _verify_sweep_invocations(seed, monkeypatch):
    """The verify-sweep benchmark's calls, from its input generator."""
    path = os.path.join(os.path.dirname(_SRC), "perfbench", "inputs.py")
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)
    spec.loader.exec_module(inputs)
    return inputs.verify_invocations(seed)


def _recording(monkeypatch, module, name):
    """Every call of ``module.name``, bound with its defaults applied."""
    real, calls = getattr(module, name), []
    signature = inspect.signature(real.__wrapped__)

    def spy(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(phase._memo_key(tuple(bound.arguments.values())))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_a_verify_sweep_keeps_one_entry_per_bound_call(monkeypatch, tmp_path):
    """The benchmark's 104 verify, control and rank calls for one seed spell
    one_site(z) and one_site(z, 1), and so4_generators(params) and
    so4_generators(params, perturb=None), both ways; each pair is one entry."""
    for m in MEMOS:
        m.cache.clear()
    one_site, so4_generators = coalgebra.one_site, symmetry.so4_generators
    sites = _recording(monkeypatch, coalgebra, "one_site")
    gens = _recording(monkeypatch, symmetry, "so4_generators")
    invocations = _verify_sweep_invocations(3, monkeypatch)
    assert len(invocations) == 104
    with contextlib.redirect_stdout(io.StringIO()):
        for inv in invocations:
            assert cli.main(inv.resolve(str(tmp_path))[0]) == inv.expect_code
    assert len(set(sites)) < phase._MEMO_SIZE and len(set(gens)) < phase._MEMO_SIZE
    assert len(one_site.cache) == len(set(sites))
    zs = {key[1] for key in one_site.cache}             # (tuple, z key, site key)
    assert len(one_site.cache) == 3 * len(zs)
    assert len(so4_generators.cache) == len(set(gens)) > 0
