"""The process-wide caches: graphs built once over the parameter leaves,
lowering by root nodes, compiled functions by root nodes and parameter bits."""

import contextlib
import gc
import io
import itertools
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


def test_signed_and_integer_zeros_bind_apart():
    """0.0, -0.0 and the int 0 compare equal, and NaNs compare unequal to
    everything; bindings and const nodes are keyed by type and bits instead,
    so each zero is its own node and gets its own compiled function, and
    observables bound to two of them do not combine."""
    nan2 = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000002))[0]
    values = (0.0, -0.0, 0, False, float("nan"), nan2)
    assert len({codegen._bits(v) for v in values}) == 6
    assert len({codegen.Node("const", param=v) for v in values}) == 6     # interned by bits
    assert codegen._bits(float("nan")) == codegen._bits(float("nan"))
    jplus = [coalgebra.one_site(z).jplus for z in (0.0, -0.0, 0)]
    assert len({ob._node for ob in jplus}) == 1             # one graph, three bindings
    s = phase.PhaseState.beltrami(1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
    assert [ob(s) for ob in jplus] == [1.0, 1.0, 1.0]
    assert len({id(ob._values) for ob in jplus}) == 3
    for a, b in itertools.combinations(jplus, 2):
        with pytest.raises(phase.ParameterMismatchError):
            a + b


def test_a_custom_spec_builds_its_own_graph_with_z_in_its_closures():
    """A CUSTOM spec's callables cannot key a cache: each call builds its
    own graph, and the potential receives the spec's z."""
    seen = []
    spec = HamiltonianSpec(Family.CUSTOM, SpaceParams(0.1, 1.0, 0.4), f=kernel.exp,
                           potential=lambda z, jm: seen.append(z) or -0.4 / kernel.sqrt(jm))
    first = spaces.hamiltonian(spec, Chart.BELTRAMI)
    assert spaces.hamiltonian(spec, Chart.BELTRAMI)._node is not first._node
    seen.clear()
    first(phase.PhaseState.beltrami(0.4, 0.7, 0.3, 0.6, -0.2, 0.9))
    assert seen == [0.1]


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
    """Callers share the graphs, never the dict or the observables; a
    repeated call's copy finds the code its graph already has and lowers
    nothing."""
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
    monkeypatch.setattr(codegen, "_lower", lambda *a: lowered.append(a) or real(*a))
    again = symmetry.constants(spec, chart)
    assert list(again) == names and again["C2"].name == "C2"
    assert again["C3"] is not first["C3"] and again["C3"].node is first["C3"].node
    h2 = spaces.hamiltonian(spec, chart)
    assert h2 is not h and h2.node is h.node and h2.name == h.name and h2.chart is chart
    assert [(ob(s), ob.gradient(s).tolist()) for ob in (again["C3"], h2)] == want
    assert lowered == []


def test_every_memo_stays_at_its_bound():
    """More new z values than the cache of bound compiled functions holds:
    it fills up and stays there, while the table plans and the lowered root
    sets, keyed by graphs that every parameter set shares, do not grow."""
    bound = codegen._bound.cache_info().maxsize
    plans, lowered = coalgebra._plan.cache_info(), codegen._lowered.cache_info()
    for i in range(bound // 2 + 5):                     # verify all binds 2 batches
        cli._run_suites("all", SpaceParams(0.01 + i / 1024, 1.0, 0.5), 1, 0, None)
        assert codegen._bound.cache_info().currsize <= bound
        assert coalgebra._plan.cache_info().currsize <= plans.maxsize
    assert codegen._bound.cache_info().currsize == bound
    assert coalgebra._plan.cache_info().misses - plans.misses <= 2
    assert codegen._lowered.cache_info().misses - lowered.misses <= 2


def test_the_node_table_keeps_only_live_nodes():
    """The table of interned nodes holds them weakly: 10,000 distinct graphs
    and their partial graphs, built and dropped, leave it as it was."""
    gc.collect()
    before = len(codegen._NODES)
    for i in range(10_000):
        ob = phase.sinhc(phase.Z * phase.Q1 * (1.0 + i)) + phase.P2 / (i + 0.5)
        codegen._partials([ob.node])
    del ob
    gc.collect()
    assert len(codegen._NODES) == before


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


def test_a_perturbed_table_gets_its_own_plan_and_a_new_z_shares_them():
    """verify --suite all keeps one plan per batch of job tables, built once
    over the parameter leaves: a repeated call finds both, a --perturb
    control misses for its own batch only, and a new z finds both."""
    params = SpaceParams(0.0237, 1.0, 0.5)

    def misses_and_hits(perturb, p=params):
        before = coalgebra._plan.cache_info()
        reports = cli._run_suites("all", p, 2, 0, perturb)
        after = coalgebra._plan.cache_info()
        return (after.misses - before.misses, after.hits - before.hits), reports

    coalgebra._plan.cache_clear()
    assert misses_and_hits(None)[0] == (2, 0)
    (counts, healthy) = misses_and_hits(None)
    assert counts == (0, 2)
    for perturb in ("jplus", "j02"):
        counts, perturbed = misses_and_hits(perturb)
        assert counts == (1, 1)
        assert max(r.max_residual for r in perturbed) > 1e-3 > max(
            r.max_residual for r in healthy)
        assert misses_and_hits(perturb)[0] == (0, 2)
    assert misses_and_hits(None, SpaceParams(0.0238, 1.0, 0.5))[0] == (0, 2)
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
    real_lower, real_new = codegen._lower, codegen.Node.__new__
    monkeypatch.setattr(codegen, "_lower", lambda *a: walks.append(a) or real_lower(*a))

    def new(cls, *args, **kwargs):      # Node is built (and interned) in __new__
        nodes.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(codegen.Node, "__new__", new)
    return walks, nodes


# Each command with its parameters as fields, and a distinct shift of them
# per new-parameters case, so its second call binds values no call has seen.
_COMMANDS = {
    "verify-all": ["verify", "--suite", "all", "--z", "{z}", "--kappa2", "{k2}", "--gamma", "{g}",
                   "--samples", "3"],
    "verify-perturbed": ["verify", "--suite", "sl2z", "--z", "{z}", "--samples", "3",
                         "--perturb", "jplus"],
    "rank": ["rank", "--family", "kepler-cc", "--z", "{z}", "--kappa2", "{k2}", "--gamma", "{g}",
             "--samples", "3", "--append-lrl", "L2"],
    "simulate": ["simulate", "--family", "kepler-nc", "--z", "{z}", "--kappa2", "{k2}",
                 "--gamma", "{g}", "--state", "1.0,1.2,0.4,0.15,0.4,0.8", "--t-end", "0.2"],
}
_PARAMS = {"verify-all": (0.35, -1.0, 0.5), "verify-perturbed": (0.35, 1.0, 0.5),
           "rank": (-1.0, 1.0, 0.4), "simulate": (0.35, 1.0, 0.2)}
_SHIFTS = itertools.count(1)


@pytest.mark.parametrize("new_params", [False, True], ids=["same-parameters", "new-parameters"])
@pytest.mark.parametrize("command", list(_COMMANDS))
def test_a_repeated_call_builds_and_lowers_nothing(command, new_params, monkeypatch, tmp_path):
    """A second call of each command, at the same parameters or at a
    (z, kappa2, gamma) the process has not seen, walks no graph and builds
    no Node: the builders' graphs and the lowered root sets serve every
    parameter set, and new values cost a bind step and an ``exec``."""
    z, k2, g = _PARAMS[command]

    def argv(shift):
        args = [a.format(z=z + shift, k2=k2 * (1.0 + shift), g=g + shift)
                for a in _COMMANDS[command]]
        if command == "simulate":
            return args + ["--csv", str(tmp_path / "t.csv"), "--summary", str(tmp_path / "s.json")]
        return args + ["--out", str(tmp_path / "out.json")]

    code = cli.main(argv(0.0))
    walks, nodes = _counted_builds(monkeypatch)
    assert cli.main(argv(next(_SHIFTS) * 1e-6 if new_params else 0.0)) == code
    assert walks == [] and nodes == []


def test_combining_observables_bound_to_different_parameters_raises():
    """An observable carries its binding: combining two bound to different
    values of a parameter raises, as combining two charts does, in an
    operator, in a column set and in a batch of tables.  Equal values, a
    parameter only one side binds, and observables without a binding
    combine, and a graph read without a value for a parameter it holds
    raises."""
    def h(gamma):
        spec = HamiltonianSpec(Family.KEPLER_CC, SpaceParams(0.3, 1.0, gamma))
        return spaces.hamiltonian(spec, Chart.POLAR_CONSTANT)

    for combine in (lambda a, b: a + b, lambda a, b: b * a, lambda a, b: phase.Columns([a, b])):
        with pytest.raises(phase.ParameterMismatchError, match="bound to gamma = "):
            combine(h(0.5), h(0.25))
    jobs = [coalgebra._sl2z_job(coalgebra.one_site(z), None) for z in (0.1, 0.2)]
    with pytest.raises(phase.ParameterMismatchError):
        coalgebra.run_tables(jobs, coalgebra.sample_beltrami, 1, 0)
    both = coalgebra.one_site(0.3).jplus * h(0.5) + h(0.5) + phase.Q1
    assert both.binding == (0.3, 1.0, 0.5)
    assert (phase.Q1 * phase.P1).binding is None
    unbound = phase.Z * phase.Q1
    with pytest.raises(kernel.DomainError, match="parameter z"):
        unbound((1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
    assert phase.bound(unbound, (2.0, None, None))((1.5, 0.0, 0.0, 0.0, 0.0, 0.0)) == 3.0


def _sinhc_nodes(roots):
    return {nd for nd in codegen._postorder(roots) if nd.op == "fn" and nd.param is kernel.sinhc}


def test_builders_that_write_one_expression_share_its_node():
    """The Staeckel constant I2 of FREE_CC and one_site's J+ each write
    sinhc(z q1^2) themselves, and read one node."""
    spec = HamiltonianSpec(Family.FREE_CC, SpaceParams.preset("spherical", 0.5))
    i2 = symmetry.constants(spec, Chart.BELTRAMI)["I2"]
    jplus = coalgebra.one_site(0.3).jplus
    assert len(_sinhc_nodes([i2.node])) == 1
    assert _sinhc_nodes([i2.node]) == _sinhc_nodes([jplus.node])


def test_warm_verify_all_evaluates_one_sinhc_per_shared_node(monkeypatch, tmp_path):
    """one_site, the closed forms and the Casimirs share one sinhc(z q_i^2)
    node per site, and sl2z on three sites and the Casimir C123 row one
    sinhc(z J-) node, so a sample evaluates each sinhc node of the compiled
    root sets once and the derivative of each one a flagged root reads
    once: 7 values and 3 derivatives per sample."""
    samples = 100
    argv = ["verify", "--suite", "all", "--preset", "spherical", "--samples", str(samples),
            "--out", str(tmp_path / "out.json")]
    assert cli.main(argv) == 0
    calls, root_sets = {"sinhc": [], "dsinhc": []}, []
    # Compiled code reads its functions from the shared base globals when it
    # is bound, so the counting ones go there and the warm builders' graphs
    # are bound again.
    for name, seen in calls.items():
        real = codegen._BASE_GLOBALS[name]
        monkeypatch.setitem(codegen._BASE_GLOBALS, name,
                            lambda *a, real=real, seen=seen: seen.append(a) or real(*a))
    real_compile = codegen.compile_roots
    monkeypatch.setattr(codegen, "compile_roots", lambda roots, grads, binding=None: root_sets.append(
        (roots, grads)) or real_compile(roots, grads, binding))
    codegen._bound.cache_clear()
    coalgebra._plan.cache_clear()
    try:
        assert cli.main(argv) == 0
    finally:        # no later call may run the counting functions
        codegen._bound.cache_clear()
        coalgebra._plan.cache_clear()

    values = sum(len(_sinhc_nodes(roots)) for roots, _ in root_sets)
    flagged = sum(len(_sinhc_nodes([r for r, g in zip(roots, grads) if g]))
                  for roots, grads in root_sets)
    assert (values, flagged) == (7, 3)
    assert [len(calls["sinhc"]), len(calls["dsinhc"])] == [values * samples, flagged * samples]
