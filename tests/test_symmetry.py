"""Symmetry tests: so(4) realization, constants of motion, Runge-Lenz algebra."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from curvkepler.coalgebra import pbracket
from curvkepler.kernel import DomainError
from curvkepler.phase import Chart, ChartMismatchError, PhaseState
from curvkepler.spaces import (Family, HamiltonianSpec, SpaceParams,
                               from_polar, hamiltonian, to_polar)
from curvkepler.symmetry import (constants, independence_rank, independence_ranks, lrl,
                                 sample_polar, so4_generators, transported,
                                 verify_lrl_algebra, verify_so4)

PRESET_NAMES = ("spherical", "euclidean", "hyperbolic", "antidesitter",
                "minkowski", "desitter")


def polar_states(params, n, seed=0):
    rng = np.random.default_rng(seed)
    return [sample_polar(params, rng) for _ in range(n)]


def textbook_cartesian(state):
    """(X, P) of the flat polar chart: X = r n(theta, phi), P canonical."""
    r, th, ph, pr, pt, pp = state.coords
    st, ct, sp, cp = math.sin(th), math.cos(th), math.sin(ph), math.cos(ph)
    x = np.array([r * st * cp, r * st * sp, r * ct])
    p1 = st * cp * pr + ct * cp * pt / r - sp * pp / (r * st)
    p2 = st * sp * pr + ct * sp * pt / r + cp * pp / (r * st)
    p3 = ct * pr - st * pt / r
    return x, np.array([p1, p2, p3])


def test_j23_is_azimuthal_momentum():
    gens = so4_generators(SpaceParams.preset("spherical"))
    s = PhaseState.polar_constant(1.0, 1.1, 0.3, 0.4, 0.5, 0.77)
    assert gens.j23(s) == 0.77


def test_generators_flat_limit_are_cartesian_momenta():
    """z = 0, kappa2 = 1: J0i are the Cartesian momenta, Jij angular momenta."""
    params = SpaceParams(0.0, 1.0)
    gens = so4_generators(params)
    for s in polar_states(params, 20, seed=3):
        x, p = textbook_cartesian(s)
        ell = np.cross(x, p)
        npt.assert_allclose(gens.j02(s), p[0], rtol=1e-10, atol=1e-12)
        npt.assert_allclose(gens.j03(s), p[1], rtol=1e-10, atol=1e-12)
        npt.assert_allclose(gens.j01(s), p[2], rtol=1e-10, atol=1e-12)
        npt.assert_allclose(gens.j23(s), ell[2], rtol=1e-10, atol=1e-12)
        npt.assert_allclose(gens.j12(s), ell[1], rtol=1e-10, atol=1e-12)
        npt.assert_allclose(gens.j13(s), -ell[0], rtol=1e-10, atol=1e-12)


def test_free_hamiltonian_is_quadratic_casimir():
    """2 k2 H_cc = k2 J01^2 + J02^2 + J03^2 + k1 (J12^2 + J13^2 + k2 J23^2)."""
    for name in PRESET_NAMES:
        params = SpaceParams.preset(name)
        gens = so4_generators(params)
        h = hamiltonian(HamiltonianSpec(Family.FREE_CC, params),
                        Chart.POLAR_CONSTANT)
        k1, k2 = params.kappa1, params.kappa2
        for s in polar_states(params, 50, seed=7):
            lhs = 2.0 * k2 * h(s)
            rhs = (k2 * gens.j01(s) ** 2 + gens.j02(s) ** 2 + gens.j03(s) ** 2
                   + k1 * (gens.j12(s) ** 2 + gens.j13(s) ** 2
                           + k2 * gens.j23(s) ** 2))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_verify_so4_presets(name):
    report = verify_so4(SpaceParams.preset(name), samples=100, seed=11)
    assert report.max_residual < 1e-9, report.to_json()


def test_verify_so4_general_labels():
    for z, kappa2 in ((0.5, 1.0), (-0.5, 1.0), (0.5, -1.0), (-0.5, -1.0),
                      (0.7, 0.5)):
        report = verify_so4(SpaceParams(z, kappa2), samples=60, seed=13)
        assert report.max_residual < 1e-9


def test_verify_so4_negative_control():
    report = verify_so4(SpaceParams.preset("spherical"), samples=40, seed=1,
                        perturb="j02")
    assert report.max_residual > 1e-3
    with pytest.raises(DomainError):
        so4_generators(SpaceParams.preset("spherical"), perturb="j99")


def test_constants_commute_with_every_family():
    rng = np.random.default_rng(17)
    for family, chart in ((Family.FREE_NC, Chart.POLAR_VARIABLE),
                          (Family.FREE_CC, Chart.POLAR_CONSTANT),
                          (Family.KEPLER_NC, Chart.POLAR_VARIABLE),
                          (Family.KEPLER_CC, Chart.POLAR_CONSTANT)):
        params = SpaceParams(0.4, 1.0, gamma=0.37)
        spec = HamiltonianSpec(family, params)
        h = hamiltonian(spec, chart)
        consts = constants(spec, chart)
        for _ in range(25):
            s = PhaseState(chart, sample_polar(params, rng, chart=chart).coords)
            for name, ob in consts.items():
                assert abs(pbracket(ob, h, s)) < 1e-9, (family, name)


def test_constants_c2_is_azimuthal_momentum_squared():
    spec = HamiltonianSpec(Family.FREE_CC, SpaceParams.preset("hyperbolic"))
    c2 = constants(spec, Chart.POLAR_CONSTANT)["C2"]
    s = PhaseState.polar_constant(0.9, 1.2, 0.1, 0.3, 0.4, 0.8)
    assert c2(s) == pytest.approx(0.64, rel=1e-15)


def test_constants_match_generator_squares():
    """C2 = J23^2, C2mid = J12^2, C3 = J12^2 + J13^2 + k2 J23^2, I2 = J03^2."""
    params = SpaceParams.preset("antidesitter")
    spec = HamiltonianSpec(Family.FREE_CC, params)
    consts = constants(spec, Chart.POLAR_CONSTANT)
    gens = so4_generators(params)
    k2 = params.kappa2
    for s in polar_states(params, 50, seed=19):
        npt.assert_allclose(consts["C2"](s), gens.j23(s) ** 2, rtol=1e-12)
        npt.assert_allclose(consts["C2mid"](s), gens.j12(s) ** 2, rtol=1e-12)
        npt.assert_allclose(
            consts["C3"](s),
            gens.j12(s) ** 2 + gens.j13(s) ** 2 + k2 * gens.j23(s) ** 2,
            rtol=1e-11)
        npt.assert_allclose(consts["I2"](s), gens.j03(s) ** 2, rtol=1e-11)


def test_constants_bridge_to_beltrami_casimirs():
    """Through the chart map: C2 -> C12, C2mid -> k2 C23, C3 -> k2 C123,
    I2 -> k2 * (one-pair Staeckel form); exact for every kappa2 > 0."""
    rng = np.random.default_rng(23)
    for kappa2 in (1.0, 0.5, 2.0):
        params = SpaceParams(0.3, kappa2)
        spec = HamiltonianSpec(Family.FREE_CC, params)
        cpol = constants(spec, Chart.POLAR_CONSTANT)
        cbel = constants(spec, Chart.BELTRAMI)
        assert set(cpol) == set(cbel) == {"C2", "C2mid", "C3", "I2"}
        for _ in range(20):
            q = rng.uniform(0.15, 0.9, 3)
            p = rng.uniform(-1.2, 1.2, 3)
            s = PhaseState.beltrami(*q, *p)
            sp = to_polar(s, params, Chart.POLAR_CONSTANT)
            for name in cpol:
                a, b = cpol[name](sp), cbel[name](s)
                assert abs(a - b) <= 1e-11 * max(1.0, abs(a), abs(b)), name


def test_staeckel_constant_flat_limit():
    """z = 0, kappa2 = 1: I2 is the square of one Cartesian momentum
    component of the flat polar chart (the sin-phi axis)."""
    params = SpaceParams(0.0, 1.0)
    spec = HamiltonianSpec(Family.FREE_CC, params)
    i2 = constants(spec, Chart.POLAR_CONSTANT)["I2"]
    for s in polar_states(params, 20, seed=57):
        _, p = textbook_cartesian(s)
        npt.assert_allclose(i2(s), p[1] ** 2, rtol=1e-9, atol=1e-12)
    # and through the chart map it is half the squared q1-momentum (the
    # Beltrami frame sits at 1/sqrt(2) of the flat Cartesian frame)
    i2_beltrami = constants(spec, Chart.BELTRAMI)["I2"]
    sb = PhaseState.beltrami(0.4, 0.6, 0.8, 0.7, -0.2, 0.3)
    assert i2_beltrami(sb) == pytest.approx(0.5 * 0.7 ** 2, rel=1e-13)


def test_staeckel_constant_lost_for_kepler():
    """{I2, H} vanishes for free motion but not for the Kepler potential."""
    params = SpaceParams.preset("spherical", gamma=0.5)
    free = HamiltonianSpec(Family.FREE_CC, params)
    i2 = constants(free, Chart.POLAR_CONSTANT)["I2"]
    h_free = hamiltonian(free, Chart.POLAR_CONSTANT)
    h_kep = hamiltonian(HamiltonianSpec(Family.KEPLER_CC, params),
                        Chart.POLAR_CONSTANT)
    s = PhaseState.polar_constant(1.0, 1.2, 0.7, 0.4, 0.6, 0.9)
    assert abs(pbracket(i2, h_free, s)) < 1e-11
    assert abs(pbracket(i2, h_kep, s)) > 1e-3


def test_lrl_conserved_and_mutual_brackets():
    params = SpaceParams.preset("spherical", gamma=0.5)
    vec = lrl(params)
    h = hamiltonian(HamiltonianSpec(Family.KEPLER_CC, params),
                    Chart.POLAR_CONSTANT)
    gens = so4_generators(params)
    for s in polar_states(params, 50, seed=29):
        for ob in (vec.l1, vec.l2, vec.l3):
            assert abs(pbracket(ob, h, s)) < 1e-9
        lhs = pbracket(vec.l1, vec.l2, s)
        rhs = vec.mu(s) * gens.j12(s)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_lrl_classical_runge_lenz_oracle():
    """z = 0, kappa2 = 1, k = 1: the components are the classical vector
    P x L - k X/|X| of the flat chart (up to the chart's axis convention)."""
    gamma = 1.0 / (2.0 * math.sqrt(2.0))
    params = SpaceParams(0.0, 1.0, gamma)
    assert params.k == pytest.approx(1.0, rel=1e-15)
    vec = lrl(params)
    for s in polar_states(params, 20, seed=31):
        x, p = textbook_cartesian(s)
        ell = np.cross(x, p)
        a = np.cross(p, ell) - params.k * x / np.linalg.norm(x)
        npt.assert_allclose(vec.l1(s), -a[2], rtol=1e-8, atol=1e-10)
        npt.assert_allclose(vec.l2(s), -a[0], rtol=1e-8, atol=1e-10)
        npt.assert_allclose(vec.l3(s), -a[1], rtol=1e-8, atol=1e-10)


def test_lrl_scaled_components():
    vec = lrl(SpaceParams.preset("spherical", gamma=0.4))
    s = PhaseState.polar_constant(1.0, 1.2, 0.7, 0.4, 0.6, 0.9)
    scaled = vec.scaled()
    assert scaled["P1"](s) == pytest.approx(vec.l1(s), rel=1e-14)
    assert scaled["P2"](s) == pytest.approx(vec.l2(s), rel=1e-14)
    vec_l = lrl(SpaceParams.preset("desitter", gamma=0.4))
    with pytest.raises(DomainError):
        vec_l.scaled()


# The six presets at gamma = 0.5 and one space off the presets' labels.
_LRL_SPACES = ([SpaceParams.preset(name, gamma=0.5) for name in PRESET_NAMES]
               + [SpaceParams(0.37, 0.6, 0.3)])


def _lrl_values(params, n=40, seed=41):
    """C2, C2mid, C3, H, L1, L2, L3 and J12, J13, J23 at ``n`` sample_polar
    states, by name, and the states."""
    spec = HamiltonianSpec(Family.KEPLER_CC, params)
    obs = dict(constants(spec, Chart.POLAR_CONSTANT),
               H=hamiltonian(spec, Chart.POLAR_CONSTANT))
    gens = so4_generators(params)
    obs.update(J12=gens.j12, J13=gens.j13, J23=gens.j23)
    states = sample_polar(params, np.random.default_rng(seed), n=n)
    return [{name: ob(s) for name, ob in obs.items()} for s in states], obs, states


@pytest.mark.parametrize("params", _LRL_SPACES, ids=lambda p: f"z={p.z},kappa2={p.kappa2}")
def test_lrl_quadratic_relation(params):
    """L1^2 + kappa2 (L2^2 + L3^2) = k^2 kappa2^2 + 2 kappa2 H C3 - kappa1 C3^2
    at every state, the residual judged against the size of the terms (the
    worst relative residual here is 1.1e-15)."""
    k1, k2, k = params.kappa1, params.kappa2, params.k
    for v in _lrl_values(params)[0]:
        lhs = [v["L1"] ** 2, k2 * v["L2"] ** 2, k2 * v["L3"] ** 2]
        rhs = [k * k * k2 * k2, 2.0 * k2 * v["H"] * v["C3"], -k1 * v["C3"] ** 2]
        size = max(map(abs, lhs + rhs))
        assert abs(sum(lhs) - sum(rhs)) <= 1e-12 * size, v


@pytest.mark.parametrize("params", _LRL_SPACES, ids=lambda p: f"z={p.z},kappa2={p.kappa2}")
def test_lrl_linear_relation(params):
    """L1 J23 - L2 J13 + L3 J12 = 0 at every state (A . L = 0 in the flat
    limit), judged against the size of the terms."""
    for v in _lrl_values(params)[0]:
        terms = [v["L1"] * v["J23"], -v["L2"] * v["J13"], v["L3"] * v["J12"]]
        assert abs(sum(terms)) <= 1e-12 * max(map(abs, terms)), v


@pytest.mark.parametrize("params", _LRL_SPACES, ids=lambda p: f"z={p.z},kappa2={p.kappa2}")
def test_constants_with_the_whole_lrl_vector_have_rank_five(params):
    """{C2, C2mid, C3, H, L1, L2, L3} has rank 5 = 2N - 1 at every sampled
    state: the two relations are its two dependencies."""
    _, obs, states = _lrl_values(params)
    names = ("C2", "C2mid", "C3", "H", "L1", "L2", "L3")
    assert independence_ranks([obs[n] for n in names], states) == [5] * len(states)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_verify_lrl_presets(name):
    report = verify_lrl_algebra(SpaceParams.preset(name, gamma=0.5),
                                samples=100, seed=37)
    assert report.max_residual < 1e-8, report.to_json()


def test_verify_lrl_groups_and_rows():
    report = verify_lrl_algebra(SpaceParams.preset("desitter", gamma=0.5),
                                samples=50, seed=37)
    groups = {r.group for r in report.results}
    assert {"conservation", "vector", "mutual", "higgs(J12;P1,P2)",
            "higgs(J13;P1,P3)", "higgs(J23;P2,P3)", "cubic-rotation",
            "cubic-vanishing"} == groups
    names = [r.identity for r in report.results]
    assert "{J23,L1} = 0" in names
    assert any("{P1,J23} = 0" in n for n in names)
    assert sum(r.group.startswith(("higgs", "cubic")) for r in report.results) == 15


def test_verify_lrl_negative_control():
    report = verify_lrl_algebra(SpaceParams.preset("spherical", gamma=0.5),
                                samples=40, seed=3, perturb="j02")
    assert report.max_residual > 1e-3


def test_involution_triples():
    """{C^(2), L1, H}, {J13^2, L2, H}, {C_(2), L3, H} pairwise commute,
    with J13^2 realized as C3 - C2mid - k2 C2."""
    for name in ("spherical", "desitter"):
        params = SpaceParams.preset(name, gamma=0.5)
        spec = HamiltonianSpec(Family.KEPLER_CC, params)
        h = hamiltonian(spec, Chart.POLAR_CONSTANT)
        c = constants(spec, Chart.POLAR_CONSTANT)
        j13sq = c["C3"] - c["C2mid"] - params.kappa2 * c["C2"]
        gens = so4_generators(params)
        triples = [(c["C2"], c["L1"], h), (j13sq, c["L2"], h),
                   (c["C2mid"], c["L3"], h)]
        for s in polar_states(params, 50, seed=41):
            npt.assert_allclose(j13sq(s), gens.j13(s) ** 2, rtol=1e-10)
            for f, g, hh in triples:
                for a, b in ((f, g), (f, hh), (g, hh)):
                    assert abs(pbracket(a, b, s)) < 1e-9 * max(
                        1.0, abs(a(s)), abs(b(s)))


def test_quadratic_constants_momentum_scaling():
    """Doubling momenta quadruples each quadratic constant exactly."""
    params = SpaceParams.preset("hyperbolic")
    spec = HamiltonianSpec(Family.FREE_CC, params)
    consts = constants(spec, Chart.POLAR_CONSTANT)
    s = PhaseState.polar_constant(0.9, 1.2, 0.5, 0.3, -0.7, 0.8)
    s2 = PhaseState.polar_constant(0.9, 1.2, 0.5, 0.6, -1.4, 1.6)
    for name in ("C2", "C2mid", "C3", "I2"):
        assert consts[name](s2) == pytest.approx(4.0 * consts[name](s),
                                                 rel=1e-13)


def test_independence_ranks():
    params = SpaceParams.preset("spherical", gamma=0.5)
    spec = HamiltonianSpec(Family.KEPLER_CC, params)
    h = hamiltonian(spec, Chart.POLAR_CONSTANT)
    c = constants(spec, Chart.POLAR_CONSTANT)
    base = [c["C2"], c["C2mid"], c["C3"], h]
    for s in polar_states(params, 20, seed=43):
        assert independence_rank(base, s) == 4
        for li in ("L1", "L2", "L3"):
            assert independence_rank(base + [c[li]], s) == 5
        assert independence_rank([c["C2"], c["C2"], c["C3"]], s) == 2


def test_rank_nc_family():
    params = SpaceParams(0.4, 1.0)
    spec = HamiltonianSpec(Family.FREE_NC, params)
    h = hamiltonian(spec, Chart.POLAR_VARIABLE)
    c = constants(spec, Chart.POLAR_VARIABLE)
    rng = np.random.default_rng(47)
    for _ in range(20):
        s = sample_polar(params, rng, chart=Chart.POLAR_VARIABLE)
        assert independence_rank([c["C2"], c["C2mid"], c["C3"], h], s) == 4


def test_transported_observable_evaluates_on_beltrami():
    params = SpaceParams.preset("spherical", gamma=0.5)
    spec = HamiltonianSpec(Family.KEPLER_CC, params)
    l1 = constants(spec, Chart.POLAR_CONSTANT)["L1"]
    carrier = transported(l1, params)
    s = PhaseState.beltrami(0.4, 0.55, 0.6, 0.3, -0.2, 0.7)
    sp = to_polar(s, params, Chart.POLAR_CONSTANT)
    assert carrier(s) == pytest.approx(l1(sp), rel=1e-12)
    assert carrier(sp) == pytest.approx(l1(sp), rel=1e-15)


def test_constants_chart_guard():
    spec = HamiltonianSpec(Family.FREE_CC, SpaceParams.preset("spherical"))
    with pytest.raises(ChartMismatchError):
        constants(spec, Chart.POLAR_VARIABLE)
    # Beltrami carries the Casimir forms but no closed Runge-Lenz components.
    kep = HamiltonianSpec(Family.KEPLER_CC,
                          SpaceParams.preset("spherical", gamma=0.4))
    names = set(constants(kep, Chart.BELTRAMI))
    assert names == {"C2", "C2mid", "C3"}
