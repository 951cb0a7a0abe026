"""Random states and independence ranks: one draw per state, one stacked SVD
per batch, against references written as one ``rng.uniform`` per coordinate
and one SVD per state."""

import math

import numpy as np
import pytest

from curvkepler.coalgebra import _uniform_coords, sample_beltrami
from curvkepler.phase import Chart, ChartMismatchError, Observable, PhaseState, grad
from curvkepler.spaces import PRESETS, Family, HamiltonianSpec, SpaceParams, hamiltonian
from curvkepler.symmetry import (constants, independence_rank, independence_ranks,
                                 sample_polar)

CHARTS = (Chart.POLAR_CONSTANT, Chart.POLAR_VARIABLE)


def reference_beltrami(rng, rejected=None):
    """A draw from [-2, 2]^6 with every |q_i| > 1e-3; the rejected draws
    before it are appended to ``rejected``."""
    while True:
        coords = rng.uniform(-2.0, 2.0, 6)
        if np.all(np.abs(coords[:3]) > 1e-3):
            return PhaseState(Chart.BELTRAMI, tuple(coords))
        if rejected is not None:
            rejected.append(coords)


def reference_polar(params, rng, chart=Chart.POLAR_CONSTANT):
    k1, k2 = params.kappa1, params.kappa2
    if chart is Chart.POLAR_CONSTANT:
        rmax = 0.85 * math.pi / math.sqrt(k1) if k1 > 0 else 1.8
    else:
        rmax = 0.8 * 0.5 * math.pi / math.sqrt(-k1) if k1 < 0 else 1.8
    rlo = min(0.25, 0.3 * rmax)
    tmax = 0.85 * math.pi / math.sqrt(k2) if k2 > 0 else 1.5
    tlo = min(0.25, 0.3 * tmax)
    r = rng.uniform(rlo, rmax)
    th = rng.uniform(tlo, tmax)
    ph = rng.uniform(0.0, 2.0 * math.pi)
    mom = rng.uniform(-2.0, 2.0, 3)
    return PhaseState(chart, (r, th, ph) + tuple(mom))


def assert_same_draw(new, ref, rng, ref_rng):
    assert new.chart is ref.chart
    assert all(type(c) is float for c in new.coords)
    assert [c.hex() for c in new.coords] == [float(c).hex() for c in ref.coords]
    # Same generator state: the next draw agrees too.
    assert rng.random() == ref_rng.random()


def test_polar_draws_are_uniforms_bit_for_bit():
    spaces = [SpaceParams.preset(name) for name in PRESETS] + [SpaceParams(0.5, -1.0)]
    for seed in range(1000):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for params in spaces:
            for chart in CHARTS:
                assert_same_draw(sample_polar(params, rng, chart),
                                 reference_polar(params, ref_rng, chart), rng, ref_rng)


def test_beltrami_draws_are_uniforms_bit_for_bit():
    """Rejected draws included: about 0.15% of draws have some |q_i| <= 1e-3."""
    rejected = []
    for seed in range(1000):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            assert_same_draw(sample_beltrami(rng),
                             reference_beltrami(ref_rng, rejected), rng, ref_rng)
    assert rejected


@pytest.mark.parametrize("chart", [Chart.BELTRAMI, "polar-constant", None])
def test_polar_sampler_rejects_a_chart_it_has_no_box_for(chart):
    """Only the two polar charts have a sampling box; any other chart raises
    before the generator advances, as one state and as a batch."""
    params = SpaceParams.preset("spherical")
    for n in (None, 5):
        rng = np.random.default_rng(0)
        with pytest.raises(ChartMismatchError):
            sample_polar(params, rng, chart, n=n)
        assert rng.random() == np.random.default_rng(0).random()


@pytest.mark.parametrize("kappa", [5e-324, 1e-300, 1.0, 1e300, -5e-324, -1e300])
@pytest.mark.parametrize("chart", CHARTS)
def test_polar_box_is_finite_and_ordered_at_extreme_curvatures(chart, kappa):
    """The polar box needs no span check: at the smallest subnormal |kappa|
    0.85 pi / sqrt(kappa) is still finite, and rlo < rmax at any kappa.  The
    reference draws with ``rng.uniform``, which raises on a span that is not
    finite or is negative, and the sampler gives its draws bit for bit."""
    params = SpaceParams(kappa, kappa)
    rng, ref_rng = np.random.default_rng(1), np.random.default_rng(1)
    batch = sample_polar(params, rng, chart, n=50)
    ref = [reference_polar(params, ref_rng, chart) for _ in range(50)]
    _same_states(batch, ref)
    assert rng.random() == ref_rng.random()
    assert all(math.isfinite(c) for state in batch for c in state.coords)
    assert all(state.coords[0] > 0.0 and state.coords[1] > 0.0 for state in batch)


_PARAMS = SpaceParams.preset("spherical")


@pytest.mark.parametrize("call", [
    lambda rng: sample_beltrami(rng, -2.0, 2.0),
    lambda rng: sample_beltrami(rng, lo=-2.0),
    lambda rng: sample_beltrami(rng, hi=2.0),
    lambda rng: sample_beltrami(rng, min_abs=1e-3),
    lambda rng: sample_polar(_PARAMS, rng, Chart.POLAR_CONSTANT, 2.0),
    lambda rng: sample_polar(_PARAMS, rng, momentum_scale=2.0),
], ids=["beltrami-positional", "lo", "hi", "min_abs", "polar-positional", "momentum_scale"])
def test_the_samplers_take_no_box_parameters(call):
    """The boxes are fixed: a box argument is a TypeError, raised before the
    generator advances."""
    rng = np.random.default_rng(0)
    with pytest.raises(TypeError):
        call(rng)
    assert rng.random() == np.random.default_rng(0).random()


def _same_states(new, ref):
    assert [s.chart for s in new] == [s.chart for s in ref]
    assert [[c.hex() for c in s.coords] for s in new] == \
        [[c.hex() for c in s.coords] for s in ref]


@pytest.mark.parametrize("n", [1, 2, 7, 50])
def test_a_batch_of_polar_draws_is_the_draws_one_at_a_time(n):
    """n states from one generator call are the n states of n calls, bit for
    bit, and leave the generator where the n calls leave it."""
    params = SpaceParams.preset("hyperbolic")
    for seed in range(50):
        for chart in CHARTS:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            batch = sample_polar(params, rng, chart, n=n)
            _same_states(batch, [sample_polar(params, ref_rng, chart) for _ in range(n)])
            assert rng.random() == ref_rng.random()
    assert sample_polar(params, np.random.default_rng(0), n=0) == []


@pytest.mark.parametrize("n", [1, 3, 10, 64, 2000])
def test_a_batch_of_beltrami_draws_is_the_draws_one_at_a_time(n):
    """A batch is the reference's draws and those of n calls, bit for bit,
    and leaves the generator where they leave it.  At n = 2000 about three
    draws per batch are rejected, so the batch takes rounds of redraws."""
    rejected = []
    for seed in range(20):
        rng, one_rng, ref_rng = (np.random.default_rng(seed) for _ in range(3))
        batch = sample_beltrami(rng, n=n)
        _same_states(batch, [reference_beltrami(ref_rng, rejected) for _ in range(n)])
        _same_states(batch, [sample_beltrami(one_rng) for _ in range(n)])
        assert rng.random() == one_rng.random() == ref_rng.random()
    assert rejected or n < 2000
    assert sample_beltrami(np.random.default_rng(0), n=0) == []


def test_a_batch_of_uniform_points_is_one_point_at_a_time():
    bounds = ((-1, 1), (0.25, 3.0), (0.0, 2.0 * math.pi), (-2.0, 2.0), (5.0, 5.0), (-1e300, 1e300))
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    batch = _uniform_coords(rng, bounds, 40)
    ref = [_uniform_coords(ref_rng, bounds) for _ in range(40)]
    assert all(type(c) is float for p in batch for c in p)
    assert [[c.hex() for c in p] for p in batch] == [[c.hex() for c in p] for p in ref]
    assert rng.random() == ref_rng.random()


def _family_observables(family):
    params = SpaceParams.preset("spherical", gamma=0.45) if family.polar_chart \
        is Chart.POLAR_CONSTANT else SpaceParams(0.4, 1.0, gamma=0.4)
    spec = HamiltonianSpec(family, params)
    c = constants(spec, family.polar_chart)
    obs = [c["C2"], c["C2mid"], c["C3"], hamiltonian(spec, family.polar_chart)]
    return params, obs, c


def reference_rank(observables, state, threshold=1e-8):
    rows = [grad(ob, state) for ob in observables]
    sv = np.linalg.svd(np.asarray(rows), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > threshold * sv[0]))


@pytest.mark.parametrize("family", [f for f in Family if f is not Family.CUSTOM])
def test_batched_ranks_match_one_svd_per_state(family):
    params, obs, c = _family_observables(family)
    rng = np.random.default_rng(2024)
    states = [sample_polar(params, rng, family.polar_chart) for _ in range(200)]
    h = obs[3]
    sets = [obs, [c["C2"], c["C2"], c["C3"], h],                # rank-deficient
            [c["C2"], c["C3"], Observable(h.fn, chart=h.chart)]]  # opaque: dual path
    if family is Family.KEPLER_CC:
        sets += [obs + [c[li]] for li in ("L1", "L2", "L3")]
    for observables in sets:
        ranks = independence_ranks(observables, states)
        assert ranks == [reference_rank(observables, s) for s in states]
        assert all(type(r) is int for r in ranks)
        assert independence_rank(observables, states[0]) == ranks[0]
    assert len(set(independence_ranks(sets[1], states))) == 1


def test_ranks_of_no_states_and_zero_jacobians():
    params, obs, _ = _family_observables(Family.FREE_CC)
    assert independence_ranks(obs, []) == []
    zero = Observable(lambda *x: 0.0)
    s = sample_polar(params, np.random.default_rng(0))
    assert independence_ranks([zero, zero], [s, s]) == [0, 0]
    assert reference_rank([zero, zero], s) == 0


@pytest.mark.parametrize("family", [f for f in Family if f is not Family.CUSTOM])
def test_a_state_at_a_pole_raises_what_one_state_at_a_time_raises(family):
    params, obs, _ = _family_observables(family)
    good = sample_polar(params, np.random.default_rng(1), family.polar_chart)
    pole = PhaseState(family.polar_chart, (0.0, 1.0, 0.3, 0.1, 0.2, 0.3))
    with pytest.raises(Exception) as ref:
        reference_rank(obs, pole)
    with pytest.raises(ref.type):
        independence_ranks(obs, [good, pole])
    with pytest.raises(ref.type):
        independence_rank(obs, pole)
