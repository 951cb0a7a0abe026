"""Random states and independence ranks: one draw per state, one stacked SVD
per batch, against references written as one ``rng.uniform`` per coordinate
and one SVD per state."""

import math
import re

import numpy as np
import pytest

from curvkepler.coalgebra import sample_beltrami
from curvkepler.phase import Chart, Observable, PhaseState, grad
from curvkepler.spaces import PRESETS, Family, HamiltonianSpec, SpaceParams, hamiltonian
from curvkepler.symmetry import (constants, independence_rank, independence_ranks,
                                 sample_polar)

CHARTS = (Chart.POLAR_CONSTANT, Chart.POLAR_VARIABLE)


def reference_beltrami(rng, lo=-2.0, hi=2.0, min_abs=1e-3):
    while True:
        coords = rng.uniform(lo, hi, 6)
        if np.all(np.abs(coords[:3]) > min_abs):
            return PhaseState(Chart.BELTRAMI, tuple(coords))


def reference_polar(params, rng, chart=Chart.POLAR_CONSTANT, momentum_scale=2.0):
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
    mom = rng.uniform(-momentum_scale, momentum_scale, 3)
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
        assert_same_draw(sample_polar(spaces[0], rng, momentum_scale=0.3),
                         reference_polar(spaces[0], ref_rng, momentum_scale=0.3),
                         rng, ref_rng)


@pytest.mark.parametrize("kwargs", [{}, {"lo": -2.0, "hi": 2.0, "min_abs": 1.0},
                                    {"lo": 0.5, "hi": 3.0}, {"lo": -1, "hi": 1, "min_abs": 0}])
def test_beltrami_draws_are_uniforms_bit_for_bit(kwargs):
    """Rejected draws included: with min_abs = 1 seven points in eight are redrawn."""
    for seed in range(1000):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_draw(sample_beltrami(rng, **kwargs),
                         reference_beltrami(ref_rng, **kwargs), rng, ref_rng)


@pytest.mark.parametrize("kwargs, error", [
    ({"lo": 1.0, "hi": 0.0}, ValueError),
    ({"lo": 0.0, "hi": math.inf}, OverflowError),
    ({"lo": -math.inf, "hi": 0.0}, OverflowError),
    ({"lo": 0.0, "hi": math.nan}, OverflowError),
    ({"lo": -1e308, "hi": 1e308}, OverflowError),
])
def test_beltrami_keeps_uniforms_argument_errors(kwargs, error):
    with pytest.raises(error):
        reference_beltrami(np.random.default_rng(0), **kwargs)
    with pytest.raises(error):
        sample_beltrami(np.random.default_rng(0), **kwargs)


@pytest.mark.parametrize("scale, error", [(-1.0, ValueError), (math.inf, OverflowError),
                                          (math.nan, OverflowError)])
def test_polar_keeps_uniforms_argument_errors(scale, error):
    params = SpaceParams.preset("spherical")
    with pytest.raises(error):
        reference_polar(params, np.random.default_rng(0), momentum_scale=scale)
    with pytest.raises(error):
        sample_polar(params, np.random.default_rng(0), momentum_scale=scale)


class _BoundedRng:
    """A generator that fails the test instead of drawing forever."""

    def __init__(self):
        self.rng, self.calls = np.random.default_rng(0), 0

    def random(self, size=None):
        self.calls += 1
        assert self.calls < 10_000, "the sampler kept redrawing"
        return self.rng.random(size)


@pytest.mark.parametrize("kwargs", [{"lo": -1.0, "hi": 1.0, "min_abs": 2.0},
                                    {"lo": -1.0, "hi": 1.0, "min_abs": 1.0},
                                    {"min_abs": math.nan}, {"lo": 0.0, "hi": 0.0}])
def test_beltrami_rejects_a_box_with_no_regular_point(kwargs):
    """No |q| > min_abs in [lo, hi] (or a NaN bound) used to redraw forever;
    now the first rejected draw raises."""
    rng = _BoundedRng()
    with pytest.raises(ValueError):
        sample_beltrami(rng, **kwargs)
    assert rng.calls == 1


@pytest.mark.parametrize("kwargs", [{"lo": 0.0, "hi": 1.0, "min_abs": 0.9999999999999999},
                                    {"lo": -1.0, "hi": 1.0, "min_abs": 1.0 - 1e-12}])
def test_beltrami_gives_up_on_a_box_it_cannot_draw_from(kwargs):
    """A box whose regular part the draws never (u < 1 keeps lo + (hi - lo) u
    below 1 - 2**-53) or all but never reach used to redraw forever; now the
    sampler raises after 1,000 rejected draws in a row and names the box."""
    rng = _BoundedRng()
    box = f"[{kwargs['lo']}, {kwargs['hi']}]"
    with pytest.raises(ValueError, match=re.escape(box)):
        sample_beltrami(rng, **kwargs)
    assert rng.calls == 1000
    ref = np.random.default_rng(0)
    for _ in range(1000):
        ref.random(6)
    assert rng.rng.random() == ref.random()


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
