"""Dynamics tests: vector fields, adaptive integration, drift monitoring."""

import csv
import io
import math
from fractions import Fraction as Fr

import numpy as np
import numpy.testing as npt
import pytest

from curvkepler import codegen, dynamics
from curvkepler.dynamics import (IntegratorConfig, StepUnderflowError,
                                 Trajectory, drift_report, integrate, rhs,
                                 trajectory_csv)
from curvkepler.kernel import DomainError
from curvkepler.phase import (P1, P2, P3, Q1, Q2, Q3, Chart, ChartMismatchError,
                              ChartSingularityError, Observable, PhaseState,
                              coordinate, exp, sqrt)
from curvkepler.spaces import (Family, HamiltonianSpec, SpaceParams,
                               chart_guard, hamiltonian, radial_reduction)
from curvkepler.symmetry import constants, lrl

GAMMA_K1 = 1.0 / (2.0 * math.sqrt(2.0))   # gamma giving k = 1


def euclidean_kepler():
    params = SpaceParams(0.0, 1.0, GAMMA_K1)
    spec = HamiltonianSpec(Family.KEPLER_CC, params)
    return params, spec, hamiltonian(spec, Chart.POLAR_CONSTANT)


def circular_state():
    return PhaseState.polar_constant(1.0, math.pi / 2, 0.0, 0.0, 0.0, 1.0)


def test_rhs_free_flat():
    h = 0.5 * (P1 * P1 + P2 * P2 + P3 * P3)
    s = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    npt.assert_allclose(rhs(h, s), [0.4, 0.5, 0.6, 0, 0, 0], atol=1e-15)


def test_rhs_oscillator():
    h = 0.5 * (P1 * P1 + P2 * P2 + P3 * P3 + Q1 * Q1 + Q2 * Q2 + Q3 * Q3)
    s = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    npt.assert_allclose(rhs(h, s), [0.4, 0.5, 0.6, -0.1, -0.2, -0.3],
                        atol=1e-15)


def classical_kepler_rhs(state, k):
    """Hand-coded flat Kepler vector field in polar coordinates (oracle)."""
    r, th, ph, pr, pt, pp = state
    st, ct = math.sin(th), math.cos(th)
    ang = pt * pt + pp * pp / (st * st)
    return np.array([
        pr,
        pt / (r * r),
        pp / (r * r * st * st),
        ang / r ** 3 - k / r ** 2,
        pp * pp * ct / (r * r * st ** 3),
        0.0,
    ])


def test_rhs_matches_classical_kepler():
    params, spec, h = euclidean_kepler()
    rng = np.random.default_rng(5)
    for _ in range(20):
        s = PhaseState.polar_constant(rng.uniform(0.5, 2.0),
                                      rng.uniform(0.5, 2.5),
                                      rng.uniform(0.0, 6.0),
                                      *rng.uniform(-1.0, 1.0, 3))
        npt.assert_allclose(rhs(h, s), classical_kepler_rhs(s.coords, params.k),
                            rtol=1e-10, atol=1e-12)


def test_circular_orbit_returns_after_period():
    """r = 1, p_phi = 1, k = 1 closes after t = 2 pi to 1e-8 per component."""
    params, spec, h = euclidean_kepler()
    mon = dict(constants(spec, Chart.POLAR_CONSTANT))
    mon["H"] = h
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14, t_end=2 * math.pi)
    tr = integrate(h, circular_state(), cfg, monitors=mon,
                   domain_guard=chart_guard(Chart.POLAR_CONSTANT, params))
    final = tr.states[-1].copy()
    ref = circular_state().asarray()
    # phi is an angle: compare on the circle
    final[2] = abs((final[2] - ref[2] + math.pi) % (2 * math.pi) - math.pi)
    ref = ref.copy()
    ref[2] = 0.0
    assert np.max(np.abs(final - ref)) < 1e-8
    for name, d in tr.drift.items():
        assert d < 1e-9, (name, d)


def test_drift_report_fields_and_controls():
    params, spec, h = euclidean_kepler()
    one = coordinate(0, "r").with_chart(Chart.POLAR_CONSTANT)
    mon = {"H": h, "const_one": 0.0 * one + 1.0, "r_coord": one}
    # eccentric orbit so r genuinely moves
    s0 = PhaseState.polar_constant(1.3, math.pi / 2, 0.0, 0.1, 0.0, 0.9)
    tr = integrate(h, s0, IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14,
                                           t_end=8.0), monitors=mon)
    rep = drift_report(tr)
    assert set(rep) == {"H", "const_one", "r_coord"}
    assert rep["const_one"]["max_drift"] == 0.0
    assert rep["H"]["max_drift"] < 1e-9
    assert rep["r_coord"]["max_drift"] > 1e-3
    assert 0.0 <= rep["r_coord"]["t_worst"] <= 8.0


def test_zero_time_single_sample():
    params, spec, h = euclidean_kepler()
    tr = integrate(h, circular_state(),
                   IntegratorConfig(t_end=0.0), monitors={"H": h})
    assert len(tr.times) == 1
    assert tr.monitors["H"][0] == pytest.approx(-0.5)


def test_radial_plunge_terminates_cleanly():
    params, spec, h = euclidean_kepler()
    s0 = PhaseState.polar_constant(0.6, math.pi / 2, 0.0, -1.0, 0.0, 0.0)
    tr = integrate(h, s0, IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12,
                                           t_end=5.0),
                   monitors={"H": h},
                   domain_guard=chart_guard(Chart.POLAR_CONSTANT, params))
    assert tr.terminated_early
    assert "radial pole" in tr.termination_reason
    assert tr.times[-1] < 5.0


def test_step_underflow_without_guard():
    """Without a domain guard the collision shows up as step underflow, which
    nothing raised: the error control shrank the step."""
    params, spec, h = euclidean_kepler()
    s0 = PhaseState.polar_constant(0.6, math.pi / 2, 0.0, -1.0, 0.0, 0.0)
    with pytest.raises(StepUnderflowError) as err:
        integrate(h, s0, IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12,
                                          t_end=5.0))
    partial = err.value.trajectory
    assert partial.terminated_early
    assert len(partial.times) >= 1
    assert partial.stats.h_min < 1e-12
    stats = partial.stats
    assert stats.eval_failures == 0
    assert str(err.value).endswith(
        f": the error control shrank the step over {stats.accepted} accepted "
        f"and {stats.rejected} rejected steps")


def test_step_underflow_reports_the_swallowed_exception():
    """An observable that starts raising mid-run is reported by what it
    raised, not as a singularity."""
    calls = [0]

    def buggy(q1, q2, q3, p1, p2, p3):
        calls[0] += 1
        if calls[0] > 8:
            raise ZeroDivisionError("bug in observable")
        return 0.5 * (p1 * p1 + q1 * q1)

    with pytest.raises(StepUnderflowError) as err:
        integrate(Observable(buggy), PhaseState.beltrami(1.0, 0, 0, 0, 0, 0),
                  IntegratorConfig(t_end=1.0))
    stats = err.value.trajectory.stats
    assert stats.failure_types == {"ZeroDivisionError": stats.eval_failures}
    message = str(err.value)
    assert f"after {stats.eval_failures} evaluation failures" in message
    assert "last: ZeroDivisionError: bug in observable" in message
    assert "singularity" not in message


def test_starting_step_underflow_blames_the_vector_field():
    """At q1 = 25 the force is ~1e272: the starting-step estimate is 0, and
    the run says so (it used to print an overflow warning and blame the
    error control over 0 accepted and 0 rejected steps)."""
    h = 0.5 * P1 * P1 + exp(Q1 * Q1)
    with pytest.raises(StepUnderflowError) as err:
        integrate(h, PhaseState.beltrami(25, 0, 0, 0, 0, 0),
                  IntegratorConfig(t_end=1, rel_tol=1e-6, abs_tol=1e-8))
    stats = err.value.trajectory.stats
    assert (stats.accepted, stats.rejected, stats.eval_failures) == (0, 0, 0)
    assert str(err.value).endswith(
        ": the starting step estimate underflowed because the vector field "
        "at the start state is too large")


def test_long_run_from_an_equilibrium_starts_above_the_underflow():
    """At rest at the origin the starting estimate falls back to a fixed
    step; for t_end = 1e9 that must not be below 1e-14 t_end (it was 1e-6,
    and the run stopped at t = 0 blaming the error control)."""
    tr = integrate(0.5 * P1 * P1 + 0.5 * Q1 * Q1, PhaseState.beltrami(0, 0, 0, 0, 0, 0),
                   IntegratorConfig(t_end=1e9))
    assert not tr.terminated_early and tr.times[-1] == 1e9
    assert not tr.states.any()
    assert tr.stats.h_min == 1e-5


def test_tolerances_whose_scale_overflows_fall_back_to_a_finite_start_step():
    """At rel_tol = abs_tol = 1e-300 the scaled norms of y0 and f(y0)
    overflow to inf, and inf / inf made the starting step NaN: every step
    was then rejected until max-steps-exceeded (2,000 rejections).  The
    fallback step is taken instead, and the error control shrinks it to an
    underflow after a few rejections and says so."""
    cfg = IntegratorConfig(t_end=1, rel_tol=1e-300, abs_tol=1e-300, max_steps=2000)
    with pytest.raises(StepUnderflowError) as err:
        integrate(0.5 * P1 * P1 + 0.5 * Q1 * Q1, PhaseState.beltrami(1, 0, 0, 0, 0, 0), cfg)
    stats = err.value.trajectory.stats
    assert 0 < stats.rejected and stats.accepted + stats.rejected < 20
    assert "the error control shrank the step" in str(err.value)


@pytest.mark.parametrize("bad", [
    {"fixed_step": -1.0},
    {"fixed_step": 1e-9, "t_end": 10.0},
    {"max_step": 1e-9, "t_end": 10.0},
], ids=["negative fixed step", "fixed step too short", "max step too short"])
def test_step_settings_that_cannot_reach_t_end_are_rejected(bad):
    """A negative fixed step used to run adaptively, and a step that needs
    more than max_steps steps to reach t_end ran until max-steps-exceeded."""
    with pytest.raises(DomainError):
        IntegratorConfig(**bad)


def test_a_run_that_needs_exactly_max_steps_steps_ends_normally():
    """t_end = max_steps * step ends on its last allowed step (it used to
    end as max-steps-exceeded there); one allowed step fewer is rejected."""
    with pytest.raises(DomainError):
        IntegratorConfig(t_end=1.0, fixed_step=0.5, max_steps=1)
    tr = integrate(0.5 * P1 * P1 + 0.5 * Q1 * Q1, PhaseState.beltrami(1, 0, 0, 0, 0, 0),
                   IntegratorConfig(t_end=1.0, fixed_step=0.5, max_steps=2))
    assert not tr.terminated_early and tr.termination_reason == ""
    assert tr.times.tolist() == [0.0, 0.5, 1.0]


@pytest.mark.parametrize("fixed_step", [0.0, 0.1], ids=["dopri54", "fixed-step"])
def test_chart_mismatch_raises_before_the_first_step(fixed_step):
    """The Hamiltonian's chart is checked once, up front, on every method
    (a fixed-step run used to swallow the mismatch as an evaluation failure)."""
    params, spec, h = euclidean_kepler()
    evals = []
    monitor = Observable(lambda *s: evals.append(s) or 0.0)
    with pytest.raises(ChartMismatchError):
        integrate(h, PhaseState.beltrami(0.3, 0.2, 0.1, 0.0, 0.1, 0.2),
                  IntegratorConfig(t_end=1.0, fixed_step=fixed_step),
                  monitors={"m": monitor})
    assert evals == []


def test_convergence_order_fixed_step():
    """Halving a fixed step shrinks the terminal error like a >= 4th-order method."""
    params, spec, h = euclidean_kepler()
    s0 = PhaseState.polar_constant(1.3, math.pi / 2, 0.0, 0.1, 0.0, 0.9)
    ref = integrate(h, s0, IntegratorConfig(rel_tol=1e-13, abs_tol=1e-15,
                                            t_end=2.0)).states[-1]
    errs = []
    for hstep in (0.2, 0.1):
        tr = integrate(h, s0, IntegratorConfig(t_end=2.0, fixed_step=hstep))
        errs.append(np.max(np.abs(tr.states[-1] - ref)))
    assert errs[0] / errs[1] > 16.0   # fifth-order propagator gives ~32


def test_time_reversal():
    params, spec, h = euclidean_kepler()
    s0 = PhaseState.polar_constant(1.3, math.pi / 2, 0.0, 0.1, 0.0, 0.9)
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13, t_end=3.0)
    fwd = integrate(h, s0, cfg).states[-1].copy()
    fwd[3:] *= -1.0
    back = integrate(h, PhaseState.polar_constant(*fwd), cfg).states[-1].copy()
    back[3:] *= -1.0
    assert np.max(np.abs(back - s0.asarray())) < 1e-6


def test_implicit_midpoint_option():
    params, spec, h = euclidean_kepler()
    s0 = PhaseState.polar_constant(1.3, math.pi / 2, 0.0, 0.1, 0.0, 0.9)
    tr = integrate(h, s0, IntegratorConfig(method="implicit-midpoint",
                                           fixed_step=0.01, t_end=6.0,
                                           sample_stride=10),
                   monitors={"H": h})
    assert not tr.terminated_early
    assert tr.drift["H"] < 1e-4   # second-order, energy oscillation bounded
    with pytest.raises(DomainError):
        IntegratorConfig(method="implicit-midpoint")
    with pytest.raises(DomainError):
        IntegratorConfig(method="rk99")


def _bisect(f, a, b):
    """A root of f in [a, b] (f(a), f(b) of opposite signs) to the last bit."""
    fa = f(a)
    for _ in range(200):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm > 0.0) == (fa > 0.0):
            a, fa = m, fm
        else:
            b = m
    return 0.5 * (a + b)


def test_free_cc_geodesic_turning_points_match_radial_reduction():
    """Great-circle geodesic on the sphere: radial turning points solve the
    one-dimensional reduction found independently by bisection."""
    params = SpaceParams.preset("spherical")
    spec = HamiltonianSpec(Family.FREE_CC, params)
    h = hamiltonian(spec, Chart.POLAR_CONSTANT)
    s0 = PhaseState.polar_constant(1.2, 1.1, 0.3, 0.25, 0.5, 0.6)
    consts = constants(spec, Chart.POLAR_CONSTANT)
    tr = integrate(h, s0, IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14,
                                           t_end=12.0),
                   monitors={"C3": consts["C3"], "H": h},
                   domain_guard=chart_guard(Chart.POLAR_CONSTANT, params))
    assert not tr.terminated_early
    energy = h(s0)
    rad = radial_reduction(spec, consts["C3"](s0))

    rs = tr.states[:, 0]
    r_lo, r_hi = rs.min(), rs.max()
    g = lambda r: rad.potential(r) - energy
    # potential well: g > 0 at both walls, < 0 at the interior minimum
    r_mid = 0.5 * (r_lo + r_hi)
    turning_lo = _bisect(g, 1e-3, r_mid)
    turning_hi = _bisect(g, r_mid, math.pi - 1e-3)
    assert abs(r_lo - turning_lo) < 1e-6
    assert abs(r_hi - turning_hi) < 1e-6
    assert tr.drift["C3"] < 1e-10
    # energy relation of the separated system holds along the flow
    for i in range(0, len(tr.times), 7):
        st = tr.states[i]
        assert rad.hamiltonian(st[0], st[3]) + 0.5 * (
            tr.monitors["C3"][i] - consts["C3"](s0)) / (
            params.kappa2 * math.sin(st[0]) ** 2) == pytest.approx(
                energy, rel=1e-8)


def test_trajectory_validation_and_csv():
    params, spec, h = euclidean_kepler()
    tr = integrate(h, circular_state(),
                   IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=1.0),
                   monitors={"H": h})
    text = trajectory_csv(tr)
    lines = text.splitlines()
    assert lines[0] == "t,r,theta,phi,p_r,p_theta,p_phi,H"
    assert len(lines) == len(tr.times) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[7]) == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        Trajectory(Chart.POLAR_CONSTANT, np.array([0.0, 1.0]),
                   np.zeros((3, 6)))
    with pytest.raises(DomainError):
        trajectory_csv(Trajectory(Chart.BELTRAMI, np.array([0.0]),
                                  np.zeros((1, 6))))


@pytest.mark.parametrize("field, value", [("sample_stride", 1.5), ("sample_stride", 2.0),
                                          ("sample_stride", "2"), ("max_steps", 2.5),
                                          ("max_steps", 1e6), ("max_steps", None)])
def test_config_rejects_a_count_that_is_not_an_int(field, value):
    """sample_stride = 1.5 used to sample every third step and max_steps =
    2.5 to fail in range() with a bare TypeError; both are counts."""
    with pytest.raises(DomainError, match=field):
        IntegratorConfig(**{field: value})


def test_a_hamiltonian_that_is_not_an_observable_raises_before_any_evaluation():
    """integrate and rhs take an Observable only: a callable raises
    TypeError, naming Observable(fn), without being called."""
    calls = []
    h = hamiltonian(HamiltonianSpec(Family.KEPLER_CC, SpaceParams.preset("spherical", 0.5)),
                    Chart.POLAR_CONSTANT)
    for fn in (lambda *x: calls.append(x) or h.fn(*x), h.gradient, h.fn):
        with pytest.raises(TypeError, match=r"Observable\(fn\)"):
            integrate(fn, _KEPLER_STATE, _KEPLER_CFG)
        with pytest.raises(TypeError, match=r"Observable\(fn\)"):
            rhs(fn, _KEPLER_STATE)
    assert calls == []


def test_config_validation():
    with pytest.raises(DomainError):
        IntegratorConfig(rel_tol=-1.0)
    with pytest.raises(DomainError):
        IntegratorConfig(t_end=-2.0)
    with pytest.raises(DomainError):
        IntegratorConfig(sample_stride=0)
    for bad in ({"t_end": math.nan}, {"t_end": math.inf},
                {"rel_tol": math.nan}, {"rel_tol": math.inf},
                {"abs_tol": math.nan}, {"abs_tol": math.inf},
                {"max_step": math.nan}, {"max_step": 0.0},
                {"max_step": -1.0}, {"max_step": 1e-20, "t_end": 1.0},
                {"fixed_step": math.nan}):
        with pytest.raises(DomainError):
            IntegratorConfig(**bad)
    assert IntegratorConfig().max_step == math.inf


def test_singular_start_state_is_rejected_before_any_evaluation():
    params = SpaceParams.preset("spherical", gamma=0.5)
    h = hamiltonian(HamiltonianSpec(Family.KEPLER_CC, params), Chart.POLAR_CONSTANT)
    calls = []
    counted = Observable(lambda *s: calls.append(s) or h.fn(*s))
    guard = chart_guard(Chart.POLAR_CONSTANT, params)
    for state, word in (((1.0, 0.0, 0.0, 0.0, 0.0, 1.0), "axis"),
                        ((0.0, 1.0, 0.0, 0.0, 0.0, 1.0), "pole")):
        with pytest.raises(ChartSingularityError, match=word):
            integrate(counted, PhaseState(Chart.POLAR_CONSTANT, state),
                      IntegratorConfig(t_end=1.0), monitors={"H": counted},
                      domain_guard=guard)
    assert calls == []


@pytest.mark.parametrize("slot, value", [(3, math.nan), (0, math.inf), (5, -math.inf)],
                         ids=["nan-p_r", "inf-r", "-inf-p_phi"])
def test_non_finite_start_state_is_rejected_before_any_evaluation(slot, value):
    """A NaN p_r used to run 85 RHS evaluations and end in a
    StepUnderflowError that blamed the error control (0 accepted, 14
    rejected steps); the coordinate is now named up front."""
    params = SpaceParams.preset("spherical", gamma=0.5)
    h = hamiltonian(HamiltonianSpec(Family.KEPLER_CC, params), Chart.POLAR_CONSTANT)
    calls = []
    counted = Observable(lambda *s: calls.append(s) or h.fn(*s))
    state = list(_MIDPOINT_STATE)
    state[slot] = value
    with pytest.raises(DomainError, match=f"coordinate {slot + 1} of 6 is not finite"):
        integrate(counted, PhaseState(Chart.POLAR_CONSTANT, tuple(state)),
                  IntegratorConfig(t_end=1.0), monitors={"H": counted},
                  domain_guard=chart_guard(Chart.POLAR_CONSTANT, params))
    assert calls == []


_MIDPOINT_STATE = (1.1, 1.2, 0.4, 0.2, 0.4, 0.9)


def _kepler_midpoint(fixed_step):
    params = SpaceParams.preset("spherical", gamma=0.5)
    h = hamiltonian(HamiltonianSpec(Family.KEPLER_CC, params), Chart.POLAR_CONSTANT)
    cfg = IntegratorConfig(t_end=4.0, method="implicit-midpoint",
                           fixed_step=fixed_step)
    return h, integrate(h, PhaseState(Chart.POLAR_CONSTANT, _MIDPOINT_STATE), cfg,
                        domain_guard=chart_guard(Chart.POLAR_CONSTANT, params))


def test_implicit_midpoint_stops_when_the_fixed_point_diverges():
    """At h = 2 the midpoint iteration runs away (last update ~3e4); the
    step must not be accepted."""
    _, tr = _kepler_midpoint(2.0)
    assert tr.terminated_early
    assert tr.termination_reason == "midpoint-not-converged"
    assert tr.stats.accepted == 0 and len(tr.times) == 1


def test_implicit_midpoint_converged_run_is_unchanged():
    """At h = 0.05 every step converges, and the run equals a reference loop
    that accepts the last fixed-point iterate (the earlier behaviour)."""
    h, tr = _kepler_midpoint(0.05)
    assert not tr.terminated_early
    f = lambda y: rhs(h, PhaseState(Chart.POLAR_CONSTANT, tuple(y.tolist())))
    t, y = 0.0, np.array(_MIDPOINT_STATE)
    ref = [y]
    while 4.0 - t > 4e-14:
        step = min(0.05, 4.0 - t)
        ym = y + 0.5 * step * f(y)
        for _ in range(60):
            ynew = y + 0.5 * step * f(ym)
            done = np.max(np.abs(ynew - ym)) < 1e-14
            ym = ynew
            if done:
                break
        y = y + step * f(ym)
        t += step
        ref.append(y)
    assert len(ref) == 81
    assert np.array_equal(tr.states, np.array(ref))


# Dormand-Prince 5(4) (Hairer-Norsett-Wanner, Table II.5.2): the stage rows,
# the fifth-order weights (also the last row) and the fourth-order weights.
_DP_ROWS = [
    [Fr(1, 5)],
    [Fr(3, 40), Fr(9, 40)],
    [Fr(44, 45), Fr(-56, 15), Fr(32, 9)],
    [Fr(19372, 6561), Fr(-25360, 2187), Fr(64448, 6561), Fr(-212, 729)],
    [Fr(9017, 3168), Fr(-355, 33), Fr(46732, 5247), Fr(49, 176), Fr(-5103, 18656)],
]
_DP_B5 = [Fr(35, 384), 0, Fr(500, 1113), Fr(125, 192), Fr(-2187, 6784), Fr(11, 84), 0]
_DP_B4 = [Fr(5179, 57600), 0, Fr(7571, 16695), Fr(393, 640), Fr(-92097, 339200),
          Fr(187, 2100), Fr(1, 40)]


def _left_to_right(coeffs, terms):
    """sum(c * k) over the nonzero coefficients, one addition at a time."""
    total = None
    for c, k in zip(coeffs, terms):
        if c:
            total = float(c) * k if total is None else total + float(c) * k
    return total


def _dp_reference(f, y, h, k1, atol, rtol):
    """The tableau applied with each stage sum added left to right, and the
    error ratio as the integrator's list comprehension computed it."""
    ks = [k1]
    for row in _DP_ROWS:
        ks.append(f([a + h * _left_to_right(row, col) for a, *col in zip(y, *ks)]))
    y5 = [a + h * _left_to_right(_DP_B5, col) for a, *col in zip(y, *ks)]
    ks.append(f(y5))
    err = [h * _left_to_right([b5 - b4 for b5, b4 in zip(_DP_B5, _DP_B4)], col)
           for col in zip(*ks)]
    ratio = dynamics._rms([e / (atol + rtol * max(abs(a), abs(b)))
                           for e, a, b in zip(err, y, y5)])
    return y5, ratio, ks[-1]


def _linear_field(seed, y_at=None):
    """A fixed linear field and a start state (with ``y_at = (slot,
    value)`` put into it); the field spreads a NaN or inf to every slot."""
    rng = np.random.default_rng(seed)
    m = rng.uniform(-2.0, 2.0, (6, 6)).tolist()
    y = rng.uniform(-1.0, 1.0, 6).tolist()
    if y_at is not None:
        y[y_at[0]] = y_at[1]

    def make():
        def f(v):
            return [_left_to_right(row, v) for row in m]
        return f
    return make, y, make()(y)


def _scripted_stages(**at):
    """A field that ignores its argument and returns k2, ..., k7 in turn,
    with ``k<j>=(slot, value)`` put into stage j (k1 is returned as the
    start stage).  Stages are finite unless a keyword says otherwise."""
    rng = np.random.default_rng(11)
    ks = rng.uniform(-1.0, 1.0, (7, 6)).tolist()
    for name, (slot, value) in at.items():
        ks[int(name[1:]) - 1][slot] = value

    def make():
        stages = iter(ks[1:])
        return lambda v: next(stages)
    return make, rng.uniform(-1.0, 1.0, 6).tolist(), ks[0]


_DP_CASES = {
    "linear": _linear_field(10),
    "nan-state": _linear_field(10, (2, math.nan)),
    "inf-state": _linear_field(10, (4, -math.inf)),
    "finite-stages": _scripted_stages(),
    "nan-error": _scripted_stages(k7=(1, math.nan)),
    "inf-error": _scripted_stages(k7=(3, math.inf)),
    # k1_0 = inf and k3_0 = -inf: y5_0 is inf - inf = NaN while the error
    # e_0 is inf + inf = inf.  max(abs(y_0), NaN) is abs(y_0), so the ratio
    # is inf; the other argument order would make it NaN.
    "nan-y5-inf-error": _scripted_stages(k1=(0, math.inf), k3=(0, -math.inf)),
}


@pytest.mark.parametrize("case", _DP_CASES)
def test_dp_step_adds_each_stage_left_to_right(case):
    """One step equals, bit for bit, the tableau applied with each stage sum
    added left to right (no compensated sum, no BLAS), so trajectories do
    not depend on numpy or the Python version; its error ratio is bit for
    bit the RMS of ``e / (atol + rtol * max(abs(y), abs(y5)))``, with
    ``max``'s choice where a NaN or inf enters the state or the error."""
    make, y, k1 = _DP_CASES[case]
    h, atol, rtol = 0.37, 1e-11, 1e-9
    y5, ratio, k7 = _dp_reference(make(), y, h, k1, atol, rtol)
    got = dynamics._dp_step(make(), y, h, k1, atol, rtol)
    assert [v.hex() for v in got[0]] == [v.hex() for v in y5]
    assert got[1].hex() == ratio.hex()
    assert [v.hex() for v in got[2]] == [v.hex() for v in k7]
    if case == "nan-y5-inf-error":
        assert math.isnan(got[0][0]) and got[1] == math.inf


def test_rhs_is_the_integrators_flow(monkeypatch):
    """``rhs`` returns, as an array, the vector field every Dormand-Prince
    step of ``integrate`` starts from, bit for bit."""
    h, _, guard = _spherical_kepler()
    seen = []
    step = dynamics._dp_step
    monkeypatch.setattr(dynamics, "_dp_step", lambda f, y, hs, k1, atol, rtol:
                        seen.append((y, k1)) or step(f, y, hs, k1, atol, rtol))
    integrate(h, _KEPLER_STATE, IntegratorConfig(t_end=0.5), domain_guard=guard)
    assert len(seen) > 5
    for y, k1 in seen:
        v = rhs(h, PhaseState(Chart.POLAR_CONSTANT, tuple(y)))
        assert isinstance(v, np.ndarray) and v.shape == (6,)
        assert [x.hex() for x in v.tolist()] == [x.hex() for x in k1]


def test_stats_pin_first_same_as_last():
    """A failure-free dopri54 step costs six RHS evaluations after the first."""
    params, spec, h = euclidean_kepler()
    s0 = PhaseState.polar_constant(1.3, math.pi / 2, 0.0, 0.1, 0.0, 0.5)
    tr = integrate(h, s0, IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10,
                                           t_end=8.0, sample_stride=7))
    st = tr.stats
    assert st.eval_failures == 0 and st.failure_types == {}
    assert st.accepted > 100 and st.rejected > 10
    assert st.rhs_evals == 1 + 6 * (st.accepted + st.rejected)
    assert 0.0 < st.h_min <= st.h_max
    assert st.as_dict()["rhs_evals"] == st.rhs_evals
    assert integrate(h, s0, IntegratorConfig(t_end=0.0)).stats.h_min is None


def test_stats_record_swallowed_evaluation_failures():
    """Trial stages past |q1| = 1 leave the domain of sqrt(1 - q1^2); the
    integrator retries with a smaller step and counts what it caught."""
    h = 0.5 * P1 * P1 - sqrt(1.0 - Q1 * Q1)
    tr = integrate(h, PhaseState.beltrami(0.0, 0, 0, 0.9, 0, 0),
                   IntegratorConfig(rel_tol=1e-2, abs_tol=1e-2, t_end=20.0))
    st = tr.stats
    assert not tr.terminated_early
    assert st.eval_failures > 0
    assert st.failure_types == {"ValueError": st.eval_failures}
    assert st.rhs_evals > 1 + 6 * (st.accepted + st.rejected)


@pytest.mark.parametrize("h, start, reason", [
    # the first step's trial stages leave the domain |q1| <= 1 of sqrt(1 - q1^2)
    (0.5 * P1 * P1 - sqrt(1.0 - Q1 * Q1), (0.0, 0, 0, 2.0, 0, 0), "evaluation-failure"),
    # the force 4 q1^3 overflows quietly to inf at a trial stage
    (0.5 * P1 * P1 + Q1 * Q1 * Q1 * Q1, (1e80, 0, 0, 0, 0, 0), "non-finite state"),
])
def test_a_fixed_step_run_ends_at_its_first_failed_step(h, start, reason):
    """A fixed step cannot shrink, so the run ends with no accepted step."""
    tr = integrate(h, PhaseState.beltrami(*start),
                   IntegratorConfig(t_end=4.0, fixed_step=2.0))
    assert tr.terminated_early and tr.termination_reason == reason
    assert tr.stats.accepted == 0 and tr.times.tolist() == [0.0]


def test_an_adaptive_run_out_of_steps_ends_as_max_steps_exceeded():
    h = 0.5 * (P1 * P1 + Q1 * Q1)
    tr = integrate(h, PhaseState.beltrami(1.0, 0, 0, 0, 0, 0),
                   IntegratorConfig(t_end=10.0, max_steps=5))
    assert tr.terminated_early and tr.termination_reason == "max-steps-exceeded"
    assert tr.stats.accepted + tr.stats.rejected == 5
    assert tr.times[-1] < 10.0


def test_observables_on_two_charts_do_not_combine():
    r = coordinate(0, "r").with_chart(Chart.POLAR_CONSTANT)
    q = coordinate(0, "q1").with_chart(Chart.BELTRAMI)
    with pytest.raises(ChartMismatchError, match="cannot combine observables on "
                                                 "polar-constant and beltrami"):
        r + q


def test_every_family_conserves_its_constants():
    """Three seeded bounded orbits per family, t_end = 20 at tol 1e-12:
    every constant returned by the symmetry module drifts below 1e-8.
    (The full ten-orbit KeplerCC sweep lives in the acceptance suite.)"""
    cases = [
        # z < 0 for the variable-curvature families: for z > 0 their cosh
        # conformal factor accelerates escapes beyond any finite step size.
        # Free geodesics reach the rho-chart edge in finite time (nothing
        # confines them), so the free-NC runs end there cleanly; the drift is
        # asserted over the traversed span.
        (Family.FREE_NC, Chart.POLAR_VARIABLE, SpaceParams(-0.4, 1.0), True),
        (Family.KEPLER_NC, Chart.POLAR_VARIABLE,
         SpaceParams(-0.4, 1.0, gamma=0.45), False),
        (Family.FREE_CC, Chart.POLAR_CONSTANT,
         SpaceParams.preset("spherical"), False),
        (Family.KEPLER_CC, Chart.POLAR_CONSTANT,
         SpaceParams.preset("hyperbolic", gamma=0.45), False),
    ]
    rng = np.random.default_rng(77)
    for family, chart, params, allow_edge_exit in cases:
        spec = HamiltonianSpec(family, params)
        h = hamiltonian(spec, chart)
        mon = dict(constants(spec, chart))
        mon["H"] = h
        guard = chart_guard(chart, params)
        clean = 0
        tried = 0
        while clean < 3 and tried < 20:
            tried += 1
            r0 = rng.uniform(0.7, 1.2)
            th0 = rng.uniform(1.0, 1.8)
            s0 = PhaseState(chart, (r0, th0, rng.uniform(0, 6.28),
                                    rng.uniform(-0.15, 0.15),
                                    rng.uniform(-0.3, 0.3),
                                    rng.uniform(0.7, 1.0)))
            try:
                tr = integrate(h, s0,
                               IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14,
                                                t_end=20.0, sample_stride=20),
                               monitors=mon, domain_guard=guard)
            except StepUnderflowError:
                continue
            if tr.terminated_early and not (allow_edge_exit
                                            and tr.times[-1] > 2.0):
                continue
            clean += 1
            for name, d in tr.drift.items():
                assert d < 1e-8, (family, name, d)
        assert clean == 3, (family, clean, tried)


def test_kepler_nc_orbit_conserves_its_constants():
    """Variable-curvature Kepler flow in the rho chart keeps its Casimirs.

    z < 0 gives a confining radial well (for z > 0 the potential is unbounded
    below at large rho, so generic orbits escape with exponentially growing
    speed and there is nothing bounded to integrate).
    """
    params = SpaceParams(-0.4, 1.0, gamma=0.45)
    spec = HamiltonianSpec(Family.KEPLER_NC, params)
    h = hamiltonian(spec, Chart.POLAR_VARIABLE)
    mon = dict(constants(spec, Chart.POLAR_VARIABLE))
    mon["H"] = h
    s0 = PhaseState.polar_variable(1.0, 1.2, 0.4, 0.15, 0.4, 0.8)
    tr = integrate(h, s0, IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14,
                                           t_end=15.0, sample_stride=5),
                   monitors=mon,
                   domain_guard=chart_guard(Chart.POLAR_VARIABLE, params))
    assert not tr.terminated_early
    for name, d in tr.drift.items():
        assert d < 1e-9, (name, d)


def _spherical_kepler():
    params = SpaceParams.preset("spherical", gamma=0.5)
    spec = HamiltonianSpec(Family.KEPLER_CC, params)
    h = hamiltonian(spec, Chart.POLAR_CONSTANT)
    mon = dict(constants(spec, Chart.POLAR_CONSTANT))
    mon["H"] = h
    return h, mon, chart_guard(Chart.POLAR_CONSTANT, params)


_KEPLER_STATE = PhaseState.polar_constant(1.1, 1.2, 0.4, 0.2, 0.4, 0.9)
_KEPLER_CFG = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, t_end=2.0)


def test_monitor_series_are_each_observable_at_each_sample(monkeypatch):
    """The compiled values-only monitors give, at every sample, what each
    monitor's evaluator gives on that state, bit for bit; a second run with
    the same monitors lowers and compiles nothing."""
    h, mon, guard = _spherical_kepler()
    tr = integrate(h, _KEPLER_STATE, _KEPLER_CFG, monitors=mon, domain_guard=guard)
    assert len(tr.times) > 20 and list(tr.monitors) == list(mon)
    assert all(ob._values is codegen.compile_roots([ob.node], (False,), ob.binding)
               for ob in mon.values())
    for name, ob in mon.items():
        want = [ob.fn(*y.tolist()) for y in tr.states]
        assert [v.hex() for v in tr.monitors[name]] == [v.hex() for v in want], name

    lowered = []
    real = codegen._lower
    monkeypatch.setattr(codegen, "_lower", lambda *a: lowered.append(a) or real(*a))
    again = integrate(h, _KEPLER_STATE, _KEPLER_CFG, monitors=mon, domain_guard=guard)
    assert lowered == []
    assert all(np.array_equal(again.monitors[n], tr.monitors[n]) for n in mon)


def test_opaque_hamiltonians_and_monitors_follow_the_compiled_run():
    """An Observable(fn) Hamiltonian (dual evaluation), with an opaque
    monitor among graph monitors, gives the compiled run's trajectory,
    series and stats bit for bit."""
    h, mon, guard = _spherical_kepler()
    ref = integrate(h, _KEPLER_STATE, _KEPLER_CFG, monitors=mon, domain_guard=guard)
    mixed = {name: Observable(ob.fn, chart=ob.chart) if name == "C2mid" else ob
             for name, ob in mon.items()}
    assert mixed["C2mid"].node is None
    tr = integrate(Observable(h.fn, chart=h.chart), _KEPLER_STATE, _KEPLER_CFG,
                   monitors=mixed, domain_guard=guard)
    assert np.array_equal(tr.times, ref.times)
    assert np.array_equal(tr.states, ref.states)
    assert list(tr.monitors) == list(mon)
    for name in mon:
        assert np.array_equal(tr.monitors[name], ref.monitors[name]), name
    st = tr.stats
    assert st == ref.stats
    assert st.rhs_evals == 1 + 6 * (st.accepted + st.rejected)


def test_monitor_on_another_chart_raises_before_anything_is_evaluated():
    h, _, guard = _spherical_kepler()
    calls = []
    counted = Observable(lambda *s: calls.append(s) or h.fn(*s), chart=Chart.POLAR_CONSTANT)
    monitors = {"H": counted, "q1": Q1.with_chart(Chart.BELTRAMI)}
    for fixed_step in (0.0, 0.1):
        with pytest.raises(ChartMismatchError):
            integrate(counted, _KEPLER_STATE,
                      IntegratorConfig(t_end=1.0, fixed_step=fixed_step),
                      monitors=monitors, domain_guard=guard)
    assert calls == []


def test_csv_rows_are_each_number_with_17_significant_digits():
    """Every field is what ``f"{v:.17g}"`` gives, with signed zeros,
    non-finite and integer values, and a header name that needs quoting."""
    times = np.array([0.0, 1e-300, 0.1, 3.0])
    states = np.array([[1.0, -0.0, np.inf, -np.inf, np.nan, 5e-324],
                       [0.1, 0.2, 0.3, 1e17, 123456789.125, -2.5],
                       [1 / 3, 2 / 3, 1e-5, 1e-4, 1e16, 7.0],
                       [0.0, 0.0, 0.0, 0.0, 0.0, 0.0]])
    monitors = {"H": np.array([-0.5, np.nan, 0.1 + 0.2, 1e308]),
                "a,b": np.array([1, 2, -3, 0])}
    tr = Trajectory(Chart.POLAR_CONSTANT, times, states, monitors)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "r", "theta", "phi", "p_r", "p_theta", "p_phi", "H", "a,b"])
    for i, t in enumerate(times):
        writer.writerow(f"{v:.17g}" for v in [t, *states[i], monitors["H"][i],
                                              monitors["a,b"][i]])
    assert trajectory_csv(tr) == buf.getvalue()


# -- the rotation number as an accuracy oracle ---------------------------------
#
# On the equator (theta = pi/2, p_theta = 0) the radial reduction gives both
# rates of an orbit: dr/dt = A p_r and dphi/dt = 2 p_phi dh/dc3, where
# dh/dc3 = (V(r; c3) - V(r; 0)) / c3 since V is linear in c3.  So after N
# radial periods T, r and p_r return and phi has advanced by 2 pi N W, with
# the rotation number W = (advance of phi per period) / 2 pi.  T and W come
# from the radial reduction by quadrature, independently of the integrator.
# On the constant-curvature spaces the Kepler-CC flow is superintegrable
# (the LRL vector is conserved), so every bounded orbit closes: W = 1.

# T by (preset, p_r of the energy state).  At p_r = 1 the orbit is more
# eccentric: apocentre over pericentre 6.4 (spherical) and 6.9 (hyperbolic),
# against 4.8 and 4.6 at p_r = 0.2.
_CLOSED = {("spherical", 0.2): 0.848490336290, ("hyperbolic", 0.2): 0.945939559881,
           ("spherical", 1.0): 1.111967962244, ("hyperbolic", 1.0): 1.497577218803}

# Kepler-NC (T, W) by (preset, p_r): W moves with the energy, so its bounded
# orbits precess, and those with an irrational W never close.  On spherical
# its effective potential has a maximum near r = 0.8 and falls beyond it: at
# p_r = 1 the orbit passes over it and has no outer turning point.
_PRECESSING = {("spherical", 0.2): (1.0517059751, 1.0835031377),
               ("spherical", 0.5): (1.2748321203, 1.1071965337),
               ("hyperbolic", 0.2): (0.8392178677, 0.9615637742),
               ("hyperbolic", 0.5): (0.8797873341, 0.9603733122)}

# Where the outer turning point is bracketed, from r = 0.5 up.
_OUTER = {Family.KEPLER_CC: 1.5, Family.KEPLER_NC: 0.8}


def _third_law_period(p_r, gamma=0.5):
    """Kepler's third law at z = 0, the flat contraction: H = p^2 / 2 - k / r
    with k = 2 sqrt(2) gamma, so T = 2 pi a^(3/2) / sqrt(k) with a = -k / (2 E),
    E taken at r = 0.5, p_phi = 0.5 on the equator.  It reads neither the
    quadrature nor the integrator."""
    k = 2.0 * math.sqrt(2.0) * gamma
    energy = 0.5 * (p_r * p_r + (0.5 / 0.5) ** 2) - k / 0.5
    a = -k / (2.0 * energy)
    return 2.0 * math.pi * a ** 1.5 / math.sqrt(k)


_CLOSED.update({("euclidean", p_r): _third_law_period(p_r) for p_r in (0.2, 1.0)})


def _radial_period(rad, energy, r1, r2, nodes, rate=lambda r: 1.0):
    """2 * integral of rate(r) dr / sqrt(2 A(r) (E - V(r))) from r1 to r2,
    with A = 2 (h(r, 1) - h(r, 0)), by Gauss-Legendre after r = mid - half
    cos u: the integral of ``rate`` over one radial period, T itself for
    the default rate 1."""
    mid, half = 0.5 * (r1 + r2), 0.5 * (r2 - r1)
    x, w = np.polynomial.legendre.leggauss(nodes)
    terms = []
    for u, wu in zip(0.5 * math.pi * (x + 1.0), 0.5 * math.pi * w):
        r = mid - half * math.cos(u)
        a = 2.0 * (rad.hamiltonian(r, 1.0) - rad.hamiltonian(r, 0.0))
        terms.append(wu * half * math.sin(u) * rate(r)
                     / math.sqrt(2.0 * a * (energy - rad.potential(r))))
    return 2.0 * math.fsum(terms)


def _bounded_orbit(family, preset, p_r):
    """A Kepler family at gamma = 0.5 with p_phi = 0.5 on the equator of its
    polar chart, at the energy of (0.5, pi/2, 0, p_r, 0, 0.5): (h, params,
    pericentre start state, (T, W) from 200 nodes, the same from 100)."""
    params = SpaceParams.preset(preset, gamma=0.5)
    spec = HamiltonianSpec(family, params)
    chart = family.polar_chart
    h = hamiltonian(spec, chart)
    s = PhaseState(chart, (0.5, math.pi / 2, 0.0, p_r, 0.0, 0.5))
    energy = h(s)
    rad = radial_reduction(spec, constants(spec, chart)["C3"](s))
    free = radial_reduction(spec, 0.0)
    g = lambda r: rad.potential(r) - energy
    r1, r2 = _bisect(g, 1e-3, 0.5), _bisect(g, 0.5, _OUTER[family])     # turning points
    phi_rate = lambda r: 2.0 * 0.5 * (rad.potential(r) - free.potential(r)) / rad.c3
    quadratures = [(_radial_period(rad, energy, r1, r2, n),
                    _radial_period(rad, energy, r1, r2, n, phi_rate) / (2.0 * math.pi))
                   for n in (200, 100)]
    return h, params, PhaseState(chart, (r1, math.pi / 2, 0.0, 0.0, 0.0, 0.5)), *quadratures


def _closure_bound(rtol, periods):
    """1e4 rtol per radial period: at rtol 1e-12 and 1e-10 the closure
    errors were at most 9.5e-10 and 7.6e-9 over one period of the p_r = 0.2
    orbits, and 6.6e-9 and 4.8e-7 over three periods of all four (|p_r| of
    the eccentric hyperbolic orbit), 4.5x and 6x below it."""
    return periods * 1e4 * rtol


def _check_rotation(family, preset, p_r, rtol, periods):
    """After N T, r and p_r have returned and phi has advanced by 2 pi N W.
    T and W are the expected values (W = 1 for Kepler-CC), and halving the
    quadrature's nodes moves them by less than the bound, so a failure is
    the integrator's.  For Kepler-CC the LRL vector also stays on the
    pericentre's line all along (with the paper's sign, (L2, L3) points from
    the pericentre through the centre)."""
    h, params, s0, (period, rotation), coarse = _bounded_orbit(family, preset, p_r)
    bound = _closure_bound(rtol, periods)
    if family is Family.KEPLER_CC:
        assert period == pytest.approx(_CLOSED[preset, p_r], abs=1e-10)
        rotation = 1.0
    else:
        assert (period, rotation) == pytest.approx(_PRECESSING[preset, p_r], abs=1e-10)
        assert abs(coarse[1] - rotation) < bound
    assert abs(coarse[0] - period) < bound
    t_end = periods * period
    tr = integrate(h, s0, IntegratorConfig(rel_tol=rtol, abs_tol=1e-2 * rtol, t_end=t_end),
                   domain_guard=chart_guard(s0.chart, params))
    assert not tr.terminated_early and tr.times[-1] == t_end
    r, theta, phi, pr, ptheta, pphi = tr.states[-1]
    assert abs(r - s0.coords[0]) < bound and abs(pr) < bound
    assert abs(phi - 2.0 * math.pi * periods * rotation) < bound
    if family is not Family.KEPLER_CC:
        return
    vec = lrl(params)
    peri = (math.cos(s0.coords[2]), math.sin(s0.coords[2]))
    for i in range(len(tr.times)):
        state = tr.state(i)
        l2, l3 = vec.l2(state), vec.l3(state)
        norm = math.hypot(l2, l3)
        assert abs(l2 / norm + peri[0]) < bound and abs(l3 / norm + peri[1]) < bound, i


@pytest.mark.parametrize("rtol", [1e-12, 1e-10])
@pytest.mark.parametrize("preset", ["euclidean", "hyperbolic", "spherical"])
def test_bounded_kepler_orbit_closes_after_one_radial_period(preset, rtol):
    _check_rotation(Family.KEPLER_CC, preset, 0.2, rtol, 1)


@pytest.mark.parametrize("rtol", [1e-12, 1e-10])
@pytest.mark.parametrize("preset, p_r", sorted(_CLOSED))
def test_bounded_kepler_orbit_closes_after_three_radial_periods(preset, p_r, rtol):
    _check_rotation(Family.KEPLER_CC, preset, p_r, rtol, 3)


@pytest.mark.parametrize("periods", [1, 3])
@pytest.mark.parametrize("preset, p_r", sorted(_PRECESSING))
def test_bounded_kepler_nc_orbit_advances_phi_by_its_rotation_number(preset, p_r, periods):
    _check_rotation(Family.KEPLER_NC, preset, p_r, 1e-12, periods)


@pytest.mark.parametrize("preset", ["hyperbolic", "spherical"])
def test_kepler_nc_rotation_number_moves_with_the_energy(preset):
    """W at p_r = 0.2 and 0.5 differs by more than 1e-3 (by 0.024 on
    spherical, 0.0012 on hyperbolic), far beyond the quadrature's own error
    (200 against 100 nodes), so Kepler-NC's non-closure is measured: its
    orbits precess at a rate that depends on the energy."""
    (low, low_coarse), (high, high_coarse) = (
        [w for _, w in _bounded_orbit(Family.KEPLER_NC, preset, p_r)[3:]] for p_r in (0.2, 0.5))
    assert abs(low_coarse - low) < 1e-10 and abs(high_coarse - high) < 1e-10
    assert abs(high - low) > 1e-3


@pytest.mark.parametrize("preset", ["antidesitter", "minkowski", "desitter"])
def test_lorentzian_kepler_potential_has_no_inner_turning_point(preset):
    """At kappa2 < 0 the centrifugal term c3 / (2 kappa2 S_z(r)^2) attracts,
    so the effective potential falls to -inf at r = 0 and the closed-orbit
    states have no pericentre: V - E stays negative from r = 1e-3 to the
    start radius, where the bisection looks for the inner turning point."""
    params = SpaceParams.preset(preset, gamma=0.5)
    spec = HamiltonianSpec(Family.KEPLER_CC, params)
    h = hamiltonian(spec, Chart.POLAR_CONSTANT)
    for p_r in (0.2, 1.0):
        s = PhaseState.polar_constant(0.5, math.pi / 2, 0.0, p_r, 0.0, 0.5)
        rad = radial_reduction(spec, constants(spec, Chart.POLAR_CONSTANT)["C3"](s))
        assert rad.c3 > 0.0
        assert all(rad.potential(r) < h(s) for r in np.linspace(1e-3, 0.5, 200)), p_r
