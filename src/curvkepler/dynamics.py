"""Hamiltonian flows: exact-gradient vector fields and adaptive integration.

The right-hand side comes straight from the exact gradient of the
Hamiltonian observable, so any observable the library can build can also be
integrated; ``integrate`` compiles that gradient to straight-line code once
per Hamiltonian (opaque observables keep the dual-number evaluation).  The
default stepper is an embedded Dormand-Prince 5(4) pair that reuses its last
stage as the next step's first (six RHS evaluations per step); a fixed-step
implicit midpoint rule is available behind the same interface for long
symplectic-ish runs.  Conservation is asserted by monitoring, not by
structure: every sampled step evaluates the requested monitor observables,
each compiled once to straight-line values-only code (:mod:`.codegen`) that
gives what its evaluator gives, and the trajectory carries their maximum
relative drift.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .kernel import DomainError
from .phase import (Chart, ChartSingularityError, Observable, PhaseState,
                    _coords_of)

__all__ = [
    "rhs", "IntegratorConfig", "StepStats", "Trajectory", "StepUnderflowError",
    "integrate", "drift_report", "trajectory_csv",
]


# The flow (dH/dp, -dH/dq) as slots of the gradient (dH/dq, dH/dp) and
# their signs; multiplying by -1.0 negates exactly.
_FLOW_SLOTS = np.array([3, 4, 5, 0, 1, 2])
_FLOW_SIGNS = np.array([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])


def _flow(g):
    """(dH/dp, -dH/dq) from the gradient array (dH/dq, dH/dp)."""
    return g[_FLOW_SLOTS] * _FLOW_SIGNS


def rhs(h, state):
    """Hamiltonian vector field (dq/dt, dp/dt) = (dH/dp, -dH/dq)."""
    return _flow(h.gradient(state) if isinstance(h, Observable) else h(state))


class StepUnderflowError(RuntimeError):
    """The step size fell below 1e-14 t_end.

    The message says why: the error control shrank the step (a singularity
    is near), or evaluations kept failing, with the last failure's class and
    message.  Carries the partial trajectory accumulated so far in
    ``.trajectory``.
    """

    def __init__(self, message, trajectory):
        super().__init__(message)
        self.trajectory = trajectory


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    t_end: float = 10.0
    max_step: float = math.inf
    sample_stride: int = 1
    method: str = "dopri54"          # or "implicit-midpoint"
    fixed_step: float = 0.0          # > 0 disables adaptivity
    max_steps: int = 5_000_000

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise DomainError("tolerances must be positive and finite")
        if not 0 <= self.t_end < math.inf:
            raise DomainError("t_end must be finite and >= 0")
        if math.isnan(self.max_step):
            raise DomainError("max_step must not be NaN")
        if self.max_step <= 0:
            raise DomainError("max_step must be > 0 (inf for no limit)")
        if not math.isfinite(self.fixed_step):
            raise DomainError("fixed_step must be finite")
        if self.sample_stride < 1:
            raise DomainError("sample_stride must be >= 1")
        if self.method not in ("dopri54", "implicit-midpoint"):
            raise DomainError(f"unknown method {self.method!r}")
        if self.method == "implicit-midpoint" and self.fixed_step <= 0:
            raise DomainError("implicit midpoint needs fixed_step > 0")


@dataclass
class StepStats:
    """What one integration run did, step by step.

    ``rejected`` counts steps refused by the error control or for a
    non-finite result; ``eval_failures`` counts steps abandoned because an
    RHS evaluation raised, with ``failure_types`` counting them by exception
    class name.  ``h_min`` / ``h_max`` range over accepted steps (None until
    one is accepted).  A failure-free dopri54 run costs
    ``rhs_evals == 1 + 6 * (accepted + rejected)``.
    """

    accepted: int = 0
    rejected: int = 0
    eval_failures: int = 0
    failure_types: dict = field(default_factory=dict)
    rhs_evals: int = 0
    h_min: float | None = None
    h_max: float | None = None

    def accept(self, h):
        h = float(h)
        self.accepted += 1
        self.h_min = h if self.h_min is None else min(self.h_min, h)
        self.h_max = h if self.h_max is None else max(self.h_max, h)

    def eval_failure(self, err):
        self.eval_failures += 1
        name = type(err).__name__
        self.failure_types[name] = self.failure_types.get(name, 0) + 1

    def as_dict(self):
        return asdict(self)


@dataclass
class Trajectory:
    """Sampled phase states with per-sample invariant values."""

    chart: Chart
    times: np.ndarray
    states: np.ndarray                      # (n, 6)
    monitors: dict = field(default_factory=dict)
    terminated_early: bool = False
    termination_reason: str = ""
    stats: StepStats = field(default_factory=StepStats)

    def __post_init__(self):
        if len(self.times) != len(self.states):
            raise ValueError("times and states must align")
        if np.any(np.diff(self.times) <= 0) and len(self.times) > 1:
            raise ValueError("times must be strictly increasing")

    def state(self, i):
        return PhaseState(self.chart, tuple(self.states[i]))

    @property
    def drift(self):
        """Max relative drift per monitor: max |v(t) - v(0)| / max(|v(0)|, 1)."""
        return {name: rep["max_drift"] for name, rep in drift_report(self).items()}


# Dormand-Prince 5(4) tableau (the ode45 pair).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = _DP_B5 - _DP_B4


def _dp_step(f, t, y, h, k0):
    """One Dormand-Prince step from y with k0 = f(t, y) already known.

    The pair is first-same-as-last: the fifth-order solution is the stage-7
    argument, so the returned f(t + h, y5) is the next step's k0 and a step
    costs six RHS evaluations.  Returns (y5, error estimate, f(t + h, y5)).
    """
    k = np.empty((7, y.size))
    k[0] = k0
    for i in range(1, 6):
        k[i] = f(t + _DP_C[i] * h, y + h * (_DP_A[i] @ k[:i]))
    y5 = y + h * (_DP_A[6] @ k[:6])
    k[6] = f(t + h, y5)
    return y5, h * (_DP_E @ k), k[6]


def _midpoint_step(f, t, y, h, tol=1e-14, iters=60):
    """One implicit midpoint step; None if the fixed-point iteration for the
    midpoint does not converge to ``tol`` within ``iters`` updates."""
    ym = y + 0.5 * h * f(t, y)
    for _ in range(iters):
        ynew = y + 0.5 * h * f(t + 0.5 * h, ym)
        if np.max(np.abs(ynew - ym)) < tol:
            return y + h * f(t + 0.5 * h, ynew)
        ym = ynew
    return None


def _initial_step(f, t0, y0, cfg):
    """Starting step size, and f(t0, y0) for the first Dormand-Prince step."""
    sc = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
    f0 = f(t0, y0)
    d0 = np.sqrt(np.mean((y0 / sc) ** 2))
    d1 = np.sqrt(np.mean((f0 / sc) ** 2))
    h0 = 0.01 * d0 / d1 if d0 > 1e-5 and d1 > 1e-5 else 1e-6
    return min(h0, cfg.max_step, cfg.t_end if cfg.t_end > 0 else h0), f0


def integrate(h, s0, cfg, monitors=None, domain_guard=None):
    """Integrate a Hamiltonian flow from s0 and monitor invariants.

    ``monitors`` maps names to observables evaluated every sampled step.
    ``domain_guard`` maps raw coordinates to a reason string when the state
    has entered the epsilon-neighborhood of a chart singularity; the run
    then terminates cleanly with the reason recorded.  A start state the
    guard rejects raises :class:`ChartSingularityError` before anything is
    evaluated; a Hamiltonian or monitor observable declared on another
    chart than ``s0``'s raises ``ChartMismatchError`` there too.  A
    step-size underflow (h < 1e-14 t_end) raises :class:`StepUnderflowError`
    carrying the partial trajectory and the reason; an implicit midpoint
    step that does not converge ends the run early.

    An :class:`Observable` ``h`` gets its gradient compiled and every
    monitor its values-only code (once each; the code is kept on the
    observable), so each RHS evaluation is one ``h.gradient`` call and each
    sample one call per monitor, all running straight-line code on
    ``y.tolist()``.
    """
    if domain_guard is not None:
        reason = domain_guard(s0.coords)
        if reason is not None:
            raise ChartSingularityError(f"start state is singular: {reason}")
    chart = s0.chart
    if isinstance(h, Observable):
        _coords_of(s0, h.chart)         # a chart mismatch raises here, once
        h.compile_gradient()
        gradient = h.gradient
    else:
        def gradient(coords):
            return h(PhaseState(chart, tuple(coords)))
    monitors = dict(monitors or {})
    for ob in monitors.values():
        _coords_of(s0, ob.chart)        # and here for a monitor
        ob.compile_values()
    stats = StepStats()
    last_failure = None

    # Coordinates go in as y.tolist(): observables run faster on Python
    # floats than on np.float64 coordinates, with identical values.
    def f(t, y):
        stats.rhs_evals += 1
        return _flow(gradient(y.tolist()))

    times, states = [], []
    series = {name: [] for name in monitors}

    def record(t, y):
        times.append(t)
        states.append(y.copy())
        coords = y.tolist()
        for name, ob in monitors.items():
            series[name].append(ob(coords))

    def build(early=False, reason=""):
        return Trajectory(chart, np.asarray(times),
                          np.asarray(states),
                          {n: np.asarray(v) for n, v in series.items()},
                          terminated_early=early, termination_reason=reason,
                          stats=stats)

    y = s0.asarray()
    t = 0.0
    record(t, y)

    if cfg.t_end == 0.0:
        return build()

    fixed = cfg.fixed_step > 0
    k0 = None                 # f(t, y), carried between Dormand-Prince steps
    if fixed:
        hstep = cfg.fixed_step
    else:
        hstep, k0 = _initial_step(f, t, y, cfg)
    underflow = 1e-14 * cfg.t_end
    for _ in range(cfg.max_steps):
        remaining = cfg.t_end - t
        if remaining <= underflow:      # done up to float resolution
            break
        hstep = min(hstep, remaining, cfg.max_step)
        if not fixed and hstep < underflow:
            if last_failure is None:
                why = (": the error control shrank the step over "
                       f"{stats.accepted} accepted and {stats.rejected} rejected steps")
            else:
                why = (f" after {stats.eval_failures} evaluation failures (last: "
                       f"{type(last_failure).__name__}: {last_failure})")
            raise StepUnderflowError(
                f"step size {hstep:.3e} underflowed at t = {t:.6g}{why}",
                build(early=True, reason="step-underflow"))
        try:
            if cfg.method == "implicit-midpoint":
                ynew = _midpoint_step(f, t, y, hstep)
                if ynew is None:
                    return build(early=True, reason="midpoint-not-converged")
                knew, err_ratio = None, 0.0
            else:
                if k0 is None:
                    k0 = f(t, y)
                ynew, err, knew = _dp_step(f, t, y, hstep, k0)
                sc = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(ynew))
                err_ratio = math.sqrt(float(np.mean((err / sc) ** 2)))
        except (ValueError, FloatingPointError, ZeroDivisionError,
                OverflowError) as exc:
            # A trial stage left the observable's domain: reject and retry.
            stats.eval_failure(exc)
            last_failure = exc
            if fixed:
                return build(early=True, reason="evaluation-failure")
            hstep *= 0.25
            continue
        if not np.all(np.isfinite(ynew)):
            stats.rejected += 1
            if fixed:
                return build(early=True, reason="non-finite state")
            hstep *= 0.25
            continue
        if fixed or err_ratio <= 1.0:
            t += hstep
            y, k0 = ynew, knew
            stats.accept(hstep)
            if domain_guard is not None:
                reason = domain_guard(y)
                if reason is not None:
                    record(t, y)
                    return build(early=True, reason=reason)
            if stats.accepted % cfg.sample_stride == 0 or t >= cfg.t_end:
                record(t, y)
        else:
            stats.rejected += 1
        if not fixed:
            factor = 0.9 * err_ratio ** -0.2 if err_ratio > 0 else 5.0
            hstep *= min(5.0, max(0.2, factor))
    else:
        return build(early=True, reason="max-steps-exceeded")
    if times[-1] < t:
        record(t, y)
    return build()


def drift_report(trajectory):
    """Per-monitor maximum relative drift and the time it occurs."""
    if len(trajectory.times) == 0:
        raise ValueError("empty trajectory")
    out = {}
    for name, series in trajectory.monitors.items():
        ref = series[0]
        dev = np.abs(series - ref) / max(abs(ref), 1.0)
        i = int(np.argmax(dev))
        out[name] = {"max_drift": float(dev[i]),
                     "t_worst": float(trajectory.times[i])}
    return out


_POLAR_HEADER = ("t", "r", "theta", "phi", "p_r", "p_theta", "p_phi")


def trajectory_csv(trajectory):
    """Render a polar-chart trajectory as RFC-4180 CSV (17 significant digits)."""
    if trajectory.chart is Chart.BELTRAMI:
        raise DomainError("CSV export is defined for polar-chart trajectories; "
                          "transform Beltrami states first")
    buf = io.StringIO()
    names = list(trajectory.monitors)
    csv.writer(buf, lineterminator="\n").writerow(list(_POLAR_HEADER) + names)
    # A number written with %.17g never needs quoting, so each data row is
    # one format operation over the columns' Python floats.
    row = ",".join(["%.17g"] * (len(_POLAR_HEADER) + len(names))) + "\n"
    cols = [trajectory.times, *np.transpose(trajectory.states),
            *(trajectory.monitors[n] for n in names)]
    buf.writelines(row % r for r in zip(*(np.asarray(c).tolist() for c in cols)))
    return buf.getvalue()

