"""Hamiltonian flows: exact-gradient vector fields and adaptive integration.

The right-hand side comes straight from the exact gradient of the
Hamiltonian observable, so any observable the library can build can also be
integrated; that gradient is straight-line code the observable compiles on
first use (opaque observables keep the dual-number evaluation).  The
default stepper is an embedded Dormand-Prince 5(4) pair that reuses its last
stage as the next step's first (six RHS evaluations per step); a fixed-step
implicit midpoint rule is available behind the same interface for long
symplectic-ish runs.  Both steppers run on lists of six Python floats; the
Dormand-Prince step is straight-line code generated from its tableau, each
stage sum written out slot by slot and added left to right, so a trajectory's
bits depend on neither numpy's BLAS nor the Python version; the step's error
ratio (the RMS of the scaled error estimate that the step-size control
reads) is generated into the same code.  Conservation is
asserted by monitoring, not by structure: every sampled step evaluates the
requested monitor observables, each running the values-only code it
compiles on first use (:mod:`.codegen`), which gives what its evaluator
gives, and the trajectory carries their maximum relative drift.
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


def _flow(g):
    """(dH/dp, -dH/dq) as a list of floats from the gradient array (dH/dq, dH/dp)."""
    g0, g1, g2, g3, g4, g5 = g.tolist()
    return [g3, g4, g5, -g0, -g1, -g2]


def _gradient_of(h):
    """``h.gradient``; a Hamiltonian that is not an Observable raises TypeError."""
    if not isinstance(h, Observable):
        raise TypeError(f"h is a {type(h).__name__}, not an Observable: wrap it as Observable(fn)")
    return h.gradient


def rhs(h, state):
    """Hamiltonian vector field (dq/dt, dp/dt) = (dH/dp, -dH/dq) of an Observable."""
    return np.array(_flow(_gradient_of(h)(state)))


class StepUnderflowError(RuntimeError):
    """The step size fell below 1e-14 t_end.

    The message says why: the starting step estimate was already too small
    (the vector field at the start state is too large), the error control
    shrank the step (a singularity is near), or evaluations went on failing,
    with the last failure's class and message.  Carries the partial
    trajectory accumulated so far in ``.trajectory``.
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
        if self.max_step <= 0 or self.max_step < 1e-14 * self.t_end:
            raise DomainError("max_step must be > 0 and >= 1e-14 t_end "
                              "(inf for no limit)")
        if not 0 <= self.fixed_step < math.inf:
            raise DomainError("fixed_step must be finite and >= 0 (0 for adaptive steps)")
        if not isinstance(self.max_steps, int):
            raise DomainError(f"max_steps must be an int, not {self.max_steps!r}")
        step = min(self.fixed_step or math.inf, self.max_step)
        if self.t_end > self.max_steps * step:
            raise DomainError(f"t_end is past max_steps * step = {self.max_steps} * {step!r}")
        if not isinstance(self.sample_stride, int) or self.sample_stride < 1:
            raise DomainError(f"sample_stride must be an int >= 1, not {self.sample_stride!r}")
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
        # What min() and max() keep, without the calls: the old bound
        # unless h is strictly beyond it.
        h = float(h)
        self.accepted += 1
        if self.h_min is None or h < self.h_min:
            self.h_min = h
        if self.h_max is None or h > self.h_max:
            self.h_max = h

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
        return PhaseState(self.chart, tuple(self.states[i].tolist()))

    @property
    def drift(self):
        """Max relative drift per monitor: max |v(t) - v(0)| / max(|v(0)|, 1)."""
        return {name: rep["max_drift"] for name, rep in drift_report(self).items()}


# The Dormand-Prince 5(4) tableau (Hairer-Norsett-Wanner, Table II.5.2) as
# the sums over k1..k7 of stages 2 to 6, the fifth-order solution and the
# error estimate.  Python folds each p / q to one float.
_DP_SUMS = (
    "1 / 5 * {1}",
    "3 / 40 * {1} + 9 / 40 * {2}",
    "44 / 45 * {1} - 56 / 15 * {2} + 32 / 9 * {3}",
    "19372 / 6561 * {1} - 25360 / 2187 * {2} + 64448 / 6561 * {3} - 212 / 729 * {4}",
    "9017 / 3168 * {1} - 355 / 33 * {2} + 46732 / 5247 * {3} + 49 / 176 * {4}"
    " - 5103 / 18656 * {5}",
    "35 / 384 * {1} + 500 / 1113 * {3} + 125 / 192 * {4} - 2187 / 6784 * {5}"
    " + 11 / 84 * {6}",
    "71 / 57600 * {1} - 71 / 16695 * {3} + 71 / 1920 * {4} - 17253 / 339200 * {5}"
    " + 22 / 525 * {6} - 1 / 40 * {7}",
)


def _dp_source():
    """Source of ``_dp_step(f, y, h, k1, atol, rtol)``: one Dormand-Prince 5(4)
    step from y with k1 = f(y) known, returning (y5, error ratio, f(y5)).
    First same as last: f(y5) is the next step's k1, so a step costs six RHS
    evaluations.  y and each stage are unpacked into named floats (``y_i``,
    ``kj_i``) and each sum of ``_DP_SUMS`` is written out slot by slot, left
    to right.  The error ratio is the RMS over the slots of
    ``e_i / (atol + rtol * m_i)``, where e_i is the error estimate and m_i is
    ``max(abs(y_i), abs(y5_i))`` written as ``max`` computes it (the first
    argument unless the second is greater, so a NaN in y_i wins)."""
    def names(v):
        return ", ".join(f"{v}_{i}" for i in range(6))

    def sums(head, terms):
        return [head.format(i) + "(" + terms.format(*(f"k{j}_{i}" for j in range(8))) + ")"
                for i in range(6)]
    *stages, fifth, error = _DP_SUMS
    lines = [f"{names('y')} = y", f"{names('k1')} = k1"]
    lines += [f"{names(f'k{j}')} = f([{', '.join(sums('y_{} + h * ', terms))}])"
              for j, terms in enumerate(stages, 2)]
    lines += [f"{names('n')} = {', '.join(sums('y_{} + h * ', fifth))}",
              f"ynew = [{names('n')}]", "k7 = f(ynew)", f"{names('k7')} = k7"]
    for i, e in enumerate(sums("h * ", error)):
        lines += [f"a_{i} = abs(y_{i})", f"b_{i} = abs(n_{i})",
                  f"s_{i} = {e} / (atol + rtol * (b_{i} if b_{i} > a_{i} else a_{i}))"]
    squares = " + ".join(f"s_{i} * s_{i}" for i in range(6))
    lines.append(f"return ynew, math.sqrt(({squares}) / 6), k7")
    return "def _dp_step(f, y, h, k1, atol, rtol):\n    " + "\n    ".join(lines)


exec(compile(_dp_source(), "<dormand-prince step>", "exec"), globals())


# The implicit midpoint's fixed-point iteration: its convergence tolerance
# and the most updates it makes before the step fails.
_MIDPOINT_TOL = 1e-14
_MIDPOINT_ITERS = 60


def _midpoint_step(f, y, h):
    """One implicit midpoint step; None if the fixed-point iteration for the
    midpoint does not converge to ``_MIDPOINT_TOL`` within ``_MIDPOINT_ITERS``
    updates."""
    ym = [a + 0.5 * h * b for a, b in zip(y, f(y))]
    for _ in range(_MIDPOINT_ITERS):
        ynew = [a + 0.5 * h * b for a, b in zip(y, f(ym))]
        if all(abs(a - b) < _MIDPOINT_TOL for a, b in zip(ynew, ym)):
            return [a + h * b for a, b in zip(y, f(ynew))]
        ym = ynew
    return None


def _rms(v):
    """Root mean square of six floats (inf if a square overflows)."""
    v0, v1, v2, v3, v4, v5 = v
    return math.sqrt((v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3 + v4 * v4 + v5 * v5) / 6)


def _initial_step(f, y0, cfg):
    """Starting step size, and f(y0) for the first Dormand-Prince step.  It
    falls below the floor 1e-14 t_end for a vector field too large for the
    state, or for an ordinary one when t_end is long.  A state norm that
    overflows (tolerances near 1e-300) takes the fallback step, where
    ``inf / inf`` made it NaN."""
    sc = [cfg.abs_tol + cfg.rel_tol * abs(a) for a in y0]
    f0 = f(y0)
    d0 = _rms([a / s for a, s in zip(y0, sc)])
    d1 = _rms([a / s for a, s in zip(f0, sc)])
    h0 = (0.01 * d0 / d1 if 1e-5 < d0 < math.inf and d1 > 1e-5
          else max(1e-6, 1e-14 * cfg.t_end))
    return min(h0, cfg.max_step, cfg.t_end), f0


def integrate(h, s0, cfg, monitors=None, domain_guard=None):
    """Integrate a Hamiltonian flow from s0 and monitor invariants.

    ``monitors`` maps names to observables evaluated every sampled step.
    ``domain_guard`` maps raw coordinates to a reason string when the state
    has entered the epsilon-neighborhood of a chart singularity; the run
    then terminates cleanly with the reason recorded.  A guard from
    :func:`.spaces.chart_guard` also ends the run when a function that
    vanishes on the singular set changes sign between two accepted states
    (a step over the singular set), with a reason that names the crossing.
    A start state with a non-finite coordinate raises :class:`DomainError`
    naming it, and one the guard rejects :class:`ChartSingularityError`,
    before anything is evaluated; a Hamiltonian or monitor observable
    declared on another chart than ``s0``'s raises ``ChartMismatchError``
    there too.  A step-size underflow (h < 1e-14 t_end) raises
    :class:`StepUnderflowError` carrying the partial trajectory and the
    reason; an implicit midpoint step that does not converge ends the run
    early.

    ``h`` is an :class:`Observable`; anything else raises TypeError first.
    Each RHS evaluation is one ``h.gradient`` call and each sample one call
    per monitor, all on the state, a list of six floats (as are the stages:
    a step makes no numpy call).
    """
    gradient = _gradient_of(h)
    s0.finite("start state")
    # guard(c, signs before) -> (reason, signs at c); only a chart_guard
    # watches for sign changes between accepted states.
    guard = getattr(domain_guard, "step", None)
    if guard is None and domain_guard is not None:
        def guard(c, before):
            return domain_guard(c), None
    signs = None
    if guard is not None:
        reason, signs = guard(s0.coords, None)
        if reason is not None:
            raise ChartSingularityError(f"start state is singular: {reason}")
    monitors = dict(monitors or {})
    for ob in (h, *monitors.values()):
        _coords_of(s0, ob.chart)        # a chart mismatch raises here, once
    stats = StepStats()
    last_failure = None

    def f(y):
        stats.rhs_evals += 1
        return _flow(gradient(y))

    times, states = [], []
    series = {name: [] for name in monitors}

    def record(t, y):
        times.append(t)
        states.append(y)
        for name, ob in monitors.items():
            series[name].append(ob(y))

    def build(early=False, reason=""):
        return Trajectory(s0.chart, np.asarray(times), np.asarray(states),
                          {n: np.asarray(v) for n, v in series.items()},
                          terminated_early=early, termination_reason=reason,
                          stats=stats)

    y = s0.asarray().tolist()
    t = 0.0
    record(t, y)

    if cfg.t_end == 0.0:
        return build()

    fixed = cfg.fixed_step > 0
    midpoint = cfg.method == "implicit-midpoint"
    t_end, max_step, stride = cfg.t_end, cfg.max_step, cfg.sample_stride
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    # k1 = f(y), carried between Dormand-Prince steps
    hstep, k1 = (cfg.fixed_step, None) if fixed else _initial_step(f, y, cfg)
    underflow = 1e-14 * t_end
    for _ in range(cfg.max_steps):
        remaining = t_end - t
        if remaining <= underflow:      # done up to float resolution
            break
        hstep = min(hstep, remaining, max_step)
        if not fixed and hstep < underflow:
            if last_failure is not None:
                why = (f" after {stats.eval_failures} evaluation failures (last: "
                       f"{type(last_failure).__name__}: {last_failure})")
            elif stats.accepted or stats.rejected:
                why = (": the error control shrank the step over "
                       f"{stats.accepted} accepted and {stats.rejected} rejected steps")
            elif hstep >= 1e-14:        # clears the floor at t_end = 1: a long t_end set it
                why = (f": the starting step estimate {hstep:.3e} is below the floor "
                       f"1e-14 t_end = {underflow:.3e} at t_end = {t_end:.6g}")
            else:
                why = (": the starting step estimate underflowed because the "
                       "vector field at the start state is too large")
            raise StepUnderflowError(
                f"step size {hstep:.3e} underflowed at t = {t:.6g}{why}",
                build(early=True, reason="step-underflow"))
        try:
            if midpoint:
                ynew = _midpoint_step(f, y, hstep)
                if ynew is None:
                    return build(early=True, reason="midpoint-not-converged")
                knew, err_ratio = None, 0.0
            else:
                if k1 is None:
                    k1 = f(y)
                ynew, err_ratio, knew = _dp_step(f, y, hstep, k1, atol, rtol)
        except (ValueError, FloatingPointError, ZeroDivisionError,
                OverflowError) as exc:
            # A trial stage left the observable's domain: reject and retry.
            stats.eval_failure(exc)
            last_failure = exc
            if fixed:
                return build(early=True, reason="evaluation-failure")
            hstep *= 0.25
            continue
        if not all(map(math.isfinite, ynew)):
            stats.rejected += 1
            if fixed:
                return build(early=True, reason="non-finite state")
            hstep *= 0.25
            continue
        if fixed or err_ratio <= 1.0:
            t += hstep
            y, k1 = ynew, knew
            stats.accept(hstep)
            if guard is not None:
                reason, signs = guard(y, signs)
                if reason is not None:
                    record(t, y)
                    return build(early=True, reason=reason)
            if stats.accepted % stride == 0 or t >= t_end:
                record(t, y)
        else:
            stats.rejected += 1
        if not fixed:
            factor = 0.9 * err_ratio ** -0.2 if err_ratio > 0 else 5.0
            hstep *= min(5.0, max(0.2, factor))
    else:
        if t_end - t > underflow:       # the last allowed step may end the run
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

