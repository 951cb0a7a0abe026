"""Phase-space states, chart tags, and differentiable observables.

An ``Observable`` wraps a scalar function of the six phase-space slots.  The
same function body is evaluated with floats (values) or with ``KScalar``
duals (exact gradients), so every observable built from the arithmetic
operators and the lifted functions below is differentiable for free.  Those
observables also record an expression graph (:mod:`.codegen`), from which
:meth:`Observable.compile_gradient` builds straight-line gradient code for
observables evaluated many times, such as an integrated Hamiltonian.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import codegen, kernel
from .kernel import NVARS, DomainError, KScalar, seeded


class Chart(enum.Enum):
    """Coordinate chart tag carried by every phase-space point."""

    BELTRAMI = "beltrami"              # (q1, q2, q3, p1, p2, p3)
    POLAR_VARIABLE = "polar-variable"  # (rho, theta, phi, p_rho, p_theta, p_phi)
    POLAR_CONSTANT = "polar-constant"  # (r, theta, phi, p_r, p_theta, p_phi)


class ChartMismatchError(DomainError):
    """An observable or operation was fed a state in the wrong chart."""


class ChartSingularityError(DomainError):
    """A state touched a chart degeneracy (axis, pole, or domain edge)."""


@dataclass(frozen=True)
class PhaseState:
    """A point of the 6-dimensional phase space, tagged with its chart."""

    chart: Chart
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != NVARS:
            raise ValueError("PhaseState needs 6 coordinates")

    @classmethod
    def beltrami(cls, *coords):
        return cls(Chart.BELTRAMI, tuple(float(c) for c in coords))

    @classmethod
    def polar_variable(cls, *coords):
        return cls(Chart.POLAR_VARIABLE, tuple(float(c) for c in coords))

    @classmethod
    def polar_constant(cls, *coords):
        return cls(Chart.POLAR_CONSTANT, tuple(float(c) for c in coords))

    @property
    def positions(self):
        return self.coords[:3]

    @property
    def momenta(self):
        return self.coords[3:]

    def asarray(self):
        return np.asarray(self.coords, dtype=float)


def _coords_of(state, chart):
    """Extract the 6 coordinates, enforcing the chart when one is declared."""
    if isinstance(state, PhaseState):
        if chart is not None and state.chart is not chart:
            raise ChartMismatchError(
                f"observable defined on {chart.value} evaluated on {state.chart.value}")
        return state.coords
    return tuple(state)


def _value_and_gradient(fn, compiled, coords):
    """(value, gradient) of ``fn`` at ``coords``: the compiled code when there
    is one, else one evaluation on seeded duals; a result that is not a dual
    (the function ignores the coordinates) has a zero gradient."""
    if compiled:
        out = compiled(*coords)
        return out[0], np.asarray(out[1:], dtype=float)
    out = fn(*seeded(coords))
    if isinstance(out, KScalar):
        return out.val, np.asarray(out.d, dtype=float)
    return float(out), np.zeros(NVARS)


def values_and_gradients(observables, states):
    """Values and gradients of several observables at several states.

    Returns an array of shape ``(len(states), len(observables), 7)``: the
    value and the six partials of each observable at each state, as
    :meth:`Observable.value_and_gradient` gives them.  The observables with an
    expression graph are compiled together (:func:`.codegen.compile_gradients`)
    and cost one call per state; the others, and all of them when the
    compile fails, take one dual evaluation each.
    """
    charts = {o.chart for o in observables} - {None}
    coords = []
    for state in states:
        for chart in charts:                # raises on a chart mismatch
            _coords_of(state, chart)
        coords.append(_coords_of(state, None))
    out = np.empty((len(states), len(observables), 1 + NVARS))
    graphs = [j for j, o in enumerate(observables) if o.node is not None and o.node.dual]
    compiled = codegen.compile_gradients([observables[j].node for j in graphs])
    if compiled:
        rows = [compiled(*c) for c in coords]
        out[:, graphs] = np.reshape(rows, (len(states), len(graphs), 1 + NVARS))
    else:
        graphs = []
    for j, o in enumerate(observables):
        if j not in graphs:
            for i, c in enumerate(coords):
                out[i, j, 0], out[i, j, 1:] = _value_and_gradient(o.fn, None, c)
    return out


def _node_of(o):
    return o.node if isinstance(o, Observable) else codegen.const(o)


class Observable:
    """A differentiable scalar field on phase space.

    Supports ``+ - * / **`` against other observables and plain numbers; the
    result is again an observable.  ``chart`` (when not None) restricts which
    states the observable accepts.  ``node`` is the expression graph of an
    observable built by this module's operators and functions; an
    ``Observable(fn)`` around another callable has none and is never
    compiled.
    """

    __slots__ = ("fn", "name", "chart", "node", "_compiled")

    def __init__(self, fn, name="", chart=None, node=None):
        self.fn = fn
        self.name = name
        self.chart = chart
        self.node = node
        self._compiled = None      # None: not tried; False: not compilable

    def __call__(self, state):
        return self.fn(*_coords_of(state, self.chart))

    def compile_gradient(self):
        """Build straight-line value-and-gradient code once; True if built.

        Afterwards :meth:`gradient` and :meth:`value_and_gradient` run the
        compiled code, which returns what the dual evaluation returns.
        """
        if self._compiled is None:
            self._compiled = codegen.compile_gradients([self.node]) or False
        return bool(self._compiled)

    def gradient(self, state):
        """Exact gradient: compiled code if built, else one 6-lane dual evaluation."""
        return _value_and_gradient(self.fn, self._compiled,
                                   _coords_of(state, self.chart))[1]

    def value_and_gradient(self, state):
        return _value_and_gradient(self.fn, self._compiled,
                                   _coords_of(state, self.chart))

    # -- combination helpers ----------------------------------------------
    def _merge_chart(self, other):
        oc = other.chart if isinstance(other, Observable) else None
        if self.chart is None:
            return oc
        if oc is None or oc is self.chart:
            return self.chart
        raise ChartMismatchError(
            f"cannot combine observables on {self.chart.value} and {oc.value}")

    def __add__(self, o):
        node = codegen.node("add", self.node, _node_of(o))
        if isinstance(o, Observable):
            f, g = self.fn, o.fn
            return Observable(lambda *s: f(*s) + g(*s), chart=self._merge_chart(o),
                              node=node)
        f = self.fn
        return Observable(lambda *s: f(*s) + o, chart=self.chart, node=node)

    __radd__ = __add__

    def __neg__(self):
        f = self.fn
        return Observable(lambda *s: -f(*s), chart=self.chart,
                          node=codegen.node("neg", self.node))

    def __sub__(self, o):
        return self + (-o)

    def __rsub__(self, o):
        f = self.fn
        return Observable(lambda *s: o - f(*s), chart=self.chart,
                          node=codegen.node("sub", _node_of(o), self.node))

    def __mul__(self, o):
        if o is self:
            f = self.fn

            def square(*s):
                v = f(*s)
                return v * v
            return Observable(square, chart=self.chart,
                              node=codegen.node("square", self.node))
        node = codegen.node("mul", self.node, _node_of(o))
        if isinstance(o, Observable):
            f, g = self.fn, o.fn
            return Observable(lambda *s: f(*s) * g(*s), chart=self._merge_chart(o),
                              node=node)
        f = self.fn
        return Observable(lambda *s: f(*s) * o, chart=self.chart, node=node)

    __rmul__ = __mul__

    def __truediv__(self, o):
        node = codegen.node("div", self.node, _node_of(o))
        if isinstance(o, Observable):
            f, g = self.fn, o.fn
            return Observable(lambda *s: f(*s) / g(*s), chart=self._merge_chart(o),
                              node=node)
        f = self.fn
        return Observable(lambda *s: f(*s) / o, chart=self.chart, node=node)

    def __rtruediv__(self, o):
        f = self.fn
        return Observable(lambda *s: o / f(*s), chart=self.chart,
                          node=codegen.node("div", _node_of(o), self.node))

    def __pow__(self, n):
        f = self.fn
        node = codegen.node("pow", self.node, param=n) if codegen.number(n) else None
        return Observable(lambda *s: f(*s) ** n, chart=self.chart, node=node)

    def renamed(self, name):
        return Observable(self.fn, name=name, chart=self.chart, node=self.node)

    def with_chart(self, chart):
        return Observable(self.fn, name=self.name, chart=chart, node=self.node)

    def __repr__(self):
        tag = f" on {self.chart.value}" if self.chart else ""
        return f"<Observable {self.name or '<anon>'}{tag}>"


def constant(c):
    return Observable(lambda *s: c, name=f"{c}", node=codegen.const(c))


def coordinate(slot, name="", chart=None):
    return Observable(lambda *s: s[slot], name=name, chart=chart,
                      node=codegen.coord(slot))


# Canonical coordinate observables on the raw (q, p) slots; chart-agnostic so
# they double as polar coordinate functions in canonicity tests.
Q1, Q2, Q3 = (coordinate(i, n) for i, n in enumerate(("q1", "q2", "q3")))
P1, P2, P3 = (coordinate(i + 3, n) for i, n in enumerate(("p1", "p2", "p3")))


def _lift1(scalar_fn, fname):
    def lifted(x):
        if isinstance(x, Observable):
            f = x.fn
            return Observable(lambda *s: scalar_fn(f(*s)), chart=x.chart,
                              node=codegen.node("fn", x.node, param=fname))
        return scalar_fn(x)

    lifted.__name__ = fname
    return lifted


exp = _lift1(kernel.exp, "exp")
log = _lift1(kernel.log, "log")
sqrt = _lift1(kernel.sqrt, "sqrt")
sin = _lift1(kernel.sin, "sin")
cos = _lift1(kernel.cos, "cos")
sinh = _lift1(kernel.sinh, "sinh")
cosh = _lift1(kernel.cosh, "cosh")
sinhc = _lift1(kernel.sinhc, "sinhc")
expm1c = _lift1(kernel.expm1c, "expm1c")


def _lift_kappa(scalar_fn, fname):
    def lifted(kappa, x):
        if isinstance(x, Observable):
            f = x.fn
            node = (codegen.node("kfn", x.node, param=(fname, kappa))
                    if codegen.number(kappa) else None)
            return Observable(lambda *s: scalar_fn(kappa, f(*s)), chart=x.chart,
                              node=node)
        return scalar_fn(kappa, x)

    lifted.__name__ = fname
    return lifted


ckappa = _lift_kappa(kernel.ckappa, "ckappa")
skappa = _lift_kappa(kernel.skappa, "skappa")
tkappa = _lift_kappa(kernel.tkappa, "tkappa")
cotkappa = _lift_kappa(kernel.cotkappa, "cotkappa")


def grad(f, state):
    """Exact gradient of an observable at a state (dual-number propagation)."""
    if isinstance(f, Observable):
        return f.gradient(state)
    return _value_and_gradient(f, None, _coords_of(state, None))[1]


def fd_grad(f, state, h=1e-6):
    """Independent central-difference gradient oracle, error O(h^2)."""
    if h <= 0:
        raise ValueError("fd_grad needs h > 0")
    coords = list(_coords_of(state, f.chart if isinstance(f, Observable) else None))
    call = f.fn if isinstance(f, Observable) else f
    out = np.empty(NVARS)
    for i in range(NVARS):
        up = list(coords)
        dn = list(coords)
        up[i] += h
        dn[i] -= h
        out[i] = (call(*up) - call(*dn)) / (2.0 * h)
    return out
