"""Phase-space states, chart tags, and differentiable observables.

An ``Observable`` is a scalar field of the six phase-space slots, held as
one expression graph (:mod:`.codegen`): the arithmetic operators and the
lifted functions below build nodes, and ``Observable(fn)`` around any other
callable is an opaque leaf.  The graph's evaluator runs on floats (values)
or on ``KScalar`` duals (exact gradients), so every observable is
differentiable for free.  A call and :meth:`Observable.gradient` run
straight-line code compiled on first use, and only a graph that does not
compile runs the evaluator or the duals; :class:`Columns` compiles a table's
observables into one function.  Either way an observable has one value, bit
for bit.

The parameters z, kappa2 and gamma are graph leaves (:data:`Z`,
:data:`KAPPA2`, :data:`GAMMA`): a builder writes its formula once over
them, and an observable carries its binding, the values they take.
Combining observables bound to different values raises, as combining
charts does.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
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


class ParameterMismatchError(DomainError):
    """An operation combined observables bound to different parameter values."""


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


def _interpreted(f, grads, *coords):
    """What compiled code returns, from a graph's evaluator ``f``:
    ``(value,)`` on floats, or with ``grads`` the value and six partials on
    seeded duals (zero partials where the graph ignores the coordinates)."""
    if not grads:
        return (f(*coords),)
    out = f(*seeded(coords))
    if isinstance(out, KScalar):
        return (out.val, *out.d)
    return (float(out),) + (0.0,) * NVARS


class Columns:
    """Several observables set up once for evaluation at many states, with
    the gradient mask ``grads`` (all true by default).  Each call runs one
    compiled function for all of them (:func:`.codegen.compile_roots`), or,
    when one does not compile, the evaluator per observable and state, on
    duals only where it is flagged.

    Calling it on a list of states, with an optional ``binding`` joined to
    the observables' own, returns the values, shape ``(len(states),
    len(observables))``, and the six partials of the flagged observables, one
    C-contiguous block of shape ``(len(states), M, 6)``.  A state on another
    chart than an observable's raises ``ChartMismatchError`` first.
    """

    __slots__ = ("charts", "nodes", "grads", "binding", "at", "lanes")

    def __init__(self, observables, grads=None):
        self.charts = tuple({o.chart for o in observables} - {None})
        self.nodes = tuple([o._node for o in observables])
        self.binding = functools.reduce(joined, [o.binding for o in observables], None)
        self.grads = (True,) * len(self.nodes) if grads is None else tuple(map(bool, grads))
        # A row holds each value followed by its partials when flagged.
        lane = np.array([k for g in self.grads for k in range(1 + NVARS * g)])
        self.at, self.lanes = np.flatnonzero(lane == 0), np.flatnonzero(lane).reshape(-1, NVARS)

    @property
    def compiled(self):
        """The compiled function at the observables' own binding, or None."""
        return codegen.compile_roots(self.nodes, self.grads, self.binding)

    def __call__(self, states, binding=None):
        coords = []
        for state in states:
            for chart in self.charts:           # raises on a chart mismatch
                _coords_of(state, chart)
            coords.append(_coords_of(state, None))
        binding = joined(self.binding, binding)
        compiled = codegen.compile_roots(self.nodes, self.grads, binding)
        if compiled:
            rows = itertools.starmap(compiled, coords)
        else:
            fns = [codegen.evaluator(node, binding) for node in self.nodes]
            rows = ([x for f, g in zip(fns, self.grads) for x in _interpreted(f, g, *c)]
                    for c in coords)
        flat = np.fromiter(itertools.chain.from_iterable(rows), float).reshape(
            len(coords), len(self.at) + self.lanes.size)
        # Contiguous: matmul picks its kernel by the strides of the gathers.
        return flat.take(self.at, axis=1), np.ascontiguousarray(flat.take(self.lanes, axis=1))


def joined(a, b):
    """The binding of a combination of observables bound to ``a`` and ``b``:
    each parameter's value from whichever binds it.  Two values that differ
    in type or bits raise ParameterMismatchError."""
    if a is None or b is None or a is b:
        return b if a is None else a
    for name, x, y in zip(codegen.PARAMS, a, b):
        if x is not None and y is not None and codegen._bits(x) != codegen._bits(y):
            raise ParameterMismatchError(
                f"cannot combine observables bound to {name} = {x!r} and {name} = {y!r}")
    return tuple([y if x is None else x for x, y in zip(a, b)])


def _constant(c):
    """A new node for one use of a constant operand, a number or a parameter
    expression (whose root it copies), so each use takes its own constant slot."""
    if isinstance(c, Observable) and not c._node.dual:
        return codegen.Node(c._node.op, c._node.kids, c._node.param)
    return codegen.Node("const", param=c)


def _node_of(o):
    return o._node if isinstance(o, Observable) and o._node.dual else _constant(o)


class Observable:
    """A differentiable scalar field on phase space: an expression graph
    (:mod:`.codegen`), or ``Observable(fn)`` around a callable of the six
    coordinates, an opaque leaf.  ``+ - * / **`` against observables and
    numbers build new observables.  ``chart`` (when not None) restricts the
    states it accepts; ``binding`` holds the values of its parameter leaves,
    one per :data:`.codegen.PARAMS` slot (None where unbound), or is None.
    """

    __slots__ = ("_node", "name", "chart", "binding", "_fn", "_compiled", "_values")

    def __init__(self, fn=None, name="", chart=None, node=None, binding=None):
        self._node = codegen.Node("opaque", param=fn) if node is None else node
        self.name = name
        self.chart = chart
        self.binding = binding
        self._fn = self._compiled = self._values = None     # built on first use

    @property
    def node(self):
        """The expression graph; None for an ``Observable(fn)``, which is
        one opaque leaf and never compiled."""
        return None if self._node.op == "opaque" else self._node

    @property
    def fn(self):
        """The value as a function of the six coordinates, on floats or
        duals: the graph's evaluator at the binding (:func:`.codegen.evaluator`)."""
        if self._fn is None:
            self._fn = codegen.evaluator(self._node, self.binding)
        return self._fn

    def _code(self, grads):
        """This graph's code in one mode, kept in the mode's slot: compiled,
        or interpreted where it does not compile (an opaque leaf never tries)."""
        node, binding = self._node, self.binding
        code = (node.op != "opaque" and codegen.compile_roots([node], (grads,), binding)
                or functools.partial(_interpreted, self.fn, grads))
        setattr(self, "_compiled" if grads else "_values", code)
        return code

    def __call__(self, state):
        coords = _coords_of(state, self.chart)
        return (self._values or self._code(False))(*coords)[0]

    def gradient(self, state):
        """Exact gradient: what one 6-lane dual evaluation gives."""
        coords = _coords_of(state, self.chart)
        return np.asarray((self._compiled or self._code(True))(*coords)[1:], dtype=float)

    def value_and_gradient(self, state):
        coords = _coords_of(state, self.chart)
        out = (self._compiled or self._code(True))(*coords)
        return out[0], np.asarray(out[1:], dtype=float)

    # -- combination helpers ----------------------------------------------
    def _merge_chart(self, other):
        oc = other.chart if isinstance(other, Observable) else None
        if self.chart is None:
            return oc
        if oc is None or oc is self.chart:
            return self.chart
        raise ChartMismatchError(
            f"cannot combine observables on {self.chart.value} and {oc.value}")

    def _op(self, op, *kids, other=None, param=None):
        """``op`` over ``kids``, on the chart and binding this observable
        shares with ``other``."""
        binding = joined(self.binding, other.binding) if isinstance(other, Observable) \
            else self.binding
        return Observable(chart=self._merge_chart(other), binding=binding,
                          node=codegen.Node(op, kids, param))

    def _as_number(self, o):
        """Whether this observable stands where a number would against
        ``o``: it ignores the coordinates (a parameter expression) and ``o``
        does not, so ``Z * q`` builds the ``q * z`` that ``z * q`` builds on
        a float ``z``."""
        return not self._node.dual and isinstance(o, Observable) and o._node.dual

    def __add__(self, o):
        if self._as_number(o):
            return o + self
        return self._op("add", _node_of(self), _node_of(o), other=o)

    __radd__ = __add__

    def __neg__(self):
        return self._op("neg", self._node)

    def __sub__(self, o):
        return o.__rsub__(self) if self._as_number(o) else self + (-o)

    def __rsub__(self, o):
        return self._op("sub", _node_of(o), _node_of(self), other=o)

    def __mul__(self, o):
        if self._as_number(o):
            return o * self
        return self._op("mul", _node_of(self), _node_of(o), other=o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        return self._op("div", _node_of(self), _node_of(o), other=o)

    def __rtruediv__(self, o):
        return self._op("div", _node_of(o), _node_of(self), other=o)

    def __pow__(self, n):
        return self._op("pow", self._node, _constant(n))

    def renamed(self, name):
        return Observable(name=name, chart=self.chart, node=self._node, binding=self.binding)

    def with_chart(self, chart):
        return Observable(name=self.name, chart=chart, node=self._node, binding=self.binding)

    def __repr__(self):
        tag = f" on {self.chart.value}" if self.chart else ""
        return f"<Observable {self.name or '<anon>'}{tag}>"


# The parameter leaves z (= kappa1), kappa2 and gamma: observables that
# ignore the coordinates, whose values a binding gives.
Z, KAPPA2, GAMMA = (Observable(name=name, node=codegen.Node("param", param=i))
                    for i, name in enumerate(codegen.PARAMS))


def bound(obj, binding, **fields):
    """``obj`` (an observable, a dict of them, or a frozen dataclass that holds
    them, with ``fields`` replaced) as new objects on the same graphs, bound
    to ``binding``."""
    if isinstance(obj, Observable):
        return Observable(name=obj.name, chart=obj.chart, node=obj._node, binding=binding)
    if isinstance(obj, dict):
        return {name: bound(ob, binding) for name, ob in obj.items()}
    obs = {f.name: bound(v, binding) for f in dataclasses.fields(obj)
           if isinstance(v := getattr(obj, f.name), Observable)}
    return dataclasses.replace(obj, **{**obs, **fields})


def constant(c):
    return Observable(name=f"{c}", node=codegen.Node("const", param=c))


def coordinate(slot, name=""):
    return Observable(name=name, node=codegen.Node("coord", param=slot))


# Canonical coordinate observables on the raw (q, p) slots; chart-agnostic so
# they double as polar coordinate functions in canonicity tests.
Q1, Q2, Q3 = (coordinate(i, n) for i, n in enumerate(("q1", "q2", "q3")))
P1, P2, P3 = (coordinate(i + 3, n) for i, n in enumerate(("p1", "p2", "p3")))


def _lift(scalar_fn):
    """``scalar_fn`` on floats and duals; on an observable (the last
    argument) an ``fn`` node, or a ``kfn`` node for a curvature-labelled
    function, whose leading labels are constant kids (:func:`_constant`)."""
    op = "kfn" if scalar_fn.__name__ in kernel.KAPPA_RULES else "fn"

    def lifted(*args):
        *labels, x = args
        if isinstance(x, Observable):
            return x._op(op, *map(_constant, labels), x._node, param=scalar_fn)
        return scalar_fn(*args)

    lifted.__name__ = scalar_fn.__name__
    return lifted


exp = _lift(kernel.exp)
log = _lift(kernel.log)
sqrt = _lift(kernel.sqrt)
sin = _lift(kernel.sin)
cos = _lift(kernel.cos)
sinh = _lift(kernel.sinh)
cosh = _lift(kernel.cosh)
sinhc = _lift(kernel.sinhc)
expm1c = _lift(kernel.expm1c)
ckappa = _lift(kernel.ckappa)
skappa = _lift(kernel.skappa)
tkappa = _lift(kernel.tkappa)
cotkappa = _lift(kernel.cotkappa)


def grad(f, state):
    """Exact gradient of an observable, or of a callable as ``Observable(fn)``."""
    return (f if isinstance(f, Observable) else Observable(f)).gradient(state)


def fd_grad(f, state, h=1e-6):
    """Independent central-difference gradient oracle, error O(h^2)."""
    if not 0 < h < np.inf:
        raise ValueError("fd_grad needs 0 < h < inf")
    coords = list(_coords_of(state, f.chart if isinstance(f, Observable) else None))
    call = f.fn if isinstance(f, Observable) else f
    out = np.empty(NVARS)
    for i in range(NVARS):
        up, dn = list(coords), list(coords)
        up[i] += h
        dn[i] -= h
        out[i] = (call(*up) - call(*dn)) / (2.0 * h)
    return out
