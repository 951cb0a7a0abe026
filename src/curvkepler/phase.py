"""Phase-space states, chart tags, and differentiable observables.

An ``Observable`` is a scalar field of the six phase-space slots, held as
one expression graph (:mod:`.codegen`): the arithmetic operators and the
lifted functions below build nodes, and ``Observable(fn)`` around any other
callable is an opaque leaf.  The graph's evaluator runs on floats (values)
or on ``KScalar`` duals (exact gradients), so every observable is
differentiable for free.  An observable compiles on first use: a call
builds straight-line values-only code (an orbit's monitors) and
:meth:`Observable.gradient` gradient code (an integrated Hamiltonian), and
only a graph that does not compile runs the evaluator or the duals;
:class:`Columns` compiles a table's observables into one function, all of
them or none, partials only where a mask asks.  An observable has one value:
the evaluator on floats or duals and compiled code under any mask give it
bit for bit, and compiled partials are the dual evaluation's.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import inspect
import itertools
import struct
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


def _interpreted(node, grads, *coords):
    """What compiled code returns, from the graph's evaluator: ``(value,)``
    on floats, or with ``grads`` the value and six partials on seeded duals
    (zero partials where the graph ignores the coordinates)."""
    if not grads:
        return (codegen.evaluator(node)(*coords),)
    out = codegen.evaluator(node)(*seeded(coords))
    if isinstance(out, KScalar):
        return (out.val, *out.d)
    return (float(out),) + (0.0,) * NVARS


class Columns:
    """Several observables set up once for evaluation at many states: their
    charts, their graphs, the gradient mask ``grads`` (all true by default)
    and one compiled function for all of them (:func:`.codegen.compile_roots`),
    or None when one of them does not compile, in which case each state
    takes one evaluation per observable, on duals only where it is flagged.

    Calling it on a list of states returns the values, shape ``(len(states),
    len(observables))``, and the six partials of the flagged observables in
    order, one C-contiguous block of shape ``(len(states), M, 6)``, as
    :meth:`Observable.value_and_gradient` gives them.  A state on another
    chart than an observable's raises ``ChartMismatchError`` first.
    """

    __slots__ = ("charts", "nodes", "grads", "compiled", "at", "lanes")

    def __init__(self, observables, grads=None):
        self.charts = tuple({o.chart for o in observables} - {None})
        self.nodes = [o._node for o in observables]
        self.grads = (True,) * len(self.nodes) if grads is None else tuple(map(bool, grads))
        self.compiled = codegen.compile_roots(self.nodes, self.grads)
        # A row holds each value followed by its partials when flagged.
        lane = np.array([k for g in self.grads for k in range(1 + NVARS * g)])
        self.at, self.lanes = np.flatnonzero(lane == 0), np.flatnonzero(lane).reshape(-1, NVARS)

    def __call__(self, states):
        coords = []
        for state in states:
            for chart in self.charts:           # raises on a chart mismatch
                _coords_of(state, chart)
            coords.append(_coords_of(state, None))
        if self.compiled:
            rows = itertools.starmap(self.compiled, coords)
        else:
            rows = ([x for node, g in zip(self.nodes, self.grads)
                     for x in _interpreted(node, g, *c)] for c in coords)
        flat = np.fromiter(itertools.chain.from_iterable(rows), float).reshape(
            len(coords), len(self.at) + self.lanes.size)
        # Contiguous: matmul picks its kernel by the strides of the gathers.
        return flat.take(self.at, axis=1), np.ascontiguousarray(flat.take(self.lanes, axis=1))


def _node_of(o):
    return o._node if isinstance(o, Observable) else codegen.Node("const", param=o)


class Observable:
    """A differentiable scalar field on phase space.

    Supports ``+ - * / **`` against other observables and plain numbers; the
    result is again an observable.  ``chart`` (when not None) restricts which
    states the observable accepts.  An observable is an expression graph
    (:mod:`.codegen`): ``Observable(fn)`` around a callable of the six
    coordinates is an opaque leaf, and this module's operators and
    functions build nodes over their operands' graphs.  A call (on float
    coordinates; ``fn`` takes duals) and :meth:`gradient` run code compiled
    on first use, or interpret a graph that does not compile.
    """

    __slots__ = ("_node", "name", "chart", "_compiled", "_values")

    def __init__(self, fn=None, name="", chart=None, node=None):
        self._node = codegen.Node("opaque", param=fn) if node is None else node
        self.name = name
        self.chart = chart
        self._compiled = self._values = None    # gradient, values-only: built by _code

    @property
    def node(self):
        """The expression graph; None for an ``Observable(fn)``, which is
        one opaque leaf and never compiled."""
        return None if self._node.op == "opaque" else self._node

    @property
    def fn(self):
        """The value as a function of the six coordinates, on floats or
        duals: the graph's evaluator (:func:`.codegen.evaluator`)."""
        return codegen.evaluator(self._node)

    def _code(self, grads):
        """This graph's code in one mode, built on first use and kept in the
        mode's slot: compiled, or interpreted where the graph does not
        compile (an opaque leaf never tries)."""
        node = self._node
        code = (node.op != "opaque" and codegen.compile_roots([node], (grads,))
                or functools.partial(_interpreted, node, grads))
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
        """``op`` over ``kids``, on the chart this observable shares with ``other``."""
        return Observable(chart=self._merge_chart(other),
                          node=codegen.Node(op, kids, param))

    def __add__(self, o):
        return self._op("add", self._node, _node_of(o), other=o)

    __radd__ = __add__

    def __neg__(self):
        return self._op("neg", self._node)

    def __sub__(self, o):
        return self + (-o)

    def __rsub__(self, o):
        return self._op("sub", _node_of(o), self._node)

    def __mul__(self, o):
        return self._op("mul", self._node, _node_of(o), other=o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        return self._op("div", self._node, _node_of(o), other=o)

    def __rtruediv__(self, o):
        return self._op("div", _node_of(o), self._node)

    def __pow__(self, n):
        return self._op("pow", self._node, codegen.Node("const", param=n))

    def renamed(self, name):
        return Observable(name=name, chart=self.chart, node=self._node)

    def with_chart(self, chart):
        return Observable(name=self.name, chart=chart, node=self._node)

    def __repr__(self):
        tag = f" on {self.chart.value}" if self.chart else ""
        return f"<Observable {self.name or '<anon>'}{tag}>"


_MEMO_SIZE = 64     # per builder: the parameter sets a session revisits


def _memo_key(arg):
    """A key equal only for interchangeable arguments: a float by type and
    bits (0.0, -0.0, the int 0 and each NaN payload differ), an Observable
    by identity, a tuple or frozen dataclass field by field.  Anything
    without one (a ``CUSTOM`` callable) raises TypeError."""
    if isinstance(arg, float):
        return type(arg), struct.pack("<d", arg)
    if arg is None or isinstance(arg, (int, str, enum.Enum, Observable)):
        return type(arg), arg
    if isinstance(arg, tuple):
        return (tuple, *map(_memo_key, arg))
    if not dataclasses.is_dataclass(arg) or not arg.__dataclass_params__.frozen:
        raise TypeError(f"no memo key for {type(arg).__name__}")
    return (type(arg), *map(_memo_key, vars(arg).values()))


def memo(fn):
    """``fn`` keeping its results for the last ``_MEMO_SIZE`` argument keys
    in ``cache``; an argument without a key bypasses it.  A call is keyed by
    its arguments bound to ``fn``'s parameters, defaults applied, so
    ``f(x)``, ``f(x, default)`` and ``f(x, name=default)`` share an entry; a
    call that does not bind (a missing or unknown argument) goes to ``fn``
    uncached, to raise there.  A repeated call returns the same objects,
    except that an Observable, or a dict of them, comes back as a new one on
    the same graph, so edits stay with the caller (a copy's first call finds
    its graph's code in the compile cache).  Callers must not mutate any
    other result."""
    cache = {}
    params = inspect.signature(fn).parameters
    if any(p.kind is not p.POSITIONAL_OR_KEYWORD for p in params.values()):
        raise TypeError("memo needs plain positional-or-keyword parameters")
    names, defaults = tuple(params), tuple(p.default for p in params.values())

    @functools.wraps(fn)
    def cached(*args, **kwargs):
        # A missing argument stays Parameter.empty, which has no key, and an
        # unknown or repeated one fails the subset test: fn raises for both.
        n = len(args)
        bound = args + tuple([kwargs.get(name, d) for name, d in
                              zip(names[n:], defaults[n:])])
        try:
            if not kwargs.keys() <= set(names[n:]):
                raise TypeError
            key = _memo_key(bound)
        except TypeError:
            return fn(*args, **kwargs)
        out = cache.pop(key) if key in cache else fn(*bound)
        if len(cache) >= _MEMO_SIZE:
            del cache[next(iter(cache))]        # the least recently used
        cache[key] = out
        if isinstance(out, dict):
            return {name: ob.renamed(ob.name) for name, ob in out.items()}
        return out.renamed(out.name) if isinstance(out, Observable) else out

    cached.cache = cache
    return cached


def constant(c):
    return Observable(name=f"{c}", node=codegen.Node("const", param=c))


def coordinate(slot, name="", chart=None):
    return Observable(name=name, chart=chart, node=codegen.Node("coord", param=slot))


# Canonical coordinate observables on the raw (q, p) slots; chart-agnostic so
# they double as polar coordinate functions in canonicity tests.
Q1, Q2, Q3 = (coordinate(i, n) for i, n in enumerate(("q1", "q2", "q3")))
P1, P2, P3 = (coordinate(i + 3, n) for i, n in enumerate(("p1", "p2", "p3")))


def _lift(scalar_fn):
    """``scalar_fn`` on floats and duals; on an observable (the last
    argument) an ``fn`` node, or a ``kfn`` node for a curvature-labelled
    function, whose leading label is a const kid."""
    op = "kfn" if scalar_fn.__name__ in kernel.KAPPA_RULES else "fn"

    def lifted(*args):
        *labels, x = args
        if isinstance(x, Observable):
            labels = [codegen.Node("const", param=k) for k in labels]
            return x._op(op, *labels, x._node, param=scalar_fn)
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
        up = list(coords)
        dn = list(coords)
        up[i] += h
        dn[i] -= h
        out[i] = (call(*up) - call(*dn)) / (2.0 * h)
    return out
