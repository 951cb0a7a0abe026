"""Straight-line sparse forward mode: compiled value-and-gradient functions.

Observables built from coordinates, constants, the arithmetic operators and
the lifted kernel functions record an expression graph of :class:`Node`
objects next to their closure; an ``Observable(fn)`` around a user callable
records none and stays opaque.  :func:`compile_gradients` turns the graphs
of several observables (the roots) into one Python function of the six
coordinates.  For each root in order it returns what a 6-lane ``KScalar``
evaluation returns, the value and then six partials, in one flat tuple of
``7 * len(roots)`` floats.  It gets there with less work:

* it computes only the derivative lanes a node structurally depends on
  (sparse forward mode, Griewank-Walther, *Evaluating Derivatives*, ch. 7);
* a node shared by several parents or several roots is evaluated once
  (node identity), so the so(4) generators inside every observable of a
  bracket table are computed once per point;
* subtrees that do not depend on the coordinates are folded at compile time
  with the float operations a dual evaluation applies to them.

``Observable.compile_gradient`` is the one-root case.

Each retained lane applies the float operations of the ``KScalar`` rule its
node replaces, in the same order, so the results equal the dual path's.  A
skipped lane is an exact zero that the dual path adds or multiplies in,
which can change the sign of a zero and nothing else (barring an infinite
operand, where the dual lane turns NaN).

Structure key and code cache.  No constant appears in the source text:
every number, folded subtree, exponent, curvature label and kernel rule is
bound in the compiled function's globals as ``k0, k1, ...`` in order of
first use.  The source therefore depends only on the graph's structure
(its operations, their wiring and sharing, and the coordinate slots), not on
``z``, ``kappa2`` or ``gamma``.  One process-wide LRU cache of fixed size,
keyed by the source, keeps the compiled code objects.  A graph of a known
structure with new parameters costs one walk of the graph and no call to
Python's ``compile()``.
"""

from __future__ import annotations

import functools
import operator

from . import kernel
from .kernel import NVARS


class Node:
    """One operation of an observable's expression graph.

    ``op`` is one of coord, const, add, sub, mul, square, div, neg, pow, fn,
    kfn; ``kids`` are the operand nodes; ``param`` is the operand that is not
    a node (slot, constant, exponent, function name, or (name, kappa)).
    ``dual`` is true when the node depends on the coordinates, i.e. when a
    dual evaluation makes its value a ``KScalar``.
    """

    __slots__ = ("op", "kids", "param", "dual")

    def __init__(self, op, kids=(), param=None):
        self.op = op
        self.kids = kids
        self.param = param
        self.dual = op == "coord" or any(k.dual for k in kids)


def node(op, *kids, param=None):
    """A node over ``kids``, or None (opaque) when any of them is opaque."""
    if any(k is None for k in kids):
        return None
    return Node(op, kids, param)


def number(c):
    """True for the constants a graph may hold: ints and floats."""
    return isinstance(c, (int, float))


def const(c):
    """A constant node, or None (opaque) for a value that is not a number."""
    return Node("const", param=c) if number(c) else None


def coord(slot):
    return Node("coord", param=slot)


_FOLD = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
    "neg": operator.neg,
    "square": lambda a: a * a,
}

_ONE = "1.0"      # the lane of a seeded coordinate; x * 1.0 == x exactly


class _Emitter:
    """Writes the straight-line body, one statement per float operation."""

    def __init__(self):
        self.lines = []
        self.env = {}
        self.vars = set()
        self.done = {}      # id(node) -> (value expr, {slot: lane expr})
        self.folded = {}    # id(node) -> value of a coordinate-free node

    def var(self, expr):
        name = f"t{len(self.vars)}"
        self.vars.add(name)
        self.lines.append(f"{name} = {expr}")
        return name

    def lit(self, c):
        """The name a constant is bound to; the source never holds its value."""
        name = f"k{len(self.env)}"
        self.env[name] = c
        return name

    def times(self, c, lane):
        """Source text for c * lane; a unit lane gives c itself."""
        return c if lane == _ONE and c in self.vars else f"{c} * {lane}"

    def mul(self, c, lane):
        """A variable (or c itself) holding c * lane."""
        text = self.times(c, lane)
        return text if text == c else self.var(text)

    def scaled(self, c, lanes):
        return {i: self.mul(c, l) for i, l in lanes.items()}

    def fold(self, nd):
        key = id(nd)
        if key not in self.folded:
            if nd.op == "const":
                val = nd.param
            else:
                args = [self.fold(k) for k in nd.kids]
                if nd.op == "pow":
                    val = args[0] ** nd.param
                elif nd.op == "fn":
                    val = getattr(kernel, nd.param)(args[0])
                elif nd.op == "kfn":
                    name, kappa = nd.param
                    val = getattr(kernel, name)(kappa, args[0])
                else:
                    val = _FOLD[nd.op](*args)
            self.folded[key] = val
        return self.folded[key]

    def operand(self, nd):
        """(expr, lanes, value): lanes None and the folded value for a constant."""
        if nd.dual:
            expr, lanes = self.emit(nd)
            return expr, lanes, None
        val = self.fold(nd)
        return self.lit(val), None, val

    def emit(self, nd):
        key = id(nd)
        if key not in self.done:
            if nd.op == "coord":
                name = f"x{nd.param}"
                if name not in self.vars:     # seeded() takes float(coordinate)
                    self.lines.append(f"{name} = float({name})")
                    self.vars.add(name)
                self.done[key] = name, {nd.param: _ONE}
            else:
                self.done[key] = getattr(self, "op_" + nd.op)(
                    nd, *(self.operand(k) for k in nd.kids))
        return self.done[key]

    # -- one method per KScalar rule ----------------------------------------
    # Operands are (expr, lanes, value); a constant operand has lanes None.

    def op_add(self, nd, a, b):
        (ea, la, _), (eb, lb, _) = a, b
        if la is None:
            return self.var(f"{eb} + {ea}"), lb
        if lb is None:
            return self.var(f"{ea} + {eb}"), la
        lanes = dict(la)
        for i, l in lb.items():
            lanes[i] = self.var(f"{la[i]} + {l}") if i in la else l
        return self.var(f"{ea} + {eb}"), lanes

    def op_sub(self, nd, a, b):
        # Only ``number - observable`` builds a sub node (see Observable).
        (ea, _, _), (eb, lb, _) = a, b
        return self.var(f"{ea} - {eb}"), {i: self.var(f"-{l}") for i, l in lb.items()}

    def op_neg(self, nd, a):
        ea, la, _ = a
        return self.var(f"-{ea}"), {i: self.var(f"-{l}") for i, l in la.items()}

    def op_mul(self, nd, a, b):
        (ea, la, _), (eb, lb, _) = a, b
        if la is None:
            return self.var(f"{eb} * {ea}"), self.scaled(ea, lb)
        if lb is None:
            return self.var(f"{ea} * {eb}"), self.scaled(eb, la)
        val = self.var(f"{ea} * {eb}")
        lanes = {}
        for i in sorted(la.keys() | lb.keys()):
            if i in la and i in lb:
                lanes[i] = self.var(f"{self.times(eb, la[i])} + {self.times(ea, lb[i])}")
            elif i in la:
                lanes[i] = self.mul(eb, la[i])
            else:
                lanes[i] = self.mul(ea, lb[i])
        return val, lanes

    def op_square(self, nd, a):
        ea, la, _ = a
        lanes = {}
        for i, l in la.items():
            t = self.times(ea, l)
            lanes[i] = self.var(f"{t} + {t}")
        return self.var(f"{ea} * {ea}"), lanes

    def op_div(self, nd, a, b):
        (ea, la, _), (eb, lb, vb) = a, b
        if lb is None:
            # KScalar / o multiplies by the float 1.0 / o.
            r = self.lit(1.0 / vb)
            return self.var(f"{ea} * {r}"), self.scaled(r, la)
        if la is None:
            c = self.var(f"-{ea} / ({eb} * {eb})")
            return self.var(f"{ea} / {eb}"), self.scaled(c, lb)
        w = self.var(f"1.0 / {eb}")
        c = self.var(f"-{ea} * {w} * {w}")
        val = self.var(f"{ea} * {w}")
        lanes = {}
        for i in sorted(la.keys() | lb.keys()):
            if i in la and i in lb:
                lanes[i] = self.var(f"{self.times(w, la[i])} + {self.times(c, lb[i])}")
            elif i in la:
                lanes[i] = self.mul(w, la[i])
            else:
                lanes[i] = self.mul(c, lb[i])
        return val, lanes

    def op_pow(self, nd, a):
        ea, la, _ = a
        n = nd.param
        c = self.var(f"{self.lit(n)} * {ea} ** {self.lit(n - 1)}")
        return self.var(f"{ea} ** {self.lit(n)}"), self.scaled(c, la)

    def _rule_call(self, rule, args, la):
        fname = self.lit(rule)
        val, d = f"t{len(self.vars)}", f"t{len(self.vars) + 1}"
        self.vars.update((val, d))
        self.lines.append(f"{val}, {d} = {fname}({args})")
        return val, self.scaled(d, la)

    def op_fn(self, nd, a):
        ea, la, _ = a
        return self._rule_call(kernel.RULES[nd.param], ea, la)

    def op_kfn(self, nd, a):
        ea, la, _ = a
        name, kappa = nd.param
        return self._rule_call(kernel.KAPPA_RULES[name], f"{self.lit(kappa)}, {ea}", la)


# Compiled code objects by source text, i.e. by graph structure.  One pass
# of the verify benchmark needs about ten; the bound keeps memory fixed.
@functools.lru_cache(maxsize=64)
def _code(source):
    return compile(source, "<compiled gradient>", "exec")


def compile_gradients(roots):
    """Compile several graphs to ``f(x0, ..., x5) -> (value, 6 partials) * n``.

    The flat tuple holds, root by root, the value and the six partials.
    Returns None when a root cannot be compiled: an opaque operand, a root
    that does not depend on the coordinates, a coordinate-free subtree that
    raises when folded (the dual path then raises when it evaluates), or a
    graph too deep for the recursive walk (the dual path nests less deeply).
    """
    if not roots or any(r is None or not r.dual for r in roots):
        return None
    em = _Emitter()
    try:
        outs = [em.emit(r) for r in roots]
    except (ArithmeticError, ValueError, RecursionError):
        return None
    flat = ", ".join(f"{val}, " + ", ".join(lanes.get(i, "0.0") for i in range(NVARS))
                     for val, lanes in outs)
    args = ", ".join(f"x{i}" for i in range(NVARS))
    body = "\n    ".join(em.lines + [f"return ({flat})"])
    exec(_code(f"def values_and_gradients({args}):\n    {body}\n"), em.env)
    return em.env["values_and_gradients"]
