"""Expression graphs of observables: their evaluator, compiled gradients and values.

An observable is a graph of :class:`Node` objects over coordinates,
constants and ``opaque`` leaves (user callables).  :func:`evaluator` gives
its value on floats or ``KScalar`` duals alike in one post-order pass that
evaluates a shared node once.  :func:`compile_roots` turns the graphs of
several observables (the roots) into one Python function of the six
coordinates, or gives None when any root cannot be compiled: a root set
compiles whole or not at all.  For each root in order the function returns
what a 6-lane ``KScalar`` evaluation returns, the value and then six
partials, in one flat tuple of ``7 * len(roots)`` floats.  It gets there
with less work:

* it computes only the derivative lanes a node structurally depends on
  (sparse forward mode, Griewank-Walther, *Evaluating Derivatives*, ch. 7);
* a node shared by several parents or several roots is evaluated once
  (node identity), so the so(4) generators inside every observable of a
  bracket table are computed once per point;
* subtrees that do not depend on the coordinates are folded at compile time
  with the operations the evaluator applies to them (``_OPS``).

One value per observable: a node's value is the float operation the
evaluator applies to it (a quotient is ``a / b``, a power ``a ** n``), and
a ``KScalar``'s value follows the same rule, so the evaluator on floats or
duals and the compiled code in either mode give every value bit for bit.
Each retained lane applies the float operations of the ``KScalar`` rule its
node replaces, in the same order, so the partials equal the dual path's.  A
skipped lane is an exact zero that the dual path adds or multiplies in,
which can change the sign of a zero and nothing else (barring an infinite
operand, where the dual lane turns NaN).

Two stages: lower, then emit on a miss.  :func:`_lower` walks the graphs
once, in post-order.  It folds the coordinate-free subtrees, turns each
other node into one instruction (its op, its operands, a function name),
and pulls every constant into slot order: numbers, folded subtrees, the
curvature labels, the exponents ``n`` and ``n - 1`` of a power and a
constant divisor ``c`` with its reciprocal ``1.0 / c``.  The instructions
and the roots form the structure key, a tuple that holds no constant, so it
depends only on the graph's structure (its operations, their wiring and
sharing, the coordinate slots, and which curvature labels on one argument
are equal), not on ``z``, ``kappa2`` or ``gamma``.  Emission reads only
that key and the mode: it writes the source and Python's ``compile()``
turns it into a code object.  One process-wide LRU cache of fixed size
(:func:`_code`), keyed by the structure and the mode, keeps the code
objects, so emission and ``compile()`` run only on a miss.  A graph of a
known structure at new parameters costs one lowering walk and one ``exec``
of the cached code, with the constants bound in the function's globals as
``k0, k1, ...`` beside the kernel rules by name (one shared base dict,
copied once per root set).  A second bounded LRU cache (:func:`_bound`),
keyed by the root nodes (identity), keeps the lowering, its globals and the
function of each mode made from them, or None for a root set that does not
compile, so a repeated call on the same roots costs one cache lookup.

Values-only mode (``compile_roots(roots, values=True)``) emits the same
lowering with no coordinate seeded: every node's lanes are empty, so no
derivative factor is written (``n - 1`` and ``1.0 / c`` go unread), a
unary is its kernel float function and ``tkappa``/``cotkappa`` take the
value of their rule, which raises at a pole as the evaluator does.  ``f``
returns the roots' values and nothing else.  Monitors evaluated at every
sample of an orbit use it.

Curvature-labelled trigonometry shares its work: every ``skappa``,
``ckappa``, ``tkappa`` and ``cotkappa`` node on one ``(kappa, x)`` reads one
pair instruction.  Both modes write it as the statements of
``kernel._kappa_pair`` (``u = kappa * x * x``, then the Taylor, ``sin``/``cos``
or ``sinh``/``cosh`` branch), not as a call.  From the pair ``skappa`` is
``(S, C)`` and ``ckappa`` is ``(C, -kappa * S)``, what the dual path's rules
give.  ``tkappa`` and ``cotkappa`` take the value of their
``kernel.KAPPA_RULES`` entry in values-only mode; in gradient mode the
rule's quotient and derivative are written out, and the rule is called only
where its denominator is below ``kernel._POLE_EPS``, so it raises the same
``PoleError`` at a pole.  Labels are compared by their type and bits, so
``0.0``, ``-0.0`` and the int ``0`` (whose ``C' = -kappa S`` differ in the
sign of a zero) never share a pair.

Nothing else is merged by value: two equal subexpressions built as
separate nodes are evaluated twice, so the builders (:func:`.phase.memo`)
build each subexpression once per parameter set and share it.  Interning by
value would let parameters into the structure key: at ``kappa1 = kappa2 =
1.0`` equal constants would merge and rewire a table.  :func:`_bound`
keys by root nodes (identity) instead, for both modes, so every caller of
:func:`compile_roots` on the same roots and mode shares one function (the
compiled code keeps no state between calls).
"""

from __future__ import annotations

import functools
import math
import operator

from . import kernel
from .kernel import NVARS

# The Python operation of each arithmetic op on its operands' values: the
# one map the evaluator and constant folding apply.  Only
# ``number - observable`` builds a sub node, and ``x * x`` is a mul node
# whose two operands are one node.
_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": operator.truediv,
    "neg": operator.neg,
    "pow": operator.pow,
}


class Node:
    """One operation of an observable's expression graph.

    ``op`` is one of coord, const, opaque, add, sub, mul, div, neg, pow, fn,
    kfn; ``kids`` are the operand nodes (the exponent of pow and the
    curvature label of kfn are const kids).  ``param`` is the slot of a
    coord, the value of a const, and the operation of every other node: its
    ``_OPS`` entry, the kernel function of fn and kfn, or the callable of
    the six coordinates of an opaque leaf.  ``dual`` is true when the node
    depends on the coordinates, i.e. when a dual evaluation makes its value
    a ``KScalar``.  ``fn`` caches the node's :func:`evaluator`.
    """

    __slots__ = ("op", "kids", "param", "dual", "fn")

    def __init__(self, op, kids=(), param=None):
        self.op = op
        self.kids = kids
        self.param = _OPS.get(op, param)
        self.dual = op in ("coord", "opaque") or any(k.dual for k in kids)
        self.fn = None


def _postorder(roots):
    """Every node reachable from ``roots`` once, kids before parents, in
    the order a depth-first walk (kids left to right, roots in order)
    finishes them.  Iterative, so a graph of any depth is walked."""
    order, seen = [], set()
    stack = [(root, False) for root in reversed(roots)]
    while stack:
        nd, finished = stack.pop()
        if finished:
            order.append(nd)
        elif nd not in seen:
            seen.add(nd)
            stack.append((nd, True))
            for k in reversed(nd.kids):
                stack.append((k, False))
    return order


def evaluator(root):
    """``root``'s value as a function ``f(x0, ..., x5)`` of the coordinates,
    on floats or duals alike; built on first use and stored on the node, so
    observables sharing a graph share it.  An opaque leaf's evaluator is its
    callable."""
    if root.op == "opaque":
        return root.param
    if root.fn is not None:
        return root.fn
    # The value list holds the coordinates, the constants, the values of
    # the opaque leaves (each called once, first) and one value per
    # operation, in post-order.
    order = _postorder([root])
    index = {nd: nd.param for nd in order if nd.op == "coord"}
    consts = [nd for nd in order if nd.op == "const"]
    leaves = [nd for nd in order if nd.op == "opaque"]
    ops = [nd for nd in order if nd.kids]
    index.update((nd, i) for i, nd in enumerate(consts + leaves + ops, NVARS))
    values = [nd.param for nd in consts]
    calls = [nd.param for nd in leaves]
    steps = [(nd.param, index[nd.kids[0]], index[nd.kids[1]] if len(nd.kids) > 1 else None)
             for nd in ops]
    out = index[root]

    def evaluate(x0, x1, x2, x3, x4, x5):
        v = [x0, x1, x2, x3, x4, x5, *values]
        push = v.append
        for f in calls:
            push(f(x0, x1, x2, x3, x4, x5))
        for f, a, b in steps:
            push(f(v[a]) if b is None else f(v[a], v[b]))
        return v[out]
    root.fn = evaluate
    return evaluate


class _Lowering:
    """One walk of the graphs: the structure and the constants in slot order.

    Each coordinate-dependent node becomes one instruction, a tuple of its
    op, its operands and any name it needs; an operand is the index of an
    earlier instruction, or ``~slot`` (a negative number) for constant
    ``slot``.  Instructions are appended in the order the walk finishes
    them, which is the order the emitter writes them in.  One lowering
    serves both modes: a constant divisor ``c`` brings its reciprocal and a
    power ``n`` brings ``n - 1``, which only a derivative lane reads.
    """

    def __init__(self):
        self.ins = []
        self.consts = []
        self.refs = {}      # node -> operand
        self.folded = {}    # coordinate-free node -> its value
        self.bad = set()    # nodes that cannot be compiled
        self.coords = {}    # slot -> instruction
        self.pairs = {}     # (kappa type, bits, x operand) -> "pair" instruction

    def const(self, value):
        self.consts.append(value)
        return ~(len(self.consts) - 1)

    def add(self, *instr):
        self.ins.append(instr)
        return len(self.ins) - 1

    def operand(self, nd):
        """A lowered node's operand; a folded node takes a constant slot on
        first use."""
        if nd not in self.refs:
            self.refs[nd] = self.const(self.folded[nd])
        return self.refs[nd]

    def lower(self, nd):
        """Lower one node whose kids are lowered: fold it, make it an
        instruction, or mark it as not compilable."""
        if nd.op == "opaque" or not self.bad.isdisjoint(nd.kids):
            self.bad.add(nd)
            return
        try:
            if nd.dual:
                self.refs[nd] = self.instruction(nd)
                return
            val = (nd.param if nd.op == "const"
                   else nd.param(*[self.folded[k] for k in nd.kids]))
        except (ArithmeticError, ValueError):
            val = None          # the evaluator raises here too
        if isinstance(val, (int, float)):
            self.folded[nd] = val
        else:
            self.bad.add(nd)

    def instruction(self, nd):
        op, kids = nd.op, nd.kids
        if op == "coord":
            if nd.param not in self.coords:
                self.coords[nd.param] = self.add("coord", nd.param)
            return self.coords[nd.param]
        if op == "div" and not kids[1].dual:
            # KScalar / o scales the partials by the float 1.0 / o.
            w = 1.0 / self.folded[kids[1]]
            return self.add("div", *map(self.operand, kids), self.const(w))
        if op == "pow":
            n = self.folded[kids[1]]
            return self.add("pow", self.operand(kids[0]), self.const(n), self.const(n - 1))
        if op == "fn":
            return self.add("fn", self.operand(kids[0]), nd.param.__name__)
        if op == "kfn":
            # One (S, C) pair per curvature label and argument.  The label is
            # keyed by its type and bits, so 0.0, -0.0 and the int 0 (whose
            # C' = -kappa S differ in the sign of a zero) never share a pair.
            kappa, x = self.folded[kids[0]], self.operand(kids[1])
            key = (type(kappa), float(kappa).hex(), x)
            if key not in self.pairs:
                self.pairs[key] = self.add("pair", x, self.const(kappa))
            return self.add("kfn", self.pairs[key], nd.param.__name__)
        return self.add(op, *map(self.operand, kids))


_ONE = "1.0"      # the lane of a seeded coordinate; x * 1.0 == x exactly

# kernel._kappa_pair as statements: S into {s}, C into {c}, r = sqrt(|u|).
_PAIR = (
    "{u} = {k} * {x} * {x}\n"
    f"if abs({{u}}) < {kernel._KTRIG_TAYLOR!r}: "
    "{s} = {x} * (1.0 + {u} * (-1.0 / 6.0 + {u} * (1.0 / 120.0 - {u} / 5040.0))); "
    "{c} = 1.0 + {u} * (-0.5 + {u} * (1.0 / 24.0 - {u} / 720.0))\n"
    "elif {u} > 0.0: {r} = sqrt({u}); {s} = {x} * (sin({r}) / {r}); {c} = cos({r})\n"
    "else: {r} = sqrt(-{u}); {s} = {x} * (sinh({r}) / {r}); {c} = cosh({r})")


class _Emitter:
    """Writes the straight-line body of a structure, one statement per float
    operation.  A value is (expr, lanes): lanes maps a slot to the name of
    its partial, and is None for a constant.  Only the coordinates in
    ``seed`` get lanes: all six for gradients, none for values only, where
    every node's lanes are empty and no derivative factor is written."""

    def __init__(self, seed):
        self.seed = tuple(seed)
        self.lines = []
        self.vars = set()

    def fresh(self):
        name = f"t{len(self.vars)}"
        self.vars.add(name)
        return name

    def var(self, expr):
        name = self.fresh()
        self.lines.append(f"{name} = {expr}")
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

    def combined(self, x, la, y, lb):
        """The lanes of ``x * la + y * lb``, slot by slot."""
        lanes = {}
        for i in sorted(la.keys() | lb.keys()):
            if i in la and i in lb:
                lanes[i] = self.var(f"{self.times(x, la[i])} + {self.times(y, lb[i])}")
            else:
                lanes[i] = self.mul(x, la[i]) if i in la else self.mul(y, lb[i])
        return lanes

    def chained(self, val, factor, lanes):
        """``val`` with ``lanes`` times the derivative ``factor``, which is
        written only when there are lanes."""
        return val, self.scaled(self.var(factor), lanes) if lanes else {}

    def body(self, structure):
        ins, roots = structure
        done = []
        for op, *args in ins:
            if op != "coord":
                args = [a if isinstance(a, str) else
                        (f"k{~a}", None) if a < 0 else done[a] for a in args]
            done.append(getattr(self, "op_" + op)(*args))
        return self.lines + [f"return ({self.result(done[r] for r in roots)})"]

    def result(self, roots):
        return "".join(f"{name}, " for val, lanes in roots
                       for name in (val, *(lanes.get(i, "0.0") for i in self.seed)))

    # -- one method per KScalar rule ----------------------------------------

    def op_coord(self, slot):
        name = f"x{slot}"
        if slot not in self.seed:
            return name, {}
        self.lines.append(f"{name} = float({name})")     # seeded() takes float(coordinate)
        self.vars.add(name)
        return name, {slot: _ONE}

    def op_add(self, a, b):
        (ea, la), (eb, lb) = a, b
        val = self.var(f"{ea} + {eb}")
        if la is None or lb is None:
            return val, la if lb is None else lb
        lanes = dict(la)
        for i, l in lb.items():
            lanes[i] = self.var(f"{la[i]} + {l}") if i in la else l
        return val, lanes

    def op_sub(self, a, b):
        # Only ``number - observable`` builds a sub node (see Observable).
        (ea, _), (eb, lb) = a, b
        return self.var(f"{ea} - {eb}"), {i: self.var(f"-{l}") for i, l in lb.items()}

    def op_neg(self, a):
        ea, la = a
        return self.var(f"-{ea}"), {i: self.var(f"-{l}") for i, l in la.items()}

    def op_mul(self, a, b):
        (ea, la), (eb, lb) = a, b
        val = self.var(f"{ea} * {eb}")
        if la is None or lb is None:
            return val, self.scaled(ea, lb) if la is None else self.scaled(eb, la)
        return val, self.combined(eb, la, ea, lb)

    def op_div(self, a, b, w=None):
        # A constant divisor comes with its reciprocal w, which scales the lanes.
        (ea, la), (eb, lb) = a, b
        val = self.var(f"{ea} / {eb}")
        if lb is None:
            return val, self.scaled(w[0], la)
        if la is None:
            return self.chained(val, f"-{ea} / ({eb} * {eb})", lb)
        if not (la or lb):
            return val, {}
        w = self.var(f"1.0 / {eb}")
        c = self.var(f"-{ea} * {w} * {w}")
        return val, self.combined(w, la, c, lb)

    def op_pow(self, a, n, n1):
        (ea, la), (n, _), (n1, _) = a, n, n1
        return self.chained(self.var(f"{ea} ** {n}"), f"{n} * {ea} ** {n1}", la)

    def _rule_call(self, call, value, la):
        """A kernel rule's (value, derivative) call, or ``value`` alone
        when there are no lanes."""
        if not la:
            return self.var(value), {}
        val, d = self.fresh(), self.fresh()
        self.lines.append(f"{val}, {d} = {call}")
        return val, self.scaled(d, la)

    def op_fn(self, a, name):
        ea, la = a
        return self._rule_call(f"{name}_rule({ea})", f"{name}_float({ea})", la)

    def op_pair(self, x, kappa):
        u, r, s, c = (self.fresh() for _ in range(4))
        self.lines += _PAIR.format(u=u, r=r, s=s, c=c, k=kappa[0], x=x[0]).split("\n")
        return s, c, kappa[0], x

    def op_kfn(self, pair, name):
        # S' = C and C' = -kappa S; a ratio's rule raises at its pole.
        s, c, kappa, (ex, lx) = pair
        if name == "skappa":
            return s, self.scaled(c, lx)
        if name == "ckappa":
            return self.chained(c, f"-{kappa} * {s}", lx)
        call = f"{name}_rule({kappa}, {ex}, {s}, {c})"
        if not lx:
            return self.var(call + "[0]"), {}
        # The rule's float operations written out; it is called only at its
        # pole, to raise what it raises there.  T' = 1/C**2, cot' = -1/S**2.
        num, den, sign = (s, c, "") if name == "tkappa" else (c, s, "-")
        val, d = self.fresh(), self.fresh()
        self.lines += [f"if abs({den}) < {kernel._POLE_EPS!r}: {call}",
                       f"{val} = {num} / {den}", f"{d} = {sign}1.0 / ({den} * {den})"]
        return val, self.scaled(d, lx)


# Compiled code objects by lowered structure and mode.  One pass of the
# verify benchmark needs about a dozen; the bound keeps memory fixed.  Callers
# pass both arguments positionally, so each structure has one key per mode.
@functools.lru_cache(maxsize=64)
def _code(structure, values):
    args = ", ".join(f"x{i}" for i in range(NVARS))
    body = "\n    ".join(_Emitter(() if values else range(NVARS)).body(structure))
    return compile(f"def compiled({args}):\n    {body}\n",
                   "<compiled values>" if values else "<compiled gradient>", "exec")


# The globals every compiled function shares: the kernel rules and float
# functions by name and the ``math`` functions of the (S, C) pairs.  Each
# bound function adds its constants as ``k0, k1, ...`` to a copy.
_BASE_GLOBALS = {
    **{f"{name}_rule": rule for name, rule in kernel.RULES.items()},
    **{f"{name}_rule": rule for name, rule in kernel.KAPPA_RULES.items()},
    **{f"{name}_float": fn for name, fn in kernel.FLOAT_FNS.items()},
    **{name: getattr(math, name) for name in ("sqrt", "sin", "cos", "sinh", "cosh")},
}


def _lower(roots):
    """(structure, constants) of several graphs: the hashable structure key
    (instructions and root operands) and the constants in slot order.  The
    operand of a root that cannot be compiled is None."""
    low = _Lowering()
    for nd in _postorder(roots):
        low.lower(nd)
    refs = tuple(low.refs.get(r) if r.dual else None for r in roots)
    return (tuple(low.ins), refs), tuple(low.consts)


class _Bound:
    """One root set's lowering with its constants bound and, per mode, the
    function made on first use."""

    __slots__ = ("structure", "env", "fns")

    def __init__(self, structure, consts):
        self.structure = structure
        self.env = dict(_BASE_GLOBALS, **{f"k{i}": c for i, c in enumerate(consts)})
        self.fns = {}

    def function(self, values):
        if values not in self.fns:
            exec(_code(self.structure, values), self.env)
            self.fns[values] = self.env.pop("compiled")
        return self.fns[values]


# Bound root sets by root nodes (identity), which the key holds; None for a
# set with a root that cannot be compiled.  verify and rank bind 1 or 2 root
# sets per call, simulate 5 to 8; the bound keeps memory fixed.
@functools.lru_cache(maxsize=256)
def _bound(roots):
    structure, consts = _lower(roots)
    return None if None in structure[1] else _Bound(structure, consts)


def compile_roots(roots, values=False):
    """One compiled function of the six coordinates for all of ``roots``,
    or None when any root cannot be compiled.

    ``f(x0, ..., x5)`` returns, for each root in order, the value and the
    six partials in one flat tuple.  A root cannot be compiled when it holds
    an opaque leaf, a constant, exponent or curvature label that is not a
    number, or a coordinate-free subtree or divisor that raises when folded
    (the evaluator raises there too), or when it does not depend on the
    coordinates.

    With ``values`` true, ``f`` returns only the roots' values.  In both
    modes each value is bit for bit what :func:`evaluator` gives on the same
    floats.  A repeated call on the same root nodes returns the same
    function.
    """
    bound = _bound(tuple(roots))
    return bound and bound.function(values)
