"""Expression graphs of observables: their evaluator, partials and compiled code.

An observable is a graph of :class:`Node` objects over coordinates,
constants and ``opaque`` leaves (user callables).  :func:`evaluator` gives
its value on floats or ``KScalar`` duals alike in one post-order pass that
evaluates a shared node once.  :func:`compile_roots` turns the graphs of
several observables (the roots) into one Python function of the six
coordinates, or gives None when any root cannot be compiled: a root set
compiles whole or not at all.  For each root in order the function returns
its value and, when the root's flag in the gradient mask is true, the six
partials a 6-lane ``KScalar`` evaluation gives, in one flat tuple.

Partials are graphs (Griewank-Walther, *Evaluating Derivatives*, ch. 6-7):
:func:`_partials` writes each node's ``KScalar`` rule as nodes in one
post-order pass, with the same float operations in the same order.  A
partial a node does not structurally depend on is None, an exact zero that
the dual path adds or multiplies in, which can change the sign of a zero
and nothing else (barring an infinite operand, where the dual lane turns
NaN), and nothing is multiplied by a coordinate's unit partial.  Unary
derivatives come from a table (``_DERIVATIVES``: ``exp`` is its own node,
``sqrt`` is ``0.5 /`` its node, ``sinhc`` calls ``kernel.dsinhc``).  A
flagged root's six partial graphs are compiled as more roots, so the code
is written one way, values only.  A node's value is the float operation the
evaluator applies to it (a quotient is ``a / b``), as a ``KScalar``'s is,
so the evaluator on floats or duals and the compiled code under any mask
give every value bit for bit, and every partial is the dual path's.

Two stages: lower, then emit on a miss.  :func:`_lower` walks the values'
graphs, then the flagged roots' partials, in post-order.  It folds the
coordinate-free subtrees with the operations the evaluator applies
(``_OPS``), turns each other node into one instruction (its op, its
operands, a function name), so a shared node is computed once, and pulls
every constant (numbers, folded subtrees, curvature labels) into slot
order.  The instructions and the outputs form the structure key, which
holds no constant: it depends on the graphs' operations, wiring, sharing
and coordinate slots, and on which curvature labels on one argument are
equal, not on ``z``, ``kappa2`` or ``gamma``.  Emission reads the key and
whether any root is flagged, when each coordinate is seeded as ``KScalar``
seeds it (``x = float(x)``).  It writes one statement per instruction,
except that an ``add``, ``sub``, ``neg`` or ``mul`` read once whose
operands are plain names is written into its reader's statement: it cannot
raise, so no exception moves, and nothing nests, so a deep graph compiles.
An LRU cache of fixed size (:func:`_code`), keyed by the structure and that
flag, keeps the code objects, so emission and ``compile()`` run only on a
miss; a known structure at new parameters costs one lowering walk and one
``exec``, with the constants bound as ``k0, k1, ...`` in a copy of the base
globals (the kernel functions by name).  A second bounded LRU cache
(:func:`_bound`), keyed by the root nodes (identity) and the mask, keeps
the function, or None for a root set that does not compile, so a repeated
call costs one lookup; a root set is lowered once per mask.

Curvature-labelled trigonometry shares its work: every ``skappa``,
``ckappa``, ``tkappa`` and ``cotkappa`` node on one ``(kappa, x)``, a
partial's included, reads one pair instruction, written as the statements
of ``kernel._kappa_pair`` (``u = kappa * x * x``, then the Taylor,
``sin``/``cos`` or ``sinh``/``cosh`` branch).  ``skappa`` is its ``S`` and
``ckappa`` its ``C``; ``tkappa`` and ``cotkappa`` write out the quotient of
their ``kernel.KAPPA_RULES`` entry and call the rule only where its
denominator is below ``kernel._POLE_EPS``, so it raises the same
``PoleError`` at a pole.  Labels are compared by their type and bits, so
``0.0``, ``-0.0`` and the int ``0`` (whose ``C' = -kappa S`` differ in the
sign of a zero) never share a pair.

Nothing else is merged by value: two equal subexpressions built as
separate nodes are evaluated twice, so the builders (:func:`.phase.memo`)
build each subexpression once per parameter set and share it.  Interning by
value would let parameters into the structure key: at ``kappa1 = kappa2 =
1.0`` equal constants would merge and rewire a table.  :func:`_bound`
keys by root nodes (identity) instead, so every caller of
:func:`compile_roots` on the same roots and mask shares one function (the
compiled code keeps no state between calls).
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator

from . import kernel
from .kernel import NVARS

# The Python operation of each arithmetic op on its operands' values: the
# one map the evaluator and constant folding apply.  On the coordinates only
# ``number - observable`` builds a sub node (a power's partial folds
# ``n - 1``), and ``x * x`` is a mul node whose two operands are one node.
_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
        "div": operator.truediv, "neg": operator.neg, "pow": operator.pow}


class Node:
    """One operation of an observable's expression graph.

    ``op`` is one of coord, const, opaque, add, sub, mul, div, neg, pow, fn,
    kfn; ``kids`` are the operand nodes (the exponent of pow and the
    curvature label of kfn are const kids; the fn of a partial of sinhc or
    expm1c reads the argument and the value).  ``param`` is the slot of a
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
        self.dual = op in ("coord", "opaque") or any([k.dual for k in kids])
        self.fn = None


def _postorder(roots, seen=None):
    """Every node reachable from ``roots`` once, kids before parents, in
    the order a depth-first walk (kids left to right, roots in order)
    finishes them, skipping the nodes in ``seen`` and below them.
    Iterative, so a graph of any depth is walked."""
    order, seen = [], set() if seen is None else seen
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


# -- partials as graphs ----------------------------------------------------------

def _n(op, *kids, param=None):
    return Node(op, kids, param)


# A coordinate's own partial, the 1.0 of the rules; the other constants the
# rules read; and the partials of a coordinate-free node.
_ONE, _HALF, _MINUS_ONE, _INT_ONE = (_n("const", param=c) for c in (1.0, 0.5, -1.0, 1))
_NONE = (None,) * NVARS


def _chain(dval, lanes):
    """The lanes times the derivative ``dval``: one chain step.  A unit lane
    gives ``dval`` itself when it is a float at run time; a coordinate-free
    one folds ``dval * 1.0``, which makes an int a float."""
    if lanes is _NONE:
        return _NONE
    unit = dval if dval.dual or _ONE not in lanes else Node("mul", (dval, _ONE))
    return tuple([lane and (unit if lane is _ONE else Node("mul", (dval, lane)))
                  for lane in lanes])


def _plus(la, lb):
    """The lanes of ``la + lb``, slot by slot."""
    if la is _NONE or lb is _NONE:
        return lb if la is _NONE else la
    return tuple([b if a is None else a if b is None else Node("add", (a, b))
                  for a, b in zip(la, lb)])


# The derivative of each unary and curvature-labelled function as nodes over
# the node ``nd`` and its operands, what its kernel rule computes:
# S' = C, C' = -kappa S, T' = 1/C**2, cot' = -1/S**2.
_DERIVATIVES = {
    "exp": lambda nd, x: nd,
    "log": lambda nd, x: _n("div", _ONE, x),
    "sqrt": lambda nd, x: _n("div", _HALF, nd),
    "sin": lambda nd, x: _n("fn", x, param=kernel.cos),
    "cos": lambda nd, x: _n("neg", _n("fn", x, param=kernel.sin)),
    "sinh": lambda nd, x: _n("fn", x, param=kernel.cosh),
    "cosh": lambda nd, x: _n("fn", x, param=kernel.sinh),
    "sinhc": lambda nd, x: _n("fn", x, nd, param=kernel.dsinhc),
    "expm1c": lambda nd, x: _n("fn", x, nd, param=kernel.dexpm1c),
    "skappa": lambda nd, k, x: _n("kfn", k, x, param=kernel.ckappa),
    "ckappa": lambda nd, k, x: _n("mul", _n("neg", k), _n("kfn", k, x, param=kernel.skappa)),
    "tkappa": lambda nd, k, x: _n("div", _ONE,
                                  _n("mul", *[_n("kfn", k, x, param=kernel.ckappa)] * 2)),
    "cotkappa": lambda nd, k, x: _n("div", _MINUS_ONE,
                                    _n("mul", *[_n("kfn", k, x, param=kernel.skappa)] * 2)),
}


def _rule(nd, lanes):
    """The six partials of a coordinate-dependent node, from its kids' ``lanes``."""
    op, kids = nd.op, nd.kids
    if op == "coord":
        return tuple(_ONE if i == nd.param else None for i in range(NVARS))
    if op in ("fn", "kfn"):
        return _chain(_DERIVATIVES[nd.param.__name__](nd, *kids), lanes[kids[-1]])
    if op in ("neg", "sub"):        # only ``number - observable`` builds a sub node
        return tuple(lane and _n("neg", lane) for lane in lanes[kids[-1]])
    (u, v), (a, b) = kids, (lanes[k] for k in kids)
    if op == "add":
        return _plus(a, b)
    if op == "mul":
        if u is v:                  # a square: v·a + v·a, one product node
            t = _chain(v, a)
            return _plus(t, t)
        return _plus(_chain(v, a), _chain(u, b))
    if op == "pow":
        return _chain(_n("mul", v, _n("pow", u, _n("sub", v, _INT_ONE))), a)
    if not u.dual:                  # o / KScalar
        return _chain(_n("div", _n("neg", u), _n("mul", v, v)), b)
    w = _n("div", _ONE, v)
    if not v.dual:                  # KScalar / o
        return _chain(w, a)
    return _plus(_chain(w, a), _chain(_n("mul", _n("mul", _n("neg", u), w), w), b))


def _partials(roots):
    """Each root's six partials as graphs (None for a structural zero), in
    one post-order pass over graphs without opaque leaves."""
    lanes = {}
    for nd in _postorder(roots):
        lanes[nd] = _rule(nd, lanes) if nd.dual else _NONE
    return [lanes[r] for r in roots]


# -- lowering and emission ---------------------------------------------------------

class _Lowering:
    """One walk of the graphs: the structure and the constants in slot order.

    Each coordinate-dependent node becomes one instruction, a tuple of its
    op, its operands and any name it needs; an operand is the index of an
    earlier instruction, or ``~slot`` (a negative number) for constant
    ``slot``.  Instructions are appended in the order the walk finishes
    them, which is the order the emitter writes them in.
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
        if op == "kfn":
            # One (S, C) pair per curvature label and argument.  The label is
            # keyed by its type and bits, so 0.0, -0.0 and the int 0 (whose
            # C' = -kappa S differ in the sign of a zero) never share a pair.
            kappa, x = self.folded[kids[0]], self.operand(kids[1])
            key = (type(kappa), float(kappa).hex(), x)
            if key not in self.pairs:
                self.pairs[key] = self.add("pair", x, self.const(kappa))
            return self.add("kfn", self.pairs[key], nd.param.__name__)
        args = map(self.operand, kids)
        return self.add(op, *args, nd.param.__name__) if op == "fn" else self.add(op, *args)


# kernel._kappa_pair as statements: S into {s}, C into {c}, r = sqrt(|u|).
_PAIR = (
    "{u} = {k} * {x} * {x}\n"
    f"if abs({{u}}) < {kernel._KTRIG_TAYLOR!r}: "
    "{s} = {x} * (1.0 + {u} * (-1.0 / 6.0 + {u} * (1.0 / 120.0 - {u} / 5040.0))); "
    "{c} = 1.0 + {u} * (-0.5 + {u} * (1.0 / 24.0 - {u} / 720.0))\n"
    "elif {u} > 0.0: {r} = sqrt({u}); {s} = {x} * (sin({r}) / {r}); {c} = cos({r})\n"
    "else: {r} = sqrt(-{u}); {s} = {x} * (sinh({r}) / {r}); {c} = cosh({r})")

# The source of each arithmetic op.  The first four cannot raise: one read
# once whose operands are plain names is written into its reader.
_TEXT = {"add": "{} + {}", "sub": "{} - {}", "mul": "{} * {}", "neg": "-{}",
         "div": "{} / {}", "pow": "{} ** {}"}
_PURE = ("add", "sub", "mul", "neg")


class _Emitter:
    """Writes the straight-line body of a structure: one statement per
    instruction, except the pure ones read once on plain names, which are
    written in parentheses into their reader."""

    def __init__(self):
        self.lines = []
        self.done = []      # per instruction: a name, an inlined text, or a pair
        self.fresh = map("t{}".format, itertools.count()).__next__

    def var(self, expr):
        name = self.fresh()
        self.lines.append(f"{name} = {expr}")
        return name

    def ref(self, a):
        return "0.0" if a is None else f"k{~a}" if a < 0 else self.done[a]

    def body(self, structure, seed):
        ins, outs = structure
        self.seed = seed
        reads = collections.Counter(outs)
        for op, *args in ins:
            if op != "coord":       # a pair's statements read its x more than once
                reads.update(args * 2 if op == "pair" else args)
        inlined = set()
        for i, (op, *args) in enumerate(ins):
            if op not in _TEXT:
                self.done.append(getattr(self, "op_" + op)(*args))
            elif op in _PURE and reads[i] == 1 and inlined.isdisjoint(args):
                inlined.add(i)
                self.done.append("(" + _TEXT[op].format(*map(self.ref, args)) + ")")
            else:
                self.done.append(self.var(_TEXT[op].format(*map(self.ref, args))))
        return self.lines + ["return (" + "".join(f"{self.ref(a)}, " for a in outs) + ")"]

    def op_coord(self, slot):
        name = f"x{slot}"
        if self.seed:
            self.lines.append(f"{name} = float({name})")     # seeded() takes float(coordinate)
        return name

    def op_fn(self, *args):
        *operands, name = args
        return self.var(f"{name}({', '.join(map(self.ref, operands))})")

    def op_pair(self, x, kappa):
        u, r, s, c = (self.fresh() for _ in range(4))
        k, x = self.ref(kappa), self.ref(x)
        self.lines += _PAIR.format(u=u, r=r, s=s, c=c, k=k, x=x).split("\n")
        return s, c, k, x

    def op_kfn(self, pair, name):
        s, c, kappa, x = self.done[pair]
        if name in ("skappa", "ckappa"):
            return s if name == "skappa" else c
        # The rule's quotient written out; it is called only at its pole, to
        # raise what it raises there.
        num, den = (s, c) if name == "tkappa" else (c, s)
        self.lines.append(f"if abs({den}) < {kernel._POLE_EPS!r}: "
                          f"{name}_rule({kappa}, {x}, {s}, {c})")
        return self.var(f"{num} / {den}")


# Compiled code objects by lowered structure and seed flag.  One pass of the
# verify benchmark needs about a dozen; the bound keeps memory fixed.
@functools.lru_cache(maxsize=64)
def _code(structure, seed):
    args = ", ".join(f"x{i}" for i in range(NVARS))
    body = "\n    ".join(_Emitter().body(structure, seed))
    return compile(f"def compiled({args}):\n    {body}\n",
                   "<compiled gradient>" if seed else "<compiled values>", "exec")


# The globals every compiled function shares: the kernel's float functions
# (those of the (S, C) pairs are math's) and ratio rules by name.  Each bound
# function adds its constants as ``k0, k1, ...`` to a copy.
_BASE_GLOBALS = {**kernel.FLOAT_FNS, **{f"{n}_rule": r for n, r in kernel.KAPPA_RULES.items()}}


def _lower(roots, grads):
    """(structure, constants) of several graphs, or None when a root cannot
    be compiled: the hashable structure key (instructions and outputs: each
    root's operand, then its flagged partials', None for a zero) and the
    constants in slot order."""
    low = _Lowering()
    order = _postorder(roots)
    for nd in order:
        low.lower(nd)
    if not all(r.dual and r in low.refs for r in roots):
        return None
    parts = _partials([r for r, g in zip(roots, grads) if g])
    for nd in _postorder([p for lanes in parts for p in lanes if p is not None], set(order)):
        low.lower(nd)
    outs, parts = [], iter(parts)
    for r, g in zip(roots, grads):
        lanes = next(parts) if g else ()
        if low.bad.intersection(lanes):
            return None
        outs += [low.refs[r], *(p and low.operand(p) for p in lanes)]
    return (tuple(low.ins), tuple(outs)), tuple(low.consts)


# Compiled functions by root nodes (identity), which the key holds, and
# gradient mask; None for a set with a root that cannot be compiled.  verify
# and rank bind 1 or 2 root sets per call, simulate 5 to 8; the bound keeps
# memory fixed.  Each entry lowers its roots and binds its constants on its own.
@functools.lru_cache(maxsize=256)
def _bound(roots, grads):
    lowered = _lower(roots, grads)
    if lowered is None:
        return None
    structure, consts = lowered
    env = dict(_BASE_GLOBALS, **{f"k{i}": c for i, c in enumerate(consts)})
    exec(_code(structure, any(grads)), env)
    return env.pop("compiled")


def compile_roots(roots, grads):
    """One compiled function of the six coordinates for all of ``roots``,
    or None when any root cannot be compiled.

    ``f(x0, ..., x5)`` returns, for each root in order, its value and,
    when its flag in ``grads`` is true, its six partials, in one flat
    tuple.  A root cannot be compiled when it holds an opaque leaf, a
    constant, exponent or curvature label that is not a number, or a
    coordinate-free subtree that raises when folded (as the evaluator
    does; a flagged root's partials too), or when it ignores the
    coordinates.

    Under any mask each value is bit for bit what :func:`evaluator` gives
    on the same floats, and each partial is the all-true function's.  A
    repeated call on the same root nodes and mask returns the same function.
    """
    return _bound(tuple(roots), tuple(map(bool, grads)))
