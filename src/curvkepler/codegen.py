"""Expression graphs of observables: their evaluator, partials and compiled code.

An observable is a graph of :class:`Node` objects over coordinates,
parameters (z, kappa2 and gamma, :data:`PARAMS`), constants and ``opaque``
leaves (user callables).  :func:`evaluator` gives its value on floats or
``KScalar`` duals alike, the parameters read from a binding.
:func:`compile_roots` turns several graphs (the roots) into one Python
function of the six coordinates at a binding, which returns each root's
value and, where the gradient mask flags it, its six partials; or gives
None when any root cannot be compiled.

Partials are graphs (Griewank-Walther, *Evaluating Derivatives*, ch. 6-7):
:func:`_partials` writes each node's ``KScalar`` rule as nodes, with the
same float operations in the same order, so the evaluator on floats or
duals and the compiled code under any mask give every value bit for bit,
and every partial is the dual path's.

A root set is lowered once per mask (:func:`_lowered`) and serves every
binding: each coordinate-dependent node becomes one instruction, and each
coordinate-free node an instruction reads one constant slot, whose value a
bind step computes with the evaluator's operations in the evaluator's
order, so every constant keeps its bits.  Code objects are kept by
structure (:func:`_code`) and bound functions by roots, mask and the
binding's bits (:func:`_bound`), so new parameters cost one bind step and
one ``exec``.

Every ``skappa``, ``ckappa``, ``tkappa`` and ``cotkappa`` node on one
argument and one curvature label, a number (by :func:`_bits`: 0.0, -0.0
and the int 0 never share one) or one parameter-expression node, reads one
pair instruction, the statements of ``kernel._kappa_pair`` written out.
Nothing else is merged by value, which would let the parameters into the
structure key (at ``kappa1 = kappa2 = 1.0`` equal constants would merge
and rewire a table): builders build a shared subexpression once instead.
"""

from __future__ import annotations

import collections
import functools
import itertools
import operator
import struct

from . import kernel
from .kernel import NVARS

# The parameters a param leaf reads, by slot, and the order of a binding.
PARAMS = ("z", "kappa2", "gamma")

# The Python operation of each arithmetic op on its operands' values: the
# one map the evaluator and constant folding apply.  On the coordinates only
# ``number - observable`` builds a sub node (a power's partial folds
# ``n - 1``), and ``x * x`` is a mul node whose two operands are one node.
_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
        "div": operator.truediv, "neg": operator.neg, "pow": operator.pow}


class Node:
    """One operation of an observable's expression graph.

    ``op`` is one of coord, param, const, opaque, add, sub, mul, div, neg,
    pow, fn, kfn; ``kids`` are the operand nodes (the exponent of pow and
    the curvature label of kfn are coordinate-free kids; the fn of a partial
    of sinhc or expm1c reads the argument and the value).  ``param`` is the
    slot of a coord or of a param (an index of :data:`PARAMS`), the value of
    a const, and the operation of every other node: its ``_OPS`` entry, the
    kernel function of fn and kfn, or the callable of the six coordinates
    of an opaque leaf.  ``dual`` is true when the node depends on the
    coordinates, i.e. when a dual evaluation makes its value a ``KScalar``.
    ``fn`` caches the node's evaluation program (:func:`evaluator`).
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


def _bits(value):
    """A key equal only for interchangeable numbers: the type and, for a
    float, the bits (0.0, -0.0, the int 0 and each NaN payload differ)."""
    return type(value), struct.pack("<d", value) if isinstance(value, float) else value


def evaluator(root, binding=None):
    """``root``'s value as a function ``f(x0, ..., x5)`` on floats or duals,
    its param leaves read from ``binding``; the program is kept on the node.
    An opaque leaf's evaluator is its callable."""
    if root.op == "opaque":
        return root.param
    if root.fn is None:
        root.fn = _program([root])
    return root.fn(binding)


def _program(roots, many=False):
    """The evaluation program of ``roots``: given a binding (one value per
    :data:`PARAMS` slot, None where unbound), the function of the six
    coordinates that returns the first root's value, or with ``many`` the
    list of the roots' values.  The value list holds the coordinates, the
    parameters, the constants, the opaque leaves' values (each called once,
    first) and one value per operation, in post-order."""
    order = _postorder(roots)
    index = {nd: nd.param for nd in order if nd.op == "coord"}
    index.update((nd, NVARS + nd.param) for nd in order if nd.op == "param")
    consts = [nd for nd in order if nd.op == "const"]
    leaves = [nd for nd in order if nd.op == "opaque"]
    ops = [nd for nd in order if nd.kids]
    index.update((nd, i) for i, nd in enumerate(consts + leaves + ops, NVARS + len(PARAMS)))
    values = [nd.param for nd in consts]
    calls = [nd.param for nd in leaves]
    steps = [(nd.param, index[nd.kids[0]], index[nd.kids[1]] if len(nd.kids) > 1 else None)
             for nd in ops]
    outs = [index[r] for r in roots]
    out = outs[0] if roots else None
    used = sorted({nd.param for nd in order if nd.op == "param"})

    def bind(binding):
        pre = list(binding or (None,) * len(PARAMS))
        if missing := [PARAMS[i] for i in used if pre[i] is None]:
            raise kernel.DomainError(f"no value is bound to the parameter {', '.join(missing)}")
        pre += values

        def evaluate(x0, x1, x2, x3, x4, x5):
            v = [x0, x1, x2, x3, x4, x5, *pre]
            push = v.append
            for f in calls:
                push(f(x0, x1, x2, x3, x4, x5))
            for f, a, b in steps:
                push(f(v[a]) if b is None else f(v[a], v[b]))
            return [v[i] for i in outs] if many else v[out]
        return evaluate
    return bind


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
    """One walk of the graphs: the instructions, in the order the emitter
    writes them, and the coordinate-free node of each constant slot.  An
    instruction is a tuple of its op, its operands and any name it needs;
    an operand is the index of an instruction, or ``~slot`` for a constant."""

    def __init__(self):
        self.ins = []
        self.slots = []     # the coordinate-free node of each constant slot
        self.refs = {}      # node -> operand
        self.bad = set()    # nodes that cannot be compiled
        self.coords = {}    # slot -> instruction
        self.pairs = {}     # (label key, x operand) -> "pair" instruction

    def add(self, *instr):
        self.ins.append(instr)
        return len(self.ins) - 1

    def operand(self, nd):
        """A lowered node's operand; a coordinate-free node takes a constant slot."""
        if nd not in self.refs:
            self.slots.append(nd)
            self.refs[nd] = ~(len(self.slots) - 1)
        return self.refs[nd]

    def lower(self, nd):
        """Lower one node whose kids are lowered: an instruction, a node for
        the bind step (coordinate-free), or one that cannot be compiled."""
        if (nd.op == "opaque" or not self.bad.isdisjoint(nd.kids)
                or nd.op == "const" and not isinstance(nd.param, (int, float))):
            self.bad.add(nd)
        elif nd.dual:
            self.refs[nd] = self.instruction(nd)

    def instruction(self, nd):
        op, kids = nd.op, nd.kids
        if op == "coord":
            if nd.param not in self.coords:
                self.coords[nd.param] = self.add("coord", nd.param)
            return self.coords[nd.param]
        if op == "kfn":     # one (S, C) pair per curvature label and argument
            k = kids[0]
            key = (_bits(k.param) if k.op == "const" else k), self.operand(kids[1])
            if key not in self.pairs:
                self.pairs[key] = self.add("pair", key[1], self.operand(k))
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
    """(structure, bind step) of several graphs, or None when a root cannot
    be compiled: the structure key (instructions and outputs: each root's
    operand, then its flagged partials', None for a zero), and the function
    of a binding that gives the constants in slot order."""
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
    program = _program(low.slots, many=True)
    return (tuple(low.ins), tuple(outs)), lambda binding: program(binding)(*_NONE)


# Lowered root sets by root nodes (identity) and gradient mask, shared by
# every binding; the bound keeps memory fixed.
@functools.lru_cache(maxsize=256)
def _lowered(roots, grads):
    return _lower(roots, grads)


# Compiled functions by root nodes (identity), gradient mask and the bits of
# the binding; None where compile_roots gives None.  verify and rank bind 1 or
# 2 root sets per call, simulate 5 to 8; the bound keeps memory fixed.
@functools.lru_cache(maxsize=256)
def _bound(roots, grads, binding, bits):
    lowered = _lowered(roots, grads)
    if lowered is None:
        return None
    try:
        consts = lowered[1](binding)
    except (ArithmeticError, ValueError):
        return None
    if not all(isinstance(c, (int, float)) for c in consts):
        return None
    env = dict(_BASE_GLOBALS, **{f"k{i}": c for i, c in enumerate(consts)})
    exec(_code(lowered[0], any(grads)), env)
    return env.pop("compiled")


def compile_roots(roots, grads, binding=None):
    """One compiled function ``f(x0, ..., x5)`` for all of ``roots`` at
    ``binding``: for each root in order its value and, when its flag in
    ``grads`` is true, its six partials, in one flat tuple.  Each value is
    bit for bit what :func:`evaluator` gives, and the same roots, mask and
    binding bits give the same function.

    None when a root holds an opaque leaf or a constant that is not a
    number, ignores the coordinates, or has a coordinate-free subtree
    (its partials' included) that raises at ``binding`` or reads a
    parameter it leaves unbound, as the evaluator raises there.
    """
    bits = None if binding is None else tuple(map(_bits, binding))
    return _bound(tuple(roots), tuple(map(bool, grads)), binding, bits)
