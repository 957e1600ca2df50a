"""Recording tape for abs-smooth functions.

A tape is a straight-line program over a fixed primitive set in which ``abs``
is the only nonsmooth operation.  Every ``abs`` node introduces one switching
variable (its argument, in recording order), so the k-th switching variable
can only depend on switching variables recorded before it.  Evaluating the
tape gives the function value together with all switching values; linearizing
it at a point produces the piecewise-linear model data consumed by
:mod:`absfw.plmodel`.

A node states its operands once: ``TapeNode.args`` holds the indices of the
nodes it reads, and ``TapeNode.value`` the input slot, the constant, the
scale factor or the affine constant.  Besides the scalar primitives there is
one n-ary node, ``affine``, with value ``value + sum_k weights[k] *
v[args[k]]``.  A regression residual ``A_k x - y_k`` is then one node instead
of a chain of ``scale`` and ``add`` per entry, and its linearization is one
vector-matrix product over its operands' records.  Its text line is
``<idx> affine <const> <arg> <weight> ...`` with one (operand, weight) pair
per term.

An abs node's switching slot is its rank among the abs nodes, so no table
stores it.  The other unary primitives are smooth, each one (value,
derivative) pair in ``absfw.tape_program.SMOOTH`` that the one tangent rule
``f(a) + f'(a) (rec - a)`` linearizes.

``evaluate`` and ``abs_linearize`` run the tape's ``TapeProgram``
(``Tape.program``), compiled on first use into groups of nodes that run as
one numpy operation each, in the arithmetic of one node at a time; see
:mod:`absfw.tape_program`, the one place that derives data from the nodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .plmodel import AbsLinearForm
from .tape_program import SMOOTH, EvalRecord, EvaluationError, TapeProgram

# ops taking two operands
_BINARY = ("add", "sub", "mul")
_UNARY = tuple(SMOOTH) + ("abs",)
# operand count per op; None for affine, which takes one or more
_ARITY = {"input": 0, "const": 0, "scale": 1, "affine": None,
          **dict.fromkeys(_BINARY, 2), **dict.fromkeys(_UNARY, 1)}


class TapeError(Exception):
    """Malformed tape or invalid builder usage."""


@dataclass(frozen=True)
class TapeNode:
    op: str
    args: tuple[int, ...] = ()  # operand node indices
    value: float = 0.0  # input slot, constant, scale factor or affine constant
    weights: tuple[float, ...] = ()  # affine only: one per operand


@dataclass(frozen=True)
class Tape:
    """Immutable straight-line program. ``output`` indexes the node holding y."""

    nodes: tuple[TapeNode, ...]
    num_inputs: int
    output: int

    @cached_property
    def num_switch(self) -> int:
        return sum(node.op == "abs" for node in self.nodes)

    @cached_property
    def program(self) -> TapeProgram:
        """The tape compiled into level groups, which ``evaluate`` and
        ``abs_linearize`` run.  Built on first use, as ``__post_init__``
        would charge tapes never run; the cache sits in ``__dict__``, unseen
        by ``__eq__`` and ``repr``."""
        return TapeProgram(self)

    def __post_init__(self):
        if self.num_inputs < 0:
            raise TapeError("num_inputs must be nonnegative")
        for idx, node in enumerate(self.nodes):
            op, args = node.op, node.args
            if op not in _ARITY:
                raise TapeError(f"node {idx}: unknown op {op!r}")
            if not (len(args) == _ARITY[op] or op == "affine" and args):
                raise TapeError(f"node {idx}: {op} cannot take {len(args)} operands")
            if args and not (0 <= min(args) and max(args) < idx):
                raise TapeError(f"node {idx}: operands must precede the node")
            if len(node.weights) != (len(args) if op == "affine" else 0):
                raise TapeError(f"node {idx}: weights go on affine nodes, one per operand")
            if op == "affine" and not all(map(math.isfinite, node.weights)):
                raise TapeError(f"node {idx}: affine weights must be finite")
            if op == "input" and not (type(node.value) is int and 0 <= node.value < self.num_inputs):
                raise TapeError(f"node {idx}: input slot {node.value!r} out of range")
        if not 0 <= self.output < len(self.nodes):
            raise TapeError("output index out of range")


def evaluate(tape: Tape, x) -> EvalRecord:
    """Run the tape at ``x``; abs-node values are |z_i| for switching value z_i.

    A non-finite value raises ``EvaluationError`` naming the first node, in
    tape order, that has one."""
    x = np.asarray(x, dtype=float)
    if x.shape != (tape.num_inputs,):
        raise ValueError(f"expected input of length {tape.num_inputs}, got {x.shape}")
    return tape.program.evaluate(x)


def abs_linearize(tape: Tape, xbar, record: EvalRecord | None = None) -> AbsLinearForm:
    """Piecewise-linear model of the tape at ``xbar``.

    Propagates, per node, an affine record in (dx, z, |z|) of length 1+n+2s:
    smooth primitives are replaced by their tangents at the current values
    (``f(a) + f'(a) (rec - a)`` for the unary ones), abs nodes freeze their
    argument's record as one switching row.  Once a node becomes the
    argument of an abs, later uses of it refer to the switching variable
    symbolically, which is what populates M and b.
    ``record``, if given, must be ``evaluate(tape, xbar)``; it saves that run.
    A record that is not finite raises ``EvaluationError`` naming the first
    node, in tape order, that has one; a chain of adds counts as its last add.
    """
    rec = evaluate(tape, xbar) if record is None else record
    return tape.program.linearize(rec.values)


def directional_fd(tape: Tape, xbar, d, h: float) -> float:
    """One-sided finite difference (f(xbar + h*d) - f(xbar)) / h, h > 0."""
    if not h > 0:  # NaN fails too
        raise ValueError("h must be positive")
    xbar = np.asarray(xbar, dtype=float)
    d = np.asarray(d, dtype=float)
    f0 = evaluate(tape, xbar).y
    f1 = evaluate(tape, xbar + h * d).y
    return (f1 - f0) / h


class Expr:
    """Handle to a tape node; arithmetic records new nodes on the builder."""

    __slots__ = ("builder", "index")

    def __init__(self, builder: "TapeBuilder", index: int):
        self.builder = builder
        self.index = index

    def _coerce(self, other) -> "Expr":
        if isinstance(other, Expr):
            if other.builder is not self.builder:
                raise TapeError("mixing expressions from different builders")
            return other
        return self.builder.const(float(other))

    def __add__(self, other):
        return self.builder._emit("add", self, self._coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self.builder._emit("sub", self, self._coerce(other))

    def __rsub__(self, other):
        return self.builder._emit("sub", self._coerce(other), self)

    def __mul__(self, other):
        if not isinstance(other, Expr):
            return self.builder.scale(float(other), self)
        return self.builder._emit("mul", self, self._coerce(other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return self.builder._emit("neg", self)

    def __abs__(self):
        return self.builder.abs(self)


class TapeBuilder:
    """Expression-style recorder; one switching index per abs, in call order."""

    def __init__(self, num_inputs: int):
        self.num_inputs = num_inputs
        self._nodes: list[TapeNode] = []
        self._consts: dict[tuple[float, float], int] = {}  # by (value, sign): -0.0 is not 0.0
        self._inputs = [self._push(TapeNode("input", value=k)) for k in range(num_inputs)]

    def _push(self, node: TapeNode) -> int:
        self._nodes.append(node)
        return len(self._nodes) - 1

    def _emit(self, op: str, a: Expr, b: Expr | None = None) -> Expr:
        idx = self._push(TapeNode(op, (a.index,) if b is None else (a.index, b.index)))
        return Expr(self, idx)

    def inputs(self) -> list[Expr]:
        return [Expr(self, i) for i in self._inputs]

    def const(self, value: float) -> Expr:
        value = float(value)
        key = (value, math.copysign(1.0, value))
        if key not in self._consts:
            self._consts[key] = self._push(TapeNode("const", value=value))
        return Expr(self, self._consts[key])

    def scale(self, value: float, e: Expr) -> Expr:
        idx = self._push(TapeNode("scale", (e.index,), float(value)))
        return Expr(self, idx)

    def affine(self, weights, exprs, const: float = 0.0) -> Expr:
        """``const + sum_k weights[k] * exprs[k]`` as one node.

        Evaluation is one dot product and linearization one vector-matrix
        product over the operands' records, where a chain of ``scale`` and
        ``add`` would record two nodes per term.  Operands may repeat; the
        weights must be finite, one per operand (checked by ``build``).
        """
        args = []
        for e in exprs:
            if not isinstance(e, Expr) or e.builder is not self:
                raise TapeError("affine operands must be expressions of this builder")
            args.append(e.index)
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 1:
            raise TapeError("affine weights must be a vector")
        idx = self._push(TapeNode("affine", tuple(args), float(const), tuple(weights.tolist())))
        return Expr(self, idx)

    def abs(self, e: Expr) -> Expr:
        return self._emit("abs", e)

    def square(self, e: Expr) -> Expr:
        return self._emit("square", e)

    def sin(self, e: Expr) -> Expr:
        return self._emit("sin", e)

    def cos(self, e: Expr) -> Expr:
        return self._emit("cos", e)

    def exp(self, e: Expr) -> Expr:
        return self._emit("exp", e)

    def max_(self, u: Expr, v: Expr) -> Expr:
        # max(u, v) = 0.5*(u + v + |u - v|)
        return self.scale(0.5, u + v + self.abs(u - v))

    def min_(self, u: Expr, v: Expr) -> Expr:
        # min(u, v) = 0.5*(u + v - |u - v|)
        return self.scale(0.5, u + v - self.abs(u - v))

    def max_list(self, exprs: list[Expr]) -> Expr:
        """Max of several terms as a balanced tree of pairwise max."""
        if not exprs:
            raise TapeError("max_list needs at least one expression")
        level = list(exprs)
        while len(level) > 1:
            nxt = [self.max_(level[k], level[k + 1]) for k in range(0, len(level) - 1, 2)]
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def build(self, output: Expr) -> Tape:
        if output.builder is not self:
            raise TapeError("output belongs to a different builder")
        return Tape(nodes=tuple(self._nodes), num_inputs=self.num_inputs, output=output.index)


def tape_to_text(tape: Tape) -> str:
    """Line-oriented dump: header ``n=<int> s=<int>``, one node per line.

    The output must be the last node so the format stays self-contained.
    Floats use repr, which round-trips bit-exactly.  An affine node is
    ``<idx> affine <const> <arg> <weight> ...``, one pair per operand.
    """
    if tape.output != len(tape.nodes) - 1:
        raise TapeError("serialization requires the output to be the last node")
    lines = [f"n={tape.num_inputs} s={tape.num_switch}"]
    for idx, node in enumerate(tape.nodes):
        if node.op == "input":
            fields = [node.value]
        elif node.op == "const":
            fields = [repr(node.value)]
        elif node.op == "scale":
            fields = [*node.args, repr(node.value)]
        elif node.op == "affine":
            fields = [repr(node.value), *(f"{k} {w!r}" for k, w in zip(node.args, node.weights))]
        else:
            fields = node.args
        lines.append(" ".join(map(str, (idx, node.op, *fields))))
    return "\n".join(lines) + "\n"


def tape_from_text(text: str) -> Tape:
    """Inverse of ``tape_to_text``; malformed text raises ``TapeError``
    naming the offending line."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    try:
        (key_n, n), (key_s, s) = (part.split("=") for part in lines[0].split())
        n, s = int(n), int(s)
        if (key_n, key_s) != ("n", "s") or n < 0:
            raise ValueError("header is not n=<int> s=<int> with n >= 0")
    except (IndexError, ValueError):
        raise TapeError(f"bad header line {lines[0] if lines else ''!r}") from None
    nodes: list[TapeNode] = []
    for ln in lines[1:]:
        try:
            idx, op, *fields = ln.split()
            if int(idx) != len(nodes):
                raise TapeError("node index out of order")
            nodes.append(_node_from_fields(op, fields))
        except (TapeError, ValueError) as exc:
            raise TapeError(f"line {ln!r}: {exc}") from None
    tape = Tape(nodes=tuple(nodes), num_inputs=n, output=len(nodes) - 1)
    if s != tape.num_switch:
        raise TapeError("header switch count does not match abs nodes")
    return tape


def _node_from_fields(op: str, fields: list[str]) -> TapeNode:
    """One node from the fields after ``<idx> <op>``; the operand counts of
    the scalar ops are left to ``Tape``'s validation."""
    if op == "input":
        (slot,) = fields
        return TapeNode("input", value=int(slot))
    if op == "const":
        (value,) = fields
        return TapeNode("const", value=float(value))
    if op == "scale":
        arg, value = fields
        return TapeNode("scale", (int(arg),), float(value))
    if op == "affine":
        const, *terms = fields
        if len(terms) % 2:
            raise TapeError("affine needs (operand, weight) pairs")
        return TapeNode("affine", tuple(map(int, terms[::2])), float(const), tuple(map(float, terms[1::2])))
    if op not in _ARITY:
        raise TapeError(f"unknown op {op!r}")
    return TapeNode(op, tuple(map(int, fields)))
