"""Recording tape for abs-smooth functions.

A tape is a straight-line program over a fixed primitive set in which ``abs``
is the only nonsmooth operation.  Every ``abs`` node introduces one switching
variable (its argument, in recording order), so the k-th switching variable
can only depend on switching variables recorded before it.  Evaluating the
tape gives the function value together with all switching values; linearizing
it at a point produces the piecewise-linear model data consumed by
:mod:`absfw.plmodel`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .plmodel import AbsLinearForm

# ops taking (a, b)
_BINARY = ("add", "sub", "mul")
# ops taking a single argument
_UNARY = ("neg", "square", "sin", "cos", "exp", "abs")
_OPS = ("input", "const", "scale") + _BINARY + _UNARY


class TapeError(Exception):
    """Malformed tape or invalid builder usage."""


class EvaluationError(Exception):
    """A smooth primitive produced a non-finite value."""

    def __init__(self, node: int, message: str):
        super().__init__(f"node {node}: {message}")
        self.node = node


@dataclass(frozen=True)
class TapeNode:
    op: str
    a: int = -1
    b: int = -1
    value: float = 0.0


@dataclass(frozen=True)
class Tape:
    """Immutable straight-line program. ``output`` indexes the node holding y."""

    nodes: tuple[TapeNode, ...]
    num_inputs: int
    output: int
    # switching slot (0-based) per abs node, in tape order
    switch_index: dict[int, int] = field(default_factory=dict, repr=False)

    @property
    def num_switch(self) -> int:
        return len(self.switch_index)

    def __post_init__(self):
        for idx, node in enumerate(self.nodes):
            if node.op not in _OPS:
                raise TapeError(f"node {idx}: unknown op {node.op!r}")
            if node.op in _BINARY and not (0 <= node.a < idx and 0 <= node.b < idx):
                raise TapeError(f"node {idx}: operands must precede the node")
            if node.op in _UNARY + ("scale",) and not 0 <= node.a < idx:
                raise TapeError(f"node {idx}: operand must precede the node")
            if node.op == "input" and not 0 <= node.a < self.num_inputs:
                raise TapeError(f"node {idx}: input slot {node.a} out of range")
        if not 0 <= self.output < len(self.nodes):
            raise TapeError("output index out of range")


@dataclass(frozen=True)
class EvalRecord:
    values: np.ndarray  # per-node values
    z: np.ndarray       # switching values, tape order
    y: float


def evaluate(tape: Tape, x) -> EvalRecord:
    """Run the tape at ``x``; abs-node values are |z_i| for switching value z_i."""
    x = np.asarray(x, dtype=float)
    if x.shape != (tape.num_inputs,):
        raise ValueError(f"expected input of length {tape.num_inputs}, got {x.shape}")
    vals = np.empty(len(tape.nodes))
    z = np.empty(tape.num_switch)
    for idx, node in enumerate(tape.nodes):
        op = node.op
        if op == "input":
            v = x[node.a]
        elif op == "const":
            v = node.value
        elif op == "add":
            v = vals[node.a] + vals[node.b]
        elif op == "sub":
            v = vals[node.a] - vals[node.b]
        elif op == "mul":
            v = vals[node.a] * vals[node.b]
        elif op == "neg":
            v = -vals[node.a]
        elif op == "scale":
            v = node.value * vals[node.a]
        elif op == "square":
            v = vals[node.a] * vals[node.a]
        elif op == "sin":
            v = math.sin(vals[node.a])
        elif op == "cos":
            v = math.cos(vals[node.a])
        elif op == "exp":
            try:
                v = math.exp(vals[node.a])
            except OverflowError:
                raise EvaluationError(idx, "exp overflow") from None
        else:  # abs
            arg = vals[node.a]
            z[tape.switch_index[idx]] = arg
            v = abs(arg)
        if not math.isfinite(v):
            raise EvaluationError(idx, f"non-finite value in {op}")
        vals[idx] = v
    return EvalRecord(values=vals, z=z, y=float(vals[tape.output]))


def abs_linearize(tape: Tape, xbar, record: EvalRecord | None = None) -> AbsLinearForm:
    """Piecewise-linear model of the tape at ``xbar``.

    Propagates, per node, an affine record in (dx, z, |z|) of length 1+n+2s:
    smooth primitives are replaced by their tangents at the current values,
    abs nodes freeze their argument's record as one switching row.  Once a
    node becomes the argument of an abs, later uses of it refer to the
    switching variable symbolically, which is what populates M and b.
    ``record``, if given, must be ``evaluate(tape, xbar)``; it saves that run.
    """
    rec = evaluate(tape, xbar) if record is None else record
    vals = rec.values
    n, s = tape.num_inputs, tape.num_switch
    width = 1 + n + 2 * s
    xpart = slice(1, 1 + n)

    Z = np.zeros((s, n))
    M = np.zeros((s, s))
    L = np.zeros((s, s))
    c = np.zeros(s)

    # last position at which each node's record is still needed
    last_use = list(range(len(tape.nodes)))
    for idx, node in enumerate(tape.nodes):
        if node.a >= 0:
            last_use[node.a] = idx
        if node.b >= 0:
            last_use[node.b] = idx
    last_use[tape.output] = len(tape.nodes)

    recs: list[np.ndarray | None] = [None] * len(tape.nodes)
    for idx, node in enumerate(tape.nodes):
        op = node.op
        if op == "input":
            r = np.zeros(width)
            r[0] = vals[idx]
            r[1 + node.a] = 1.0
        elif op == "const":
            r = np.zeros(width)
            r[0] = node.value
        elif op == "add":
            r = recs[node.a] + recs[node.b]
        elif op == "sub":
            r = recs[node.a] - recs[node.b]
        elif op == "neg":
            r = -recs[node.a]
        elif op == "scale":
            r = node.value * recs[node.a]
        elif op == "mul":
            va, vb = vals[node.a], vals[node.b]
            r = vb * recs[node.a] + va * recs[node.b]
            r[0] -= va * vb
        elif op == "square":
            va = vals[node.a]
            r = (2.0 * va) * recs[node.a]
            r[0] -= va * va
        elif op == "sin":
            va = vals[node.a]
            r = math.cos(va) * recs[node.a]
            r[0] += math.sin(va) - math.cos(va) * va
        elif op == "cos":
            va = vals[node.a]
            r = (-math.sin(va)) * recs[node.a]
            r[0] += math.cos(va) + math.sin(va) * va
        elif op == "exp":
            e = math.exp(vals[node.a])
            r = e * recs[node.a]
            r[0] += e * (1.0 - vals[node.a])
        else:  # abs: freeze the argument's record as switching row i
            i = tape.switch_index[idx]
            arg = recs[node.a]
            c[i] = arg[0]
            Z[i] = arg[xpart]
            M[i] = arg[1 + n:1 + n + s]
            L[i] = arg[1 + n + s:]
            # later uses of the argument refer to z_i, of this node to |z_i|
            zr = np.zeros(width)
            zr[1 + n + i] = 1.0
            recs[node.a] = zr
            r = np.zeros(width)
            r[1 + n + s + i] = 1.0
        recs[idx] = r
        if node.a >= 0 and last_use[node.a] == idx:
            recs[node.a] = None
        if node.b >= 0 and last_use[node.b] == idx and node.b != node.a:
            recs[node.b] = None

    out = recs[tape.output]
    return AbsLinearForm(
        n=n,
        s=s,
        Z=Z,
        M=M,
        L=L,
        a=out[xpart].copy(),
        b=out[1 + n:1 + n + s].copy(),
        babs=out[1 + n + s:].copy(),
        c=c,
        d=float(out[0]),
    )


def directional_fd(tape: Tape, xbar, d, h: float) -> float:
    """One-sided finite difference (f(xbar + h*d) - f(xbar)) / h, h > 0."""
    if h <= 0:
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
        if num_inputs < 0:
            raise TapeError("num_inputs must be nonnegative")
        self.num_inputs = num_inputs
        self._nodes: list[TapeNode] = []
        self._switch: dict[int, int] = {}
        self._consts: dict[float, int] = {}
        self._inputs = [self._push(TapeNode("input", a=k)) for k in range(num_inputs)]

    def _push(self, node: TapeNode) -> int:
        self._nodes.append(node)
        return len(self._nodes) - 1

    def _emit(self, op: str, a: Expr, b: Expr | None = None) -> Expr:
        idx = self._push(TapeNode(op, a=a.index, b=b.index if b is not None else -1))
        return Expr(self, idx)

    def inputs(self) -> list[Expr]:
        return [Expr(self, i) for i in self._inputs]

    def const(self, value: float) -> Expr:
        value = float(value)
        if value not in self._consts:
            self._consts[value] = self._push(TapeNode("const", value=value))
        return Expr(self, self._consts[value])

    def scale(self, value: float, e: Expr) -> Expr:
        idx = self._push(TapeNode("scale", a=e.index, value=float(value)))
        return Expr(self, idx)

    def abs(self, e: Expr) -> Expr:
        idx = self._push(TapeNode("abs", a=e.index))
        self._switch[idx] = len(self._switch)
        return Expr(self, idx)

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
        return Tape(
            nodes=tuple(self._nodes),
            num_inputs=self.num_inputs,
            output=output.index,
            switch_index=dict(self._switch),
        )


def tape_to_text(tape: Tape) -> str:
    """Line-oriented dump: header ``n=<int> s=<int>``, one node per line.

    The output must be the last node so the format stays self-contained.
    Floats use repr, which round-trips bit-exactly.
    """
    if tape.output != len(tape.nodes) - 1:
        raise TapeError("serialization requires the output to be the last node")
    lines = [f"n={tape.num_inputs} s={tape.num_switch}"]
    for idx, node in enumerate(tape.nodes):
        if node.op == "input":
            lines.append(f"{idx} input {node.a}")
        elif node.op == "const":
            lines.append(f"{idx} const {node.value!r}")
        elif node.op == "scale":
            lines.append(f"{idx} scale {node.a} {node.value!r}")
        elif node.op in _BINARY:
            lines.append(f"{idx} {node.op} {node.a} {node.b}")
        else:
            lines.append(f"{idx} {node.op} {node.a}")
    return "\n".join(lines) + "\n"


def tape_from_text(text: str) -> Tape:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("n="):
        raise TapeError("missing header line")
    head = dict(part.split("=") for part in lines[0].split())
    n = int(head["n"])
    nodes: list[TapeNode] = []
    switch: dict[int, int] = {}
    for ln in lines[1:]:
        parts = ln.split()
        idx, op = int(parts[0]), parts[1]
        if idx != len(nodes):
            raise TapeError(f"node index {idx} out of order")
        if op == "input":
            nodes.append(TapeNode("input", a=int(parts[2])))
        elif op == "const":
            nodes.append(TapeNode("const", value=float(parts[2])))
        elif op == "scale":
            nodes.append(TapeNode("scale", a=int(parts[2]), value=float(parts[3])))
        elif op in _BINARY:
            nodes.append(TapeNode(op, a=int(parts[2]), b=int(parts[3])))
        elif op in _UNARY:
            nodes.append(TapeNode(op, a=int(parts[2])))
            if op == "abs":
                switch[idx] = len(switch)
        else:
            raise TapeError(f"unknown op {op!r}")
    if int(head["s"]) != len(switch):
        raise TapeError("header switch count does not match abs nodes")
    return Tape(nodes=tuple(nodes), num_inputs=n, output=len(nodes) - 1, switch_index=switch)
