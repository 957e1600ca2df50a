"""Recording tape for abs-smooth functions.

A tape is a straight-line program over a fixed primitive set in which ``abs``
is the only nonsmooth operation.  Every ``abs`` node introduces one switching
variable (its argument, in recording order), so the k-th switching variable
can only depend on switching variables recorded before it.  Evaluating the
tape gives the function value together with all switching values; linearizing
it at a point produces the piecewise-linear model data consumed by
:mod:`absfw.plmodel`.

Besides the scalar primitives there is one n-ary node, ``affine``, with value
``const + sum_k w_k * v[arg_k]``.  A regression residual ``A_k x - y_k`` is
then one node instead of a chain of ``scale`` and ``add`` per entry, and its
linearization is one vector-matrix product over its operands' records.  The
node keeps ``const`` in ``TapeNode.value``; its operand indices and weights sit
in the tape's ``affine`` side table.  Its text line is
``<idx> affine <const> <arg> <weight> ...`` with one (operand, weight) pair
per term.

An abs node's switching slot is its rank among the abs nodes, so no table
stores it: ``evaluate`` and ``abs_linearize`` count slots as they go, and
``Tape.switch_index`` derives the map for readers.  The other unary
primitives are smooth, each one (value, derivative) pair in ``_SMOOTH``
that the one tangent rule ``f(a) + f'(a) (rec - a)`` linearizes.

Linearization drops a node's record once no later node reads it.  Which
records go after which node depends only on the tape, so ``Tape.release``
works that plan out on the first linearization and keeps it for the rest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .plmodel import AbsLinearForm

# ops taking (a, b)
_BINARY = ("add", "sub", "mul")
# smooth ops taking a single argument: (value, derivative)
_SMOOTH = {
    "neg": (lambda a: -a, lambda a: -1.0),
    "square": (lambda a: a * a, lambda a: 2.0 * a),
    "sin": (math.sin, math.cos),
    "cos": (math.cos, lambda a: -math.sin(a)),
    "exp": (math.exp, math.exp),
}
_UNARY = tuple(_SMOOTH) + ("abs",)
_OPS = ("input", "const", "scale", "affine") + _BINARY + _UNARY


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
    # (operand indices, weights) per affine node
    affine: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict, repr=False)

    @cached_property
    def num_switch(self) -> int:
        return sum(node.op == "abs" for node in self.nodes)

    @property
    def switch_index(self) -> dict[int, int]:
        """Switching slot (0-based) per abs node: its rank among them."""
        kinks = [idx for idx, node in enumerate(self.nodes) if node.op == "abs"]
        return {idx: k for k, idx in enumerate(kinks)}

    @cached_property
    def release(self) -> tuple[tuple[int, ...], ...]:
        """Per node, the operands no later node reads (never the output),
        whose linearization records may go once the node is done.  Built on
        first use, as ``__post_init__`` would charge tapes never linearized;
        the cache sits in ``__dict__``, unseen by ``__eq__`` and ``repr``."""
        last: dict[int, int] = {}
        for idx, node in enumerate(self.nodes):
            if node.op == "affine":
                last.update(dict.fromkeys(self.affine[idx][0].tolist(), idx))
            elif node.op != "input":  # an input's ``a`` is its slot
                if node.a >= 0:
                    last[node.a] = idx
                if node.b >= 0:
                    last[node.b] = idx
        last.pop(self.output, None)
        plan: list[list[int]] = [[] for _ in self.nodes]
        for k, idx in last.items():
            plan[idx].append(k)
        return tuple(map(tuple, plan))

    def __post_init__(self):
        table = {}
        for idx, node in enumerate(self.nodes):
            if node.op not in _OPS:
                raise TapeError(f"node {idx}: unknown op {node.op!r}")
            if node.op in _BINARY and not (0 <= node.a < idx and 0 <= node.b < idx):
                raise TapeError(f"node {idx}: operands must precede the node")
            if node.op in _UNARY + ("scale",) and not 0 <= node.a < idx:
                raise TapeError(f"node {idx}: operand must precede the node")
            if node.op == "input" and not 0 <= node.a < self.num_inputs:
                raise TapeError(f"node {idx}: input slot {node.a} out of range")
            if node.op == "affine":
                table[idx] = self._checked_affine(idx)
        if len(table) != len(self.affine):
            raise TapeError("affine table holds a node that is not affine")
        object.__setattr__(self, "affine", table)
        if not 0 <= self.output < len(self.nodes):
            raise TapeError("output index out of range")

    def __eq__(self, other):
        """Field by field, the affine table's arrays by value."""
        if not isinstance(other, Tape):
            return NotImplemented
        same = (self.nodes, self.num_inputs, self.output) == (other.nodes, other.num_inputs, other.output)
        return same and self.affine.keys() == other.affine.keys() and all(
            np.array_equal(u, v) for k in self.affine for u, v in zip(self.affine[k], other.affine[k]))

    def _checked_affine(self, idx: int) -> tuple[np.ndarray, np.ndarray]:
        """Node idx's table entry, validated, as read-only arrays."""
        if idx not in self.affine:
            raise TapeError(f"node {idx}: affine node has no operand table entry")
        args, weights = self.affine[idx]
        args = np.array(args, dtype=np.intp)
        weights = np.array(weights, dtype=float)
        if args.ndim != 1 or not args.size:
            raise TapeError(f"node {idx}: affine needs a nonempty list of operands")
        if not np.all((0 <= args) & (args < idx)):
            raise TapeError(f"node {idx}: operands must precede the node")
        if weights.shape != args.shape:
            raise TapeError(f"node {idx}: affine needs one weight per operand")
        if not np.all(np.isfinite(weights)):
            raise TapeError(f"node {idx}: affine weights must be finite")
        args.flags.writeable = False
        weights.flags.writeable = False
        return args, weights


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
    i = 0  # the next switching slot
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
        elif op == "scale":
            v = node.value * vals[node.a]
        elif op == "affine":
            args, w = tape.affine[idx]
            v = w @ vals[args] + node.value
        elif op == "abs":
            z[i] = vals[node.a]
            v = abs(z[i])
            i += 1
        else:
            try:
                v = _SMOOTH[op][0](vals[node.a])
            except OverflowError:
                raise EvaluationError(idx, f"{op} overflow") from None
        if not math.isfinite(v):
            raise EvaluationError(idx, f"non-finite value in {op}")
        vals[idx] = v
    return EvalRecord(values=vals, z=z, y=float(vals[tape.output]))


def abs_linearize(tape: Tape, xbar, record: EvalRecord | None = None) -> AbsLinearForm:
    """Piecewise-linear model of the tape at ``xbar``.

    Propagates, per node, an affine record in (dx, z, |z|) of length 1+n+2s:
    smooth primitives are replaced by their tangents at the current values
    (``f(a) + f'(a) (rec - a)`` for the unary ones), abs nodes freeze their
    argument's record as one switching row.  Once a node becomes the
    argument of an abs, later uses of it refer to the switching variable
    symbolically, which is what populates M and b.
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

    release = tape.release
    recs: list[np.ndarray | None] = [None] * len(tape.nodes)
    # operand records stacked per affine operand tuple; an abs node
    # rewrites a record, which makes every stack stale
    stacked: dict[bytes, np.ndarray] = {}
    i = 0  # the next switching slot
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
        elif op == "scale":
            r = node.value * recs[node.a]
        elif op == "mul":
            va, vb = vals[node.a], vals[node.b]
            r = vb * recs[node.a] + va * recs[node.b]
            r[0] -= va * vb
        elif op == "affine":
            args, w = tape.affine[idx]
            key = args.tobytes()
            if key not in stacked:
                stacked[key] = np.array([recs[k] for k in args])
            r = w @ stacked[key]
            r[0] += node.value
        elif op == "abs":  # freeze the argument's record as switching row i
            arg = recs[node.a]
            c[i] = arg[0]
            Z[i] = arg[xpart]
            M[i] = arg[1 + n:1 + n + s]
            L[i] = arg[1 + n + s:]
            # later uses of the argument refer to z_i, of this node to |z_i|
            zr = np.zeros(width)
            zr[1 + n + i] = 1.0
            recs[node.a] = zr
            stacked.clear()
            r = np.zeros(width)
            r[1 + n + s + i] = 1.0
            i += 1
        else:  # the tangent f(a) + f'(a) (rec - a), with f(a) this node's value
            va = vals[node.a]
            d = _SMOOTH[op][1](va)
            r = d * recs[node.a]
            r[0] += vals[idx] - d * va
        recs[idx] = r
        for k in release[idx]:
            recs[k] = None

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
        self._affine: dict[int, tuple] = {}  # (operand indices, weights) per affine node
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
        idx = self._push(TapeNode("affine", value=float(const)))
        self._affine[idx] = (args, weights)
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
        return Tape(
            nodes=tuple(self._nodes),
            num_inputs=self.num_inputs,
            output=output.index,
            affine=dict(self._affine),
        )


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
            lines.append(f"{idx} input {node.a}")
        elif node.op == "const":
            lines.append(f"{idx} const {node.value!r}")
        elif node.op == "scale":
            lines.append(f"{idx} scale {node.a} {node.value!r}")
        elif node.op == "affine":
            terms = " ".join(f"{k} {float(w)!r}" for k, w in zip(*tape.affine[idx]))
            lines.append(f"{idx} affine {node.value!r} {terms}")
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
    affine: dict[int, tuple[list[int], list[float]]] = {}
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
        elif op == "affine":
            terms = parts[3:]
            if len(terms) % 2:
                raise TapeError(f"node {idx}: affine needs (operand, weight) pairs")
            nodes.append(TapeNode("affine", value=float(parts[2])))
            affine[idx] = ([int(k) for k in terms[::2]], [float(w) for w in terms[1::2]])
        elif op in _BINARY:
            nodes.append(TapeNode(op, a=int(parts[2]), b=int(parts[3])))
        elif op in _UNARY:
            nodes.append(TapeNode(op, a=int(parts[2])))
        else:
            raise TapeError(f"unknown op {op!r}")
    tape = Tape(nodes=tuple(nodes), num_inputs=n, output=len(nodes) - 1, affine=affine)
    if int(head["s"]) != tape.num_switch:
        raise TapeError("header switch count does not match abs nodes")
    return tape
