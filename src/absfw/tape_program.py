"""Tape programs: a tape compiled once into level groups.

``TapeProgram`` is what ``absfw.tape.evaluate`` and
``absfw.tape.abs_linearize`` run; ``Tape.program`` builds it on first use
and keeps it.  The compile step groups the nodes by dependency level and
op, and each group runs as one numpy operation in the arithmetic of one
node at a time: elementwise ops batched, a chain of adds as one sequential
``np.add.accumulate``, the affine nodes sharing an operand tuple as one
stacked product with one dot or vector-matrix product per node, and the
smooth primitives through the same ``math`` functions.  Values and forms
are therefore the bytes a node-by-node loop gives.  The program is the one
reader that derives data from a tape's nodes: it ranks the abs nodes into
switching slots and stacks the affine weights from ``TapeNode.weights``.
"""
from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .plmodel import AbsLinearForm

if TYPE_CHECKING:
    from .tape import Tape

# bytes of linearization records a program keeps live at once
_BUDGET = 1 << 19


def _each(f):
    """``f`` applied to each entry of an array, as math rounds it: numpy's
    own sin, cos and exp may differ in the last bit.  An entry math rejects,
    as an overflow or a non-finite argument, gives NaN."""
    def at(t):
        try:
            return f(t)
        except (OverflowError, ValueError):
            return math.nan
    return lambda a: np.array([at(t) for t in a.tolist()])


# smooth ops taking a single argument: (value, derivative), each mapping an
# array of arguments
SMOOTH = {
    "neg": (np.negative, lambda a: np.full(a.shape, -1.0)),
    "square": (lambda a: a * a, lambda a: 2.0 * a),
    "sin": (_each(math.sin), _each(math.cos)),
    "cos": (_each(math.cos), _each(lambda t: -math.sin(t))),
    "exp": (_each(math.exp), _each(math.exp)),
}


class EvaluationError(Exception):
    """A node's value or linearization record is not finite; ``node`` is the
    first such node in tape order."""

    def __init__(self, node: int, message: str):
        super().__init__(f"node {node}: {message}")
        self.node = node


@dataclass(frozen=True)
class EvalRecord:
    values: np.ndarray  # per-node values
    z: np.ndarray       # switching values, tape order
    y: float


class _Group(NamedTuple):
    """One step of a compiled tape: the nodes of one op at one level."""

    op: str
    out: np.ndarray  # nodes (evaluation) or record rows (linearization) written
    ins: tuple[np.ndarray, ...]  # nodes or rows read, one array per operand
    data: tuple = ()  # the op's constants: factors, slots, weights, value nodes


class TapeProgram:
    """A tape compiled into level groups, for ``evaluate`` and ``abs_linearize``.

    A node's level is one more than its operands' highest; the nodes of one
    op at one level run as one numpy operation, in the same arithmetic as
    one node at a time.  A chain of adds, each the only reader of the one
    before, is one item, and ``np.add.accumulate`` sums its operands in the
    chain's order.

    Linearization reads records where evaluation reads values.
    ``lin_src[j]`` names the record each operand read of node j sees:
    N + i stands for z_i, which every read of an abs argument after the abs
    sees.  Unit records (inputs, constants, |z_i| and z_i) are leaves, so
    no reader waits for an abs node, whose linearization only freezes its
    argument's record.  Linearization runs in segments of tape order, each
    making at most ``_BUDGET`` bytes of records beyond those live at its
    start, unless it is one node.  Every record, a leaf's too, is made once,
    a leaf by the segment of its first reader, and its row is taken again
    once its last reader has read it; per level, the groups that free more
    rows than they take run first.
    """

    def __init__(self, tape: Tape):
        nodes = tape.nodes
        N, n, s = len(nodes), tape.num_inputs, tape.num_switch
        self.n, self.s, self.width = n, s, 1 + n + 2 * s
        self.ops = [node.op for node in nodes]
        self.output = tape.output
        self.base = np.array([node.value if node.op == "const" else 0.0 for node in nodes])
        self.inputs = np.array([j for j, op in enumerate(self.ops) if op == "input"], dtype=np.intp)
        self.slots = np.array([nodes[j].value for j in self.inputs], dtype=np.intp)

        self.slot = {}  # switching slot per abs node: its rank among them
        now = list(range(N))  # the record a read of each node sees
        self.lin_src = []
        for j, node in enumerate(nodes):
            self.lin_src.append(tuple(now[k] for k in node.args))
            if node.op == "abs":
                self.slot[j] = len(self.slot)
                now[node.args[0]] = N + self.slot[j]
        self.out_src = now[tape.output]

        readers = Counter(k for node in nodes for k in node.args)
        readers[tape.output] += 1
        self.link = {}  # chained add -> position of the add before it
        for j, node in enumerate(nodes):
            if node.op == "add":
                pos = next((p for p, k in enumerate(node.args)
                            if nodes[k].op == "add" and readers[k] == 1), None)
                if pos is not None:
                    self.link[j] = pos
        self.chained = set(self.link) | {nodes[j].args[p] for j, p in self.link.items()}

        def key(j):
            op = self.ops[j]
            if op in ("input", "const"):
                return None
            return (op, nodes[j].args) if op == "affine" else (op,)

        args = [node.args for node in nodes]
        self.evaluation = []
        for k, items in self._levels(0, N, args, key):
            op, writes, reads, data = self._step(tape, k, items, args)
            out, ins = np.array(writes, dtype=np.intp), np.array(reads, dtype=np.intp)
            self.evaluation.append(_Group(op, out.T, (ins,), data) if op == "chain" else
                                   _Group(op, out, tuple(ins), data))
        self._plan(tape)

    def _levels(self, lo, hi, src, key):
        """(key, items) per group of the nodes lo..hi-1, lowest level first.

        ``src[j]`` are node j's operands and ``key(j)`` its group key, None
        for a leaf.  Readers do not wait for a freeze, which writes no
        record.  A chain of adds is one item as far as it lies in the range:
        its nodes, and its operands with the sum so far first.  It groups
        with the chains of its length."""
        level: dict[int, int] = {}
        pieces: dict[int, tuple[list, list]] = {}  # chain node last reached -> its piece
        groups: dict[tuple, list] = {}
        for j in range(lo, hi):
            k = key(j)
            if k is None:
                continue
            S = src[j]
            if j in self.chained:
                pos = self.link.get(j, 0)
                piece = pieces.pop(S[pos], None) if j in self.link else None
                if piece is None:  # the chain starts, or goes on from an earlier range
                    piece, lev = ([], [S[pos]]), 1 + level.get(S[pos], 0)
                else:
                    lev = level[S[pos]]
                piece[0].append(j)
                piece[1].append(S[1 - pos])
                level[j] = max(lev, 1 + level.get(S[1 - pos], 0))
                pieces[j] = piece
                continue
            lev = 1 + max((level.get(a, 0) for a in S), default=0)
            if k[0] != "freeze":
                level[j] = lev
            groups.setdefault((lev, *k), []).append(j)
        for j, piece in pieces.items():
            groups.setdefault((level[j], "chain", len(piece[0])), []).append(piece)
        # per level, chains and freezes first: they write at most a row per
        # item, and free their operands' rows for the groups after them
        order = sorted(groups.items(), key=lambda kv: (kv[0][0], kv[0][1] not in ("chain", "freeze")))
        return [(k[1:], items) for k, items in order]

    def _step(self, tape, key, items, src):
        """(op, written, read, data) of one group: the nodes it writes (per
        chain, all its nodes), per operand what it reads, and the op's
        constants."""
        op, nodes = key[0], tape.nodes
        if op == "chain":  # the sums so far, then each position's terms
            return op, [p[0] for p in items], list(zip(*(p[1] for p in items))), ()
        reads = list(zip(*(src[j] for j in items)))
        if op == "affine":  # the shared operands; weights as rows of an (m, 1, k) stack
            reads = [key[1]]
            data = (np.array([nodes[j].weights for j in items])[:, None, :],
                    np.array([nodes[j].value for j in items]))
        elif op == "scale":
            data = (np.array([nodes[j].value for j in items]),)
        elif op in ("abs", "freeze"):
            data = (np.array([self.slot[j] for j in items], dtype=np.intp),)
        elif op == "mul":  # the operands' values
            data = tuple(np.array(col, dtype=np.intp) for col in zip(*(nodes[j].args for j in items)))
        elif op in SMOOTH:  # the argument's and the node's values
            data = (np.array([nodes[j].args[0] for j in items], dtype=np.intp), np.array(items, dtype=np.intp))
        else:
            data = ()
        return op, [] if op == "freeze" else items, reads, data

    def _segments(self, leaf) -> list[tuple[int, int, list]]:
        """Node ranges, each with the leaves first read in it (the output is
        read last), and each making at most ``_BUDGET`` bytes of records
        unless it is one node: a leaf counts at its first reader, a chain of
        adds once.  Records live from earlier ranges are not counted, as no
        cut can free them."""
        N, src = len(self.ops), self.lin_src
        budget = max(1, _BUDGET // (8 * self.width))
        ranges, lo, rows, seen, first = [], 0, 0, set(), []
        for j in range(N):
            reads = src[j] + (self.out_src,) * (j == N - 1)
            new = [k for k in dict.fromkeys(reads) if leaf(k) and k not in seen]
            more = len(new) + (self.ops[j] not in ("input", "const", "abs"))
            chain = j in self.link and src[j][self.link[j]] >= lo  # a chain going on takes its row
            if j > lo and rows + more - chain > budget:
                ranges.append((lo, j, first))
                lo, rows, chain, first = j, 0, False, []
            rows += more - chain
            seen.update(new)
            first += new
        return ranges + [(lo, N, first)]

    def _plan(self, tape):
        """The linearization's groups, each record's row and the output's row.

        A record is keyed by its ``lin_src`` entry, a node or N + i for z_i.
        Each segment starts with a leaf step that makes the leaves first read
        in it.  ``record_keys`` holds, per group, the records it writes and
        those it reads, in the order of its rows."""
        N, n, s, ops = len(self.ops), self.n, self.s, self.ops
        nodes, src = tape.nodes, self.lin_src

        def leaf(k):
            return k >= N or ops[k] in ("input", "const", "abs")

        def key(j):
            op = ops[j]
            if op in ("input", "const"):
                return None
            return {"abs": ("freeze",), "affine": ("affine", src[j])}.get(op, (op,))

        def unit(k):  # the column of a leaf's 1, None for a constant
            if k >= N:
                return 1 + n + k - N
            if ops[k] == "input":
                return 1 + nodes[k].value
            return 1 + n + s + self.slot[k] if ops[k] == "abs" else None

        steps = []  # (op, records written, records read per operand, data)
        for lo, hi, leaves in self._segments(leaf):
            valued = [k for k in leaves if k < N and ops[k] != "abs"]  # inputs and constants
            units = [k for k in leaves if unit(k) is not None]
            steps.append(("leaf", leaves, [], (valued, units, np.array([unit(k) for k in units], dtype=np.intp))))
            for k, items in self._levels(lo, hi, src, key):
                op, writes, reads, data = self._step(tape, k, items, src)
                steps.append((op, [w[-1] for w in writes] if op == "chain" else writes, reads, data))

        last = {k: g for g, (_, _, reads, _) in enumerate(steps) for keys in reads for k in keys}
        last[self.out_src] = len(steps)
        row: dict = {}
        free: list[int] = []
        self.rows = 0

        def rows(keys):
            return np.array([row[k] for k in keys], dtype=np.intp)

        self.linearization, self.record_keys = [], []
        for g, (op, writes, reads, data) in enumerate(steps):
            # a group reads all its operands before it writes a row
            for k in {k for keys in reads for k in keys if last[k] == g}:
                heapq.heappush(free, row[k])
            for k in writes:
                if free:
                    row[k] = heapq.heappop(free)
                else:
                    row[k], self.rows = self.rows, self.rows + 1
            for k in writes:
                if k not in last:  # never read
                    heapq.heappush(free, row[k])
            if op == "leaf":  # the rows that hold a value and those that hold a unit
                valued, units, cols = data
                data = (rows(valued), np.array(valued, dtype=np.intp), rows(units), cols)
            ins = tuple(map(rows, reads))
            self.linearization.append(_Group(op, rows(writes), (np.array(ins),) if op == "chain" else ins, data))
            self.record_keys.append((list(writes), [k for keys in reads for k in keys]))
        self.out_row = row[self.out_src]

    def evaluate(self, x: np.ndarray) -> EvalRecord:
        vals = self.base.copy()
        vals[self.inputs] = x[self.slots]
        z = np.empty(self.s)
        with np.errstate(all="ignore"):  # a non-finite value is reported below
            for op, out, ins, data in self.evaluation:
                if op == "add":
                    vals[out] = vals[ins[0]] + vals[ins[1]]
                elif op == "sub":
                    vals[out] = vals[ins[0]] - vals[ins[1]]
                elif op == "mul":
                    vals[out] = vals[ins[0]] * vals[ins[1]]
                elif op == "scale":
                    vals[out] = data[0] * vals[ins[0]]
                elif op == "affine":
                    vals[out] = np.matmul(data[0], vals[ins[0]][:, None])[:, 0, 0] + data[1]
                elif op == "chain":
                    vals[out] = np.add.accumulate(vals[ins[0]], axis=0)[1:]
                elif op == "abs":
                    z[data[0]] = vals[ins[0]]
                    vals[out] = np.abs(vals[ins[0]])
                else:
                    vals[out] = SMOOTH[op][0](vals[ins[0]])
        finite = np.isfinite(vals)
        if not finite.all():
            j = int(finite.argmin())
            op = self.ops[j]
            # the first such node's operands are finite: if math computes it, it overflowed
            raise EvaluationError(j, f"{op} overflow" if op in ("sin", "cos", "exp")
                                  else f"non-finite value in {op}")
        return EvalRecord(values=vals, z=z, y=float(vals[self.output]))

    def linearize(self, vals: np.ndarray) -> AbsLinearForm:
        n, s = self.n, self.s
        R = np.empty((self.rows, self.width))
        rows = np.zeros((s, self.width))  # switching rows: c, Z, M and L side by side
        with np.errstate(all="ignore"):  # a non-finite record is reported below
            self._run(vals, R, rows, self.linearization)
        out = R[self.out_row].copy()
        del R  # the records go before the form copies its arrays
        if not (np.isfinite(rows).all() and np.isfinite(out).all()):
            raise self._non_finite(vals)
        return AbsLinearForm(
            n=n,
            s=s,
            Z=rows[:, 1:1 + n],
            M=rows[:, 1 + n:1 + n + s],
            L=rows[:, 1 + n + s:],
            a=out[1:1 + n],
            b=out[1 + n:1 + n + s],
            babs=out[1 + n + s:],
            c=rows[:, 0],
            d=float(out[0]),
        )

    def _non_finite(self, vals: np.ndarray) -> EvaluationError:
        """The error for a form that is not finite, from a second run that
        checks the node records each group writes."""
        R, rows, bad = np.empty((self.rows, self.width)), np.zeros((self.s, self.width)), []
        with np.errstate(all="ignore"):
            for group, (writes, _) in zip(self.linearization, self.record_keys):
                self._run(vals, R, rows, [group])
                bad += [k for k, r in zip(writes, R[group.out]) if not np.isfinite(r).all()]
        j = min(bad)
        return EvaluationError(j, f"non-finite linearization of {self.ops[j]}")

    def _run(self, vals: np.ndarray, R: np.ndarray, rows: np.ndarray, groups):
        """Run the linearization ``groups`` on the records R and the switching rows."""
        for op, out, ins, data in groups:
            if op == "leaf":  # an input's or constant's value, or a unit
                valued, nodes_valued, unit, cols = data
                R[out] = 0.0
                R[valued, 0] = vals[nodes_valued]
                R[unit, cols] = 1.0
            elif op == "affine":
                r = np.matmul(data[0], R[ins[0]])[:, 0]
                r[:, 0] += data[1]
                R[out] = r
            elif op == "chain":
                r = R[ins[0]]
                R[out] = np.add.accumulate(r, axis=0, out=r)[-1]
            elif op == "freeze":
                rows[data[0]] = R[ins[0]]
            else:  # in place on a copy of the first operand's records
                r = R[ins[0]]
                if op == "add":
                    r += R[ins[1]]
                elif op == "sub":
                    r -= R[ins[1]]
                elif op == "scale":
                    r *= data[0][:, None]
                elif op == "mul":
                    va, vb = vals[data[0]], vals[data[1]]
                    r *= vb[:, None]
                    r += va[:, None] * R[ins[1]]
                    r[:, 0] -= va * vb
                else:  # the tangent f(a) + f'(a) (rec - a), with f(a) this node's value
                    va = vals[data[0]]
                    d = SMOOTH[op][1](va)
                    r *= d[:, None]
                    r[:, 0] += vals[data[1]] - d * va
                R[out] = r
