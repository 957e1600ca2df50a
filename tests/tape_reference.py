"""The per-node tape interpreter, kept as the reference for the compiled
tape program.

``evaluate`` and ``abs_linearize`` below are the node-by-node loops that
``absfw.tape`` ran before it compiled each tape into level groups; they are
kept unchanged, so a test can compare the program's records and forms with
them byte for byte.  ``release_plan`` is the plan of which records the loop may
drop after each node, which ``Tape.release`` used to cache.
"""
from __future__ import annotations

import math

import numpy as np

from absfw.plmodel import AbsLinearForm
from absfw.tape import EvalRecord, EvaluationError, Tape

# smooth ops taking a single argument: (value, derivative)
_SMOOTH = {
    "neg": (lambda a: -a, lambda a: -1.0),
    "square": (lambda a: a * a, lambda a: 2.0 * a),
    "sin": (math.sin, math.cos),
    "cos": (math.cos, lambda a: -math.sin(a)),
    "exp": (math.exp, math.exp),
}


def release_plan(tape: Tape) -> tuple[tuple[int, ...], ...]:
    """Per node, the operands no later node reads (never the output)."""
    last: dict[int, int] = {}
    for idx, node in enumerate(tape.nodes):
        last.update(dict.fromkeys(node.args, idx))
    last.pop(tape.output, None)
    plan: list[list[int]] = [[] for _ in tape.nodes]
    for k, idx in last.items():
        plan[idx].append(k)
    return tuple(map(tuple, plan))


def evaluate(tape: Tape, x) -> EvalRecord:
    """Run the tape at ``x``; abs-node values are |z_i| for switching value z_i."""
    x = np.asarray(x, dtype=float)
    if x.shape != (tape.num_inputs,):
        raise ValueError(f"expected input of length {tape.num_inputs}, got {x.shape}")
    vals = np.empty(len(tape.nodes))
    z = np.empty(tape.num_switch)
    i = 0  # the next switching slot
    for idx, node in enumerate(tape.nodes):
        op, args = node.op, node.args
        if op == "input":
            v = x[node.value]
        elif op == "const":
            v = node.value
        elif op == "add":
            v = vals[args[0]] + vals[args[1]]
        elif op == "sub":
            v = vals[args[0]] - vals[args[1]]
        elif op == "mul":
            v = vals[args[0]] * vals[args[1]]
        elif op == "scale":
            v = node.value * vals[args[0]]
        elif op == "affine":
            v = np.array(node.weights) @ vals[list(args)] + node.value
        elif op == "abs":
            z[i] = vals[args[0]]
            v = abs(z[i])
            i += 1
        else:
            try:
                v = _SMOOTH[op][0](vals[args[0]])
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

    release = release_plan(tape)
    recs: list[np.ndarray | None] = [None] * len(tape.nodes)
    # operand records stacked per affine operand tuple; an abs node
    # rewrites a record, which makes every stack stale
    stacked: dict[tuple[int, ...], np.ndarray] = {}
    i = 0  # the next switching slot
    for idx, node in enumerate(tape.nodes):
        op, args = node.op, node.args
        if op == "input":
            r = np.zeros(width)
            r[0] = vals[idx]
            r[1 + node.value] = 1.0
        elif op == "const":
            r = np.zeros(width)
            r[0] = node.value
        elif op == "add":
            r = recs[args[0]] + recs[args[1]]
        elif op == "sub":
            r = recs[args[0]] - recs[args[1]]
        elif op == "scale":
            r = node.value * recs[args[0]]
        elif op == "mul":
            va, vb = vals[args[0]], vals[args[1]]
            r = vb * recs[args[0]] + va * recs[args[1]]
            r[0] -= va * vb
        elif op == "affine":
            if args not in stacked:
                stacked[args] = np.array([recs[k] for k in args])
            r = np.array(node.weights) @ stacked[args]
            r[0] += node.value
        elif op == "abs":  # freeze the argument's record as switching row i
            arg = recs[args[0]]
            c[i] = arg[0]
            Z[i] = arg[xpart]
            M[i] = arg[1 + n:1 + n + s]
            L[i] = arg[1 + n + s:]
            # later uses of the argument refer to z_i, of this node to |z_i|
            zr = np.zeros(width)
            zr[1 + n + i] = 1.0
            recs[args[0]] = zr
            stacked.clear()
            r = np.zeros(width)
            r[1 + n + s + i] = 1.0
            i += 1
        else:  # the tangent f(a) + f'(a) (rec - a), with f(a) this node's value
            va = vals[args[0]]
            d = _SMOOTH[op][1](va)
            r = d * recs[args[0]]
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
