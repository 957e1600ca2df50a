"""Seeded generators for random tapes, piecewise-linear forms, and LPs.

Used by the property suites and the test code.  Everything is driven by a
numpy Generator so identical seeds reproduce identical instances.
"""
from __future__ import annotations

import numpy as np

from .plmodel import AbsLinearForm, eval_pl
from .polyhedron import Polyhedron, box
from .tape import Tape, TapeBuilder, abs_linearize, evaluate


def random_tape(rng: np.random.Generator, n: int, n_ops: int = 12, p_abs: float = 0.3) -> Tape:
    """Random abs-smooth tape with curvature (mul/square/sin) and abs kinks.

    Magnitudes stay tame for arguments in the unit box: nonlinear ops are
    applied to damped expressions.
    """
    tb = TapeBuilder(n)
    pool = list(tb.inputs())
    for _ in range(n_ops):
        u = pool[int(rng.integers(len(pool)))]
        v = pool[int(rng.integers(len(pool)))]
        roll = rng.random()
        if roll < p_abs:
            e = tb.abs(u + float(rng.normal(scale=0.5)))
        elif roll < p_abs + 0.2:
            e = tb.square(tb.scale(0.5, u))
        elif roll < p_abs + 0.35:
            e = tb.sin(u)
        elif roll < p_abs + 0.45:
            e = tb.scale(0.25, u) * tb.scale(0.25, v)
        elif roll < p_abs + 0.55:
            e = tb.cos(tb.scale(0.5, u + v))
        elif roll < p_abs + 0.8:
            e = u + tb.scale(float(rng.uniform(-1, 1)), v)
        else:
            e = u - v
        pool.append(e)
    acc = pool[-1]
    for e in pool[n:-1]:
        acc = acc + tb.scale(float(rng.uniform(-0.5, 0.5)), e)
    return tb.build(acc)


def random_smooth_quadratic(rng: np.random.Generator, n: int) -> tuple[Tape, np.ndarray, np.ndarray]:
    """Convex quadratic 0.5 x^T Q x + q^T x as a tape; returns (tape, Q, q)."""
    B = rng.normal(size=(n, n)) / np.sqrt(n)
    Q = B.T @ B + 0.5 * np.eye(n)
    q = rng.normal(size=n)
    tb = TapeBuilder(n)
    xs = tb.inputs()
    expr = tb.const(0.0)
    for i in range(n):
        expr = expr + tb.scale(0.5 * Q[i, i], tb.square(xs[i]))
        expr = expr + tb.scale(q[i], xs[i])
        for j in range(i + 1, n):
            if Q[i, j] != 0.0:
                expr = expr + tb.scale(Q[i, j], xs[i] * xs[j])
    return tb.build(expr), Q, q


def random_pl_form(
    rng: np.random.Generator,
    n: int,
    s: int,
    convex: bool,
) -> AbsLinearForm:
    """Piecewise-linear form with ~s kinks, convex by construction on request.

    Convex instances are sums of nonnegative multiples of max-affine terms
    plus an affine part; nonconvex ones mix in negated kink terms.
    """
    tb = TapeBuilder(n)
    xs = tb.inputs()

    def affine():
        coeffs = rng.normal(size=n)
        e = tb.const(float(rng.normal()))
        for k in range(n):
            e = e + tb.scale(float(coeffs[k]), xs[k])
        return e

    terms = []
    made = 0
    while made < s:
        kind = rng.random()
        if kind < 0.5 or made + 2 > s:
            terms.append(tb.abs(affine()))
            made += 1
        else:
            depth = min(int(rng.integers(2, 4)), s - made)
            terms.append(tb.max_list([affine() for _ in range(depth + 1)]))
            made += depth
    expr = affine()
    for t in terms:
        w = float(rng.uniform(0.3, 1.5))
        if not convex and rng.random() < 0.5:
            w = -w
        expr = expr + tb.scale(w, t)
    tape = tb.build(expr)
    xbar = np.zeros(n)
    form = abs_linearize(tape, xbar)
    assert form.s == s
    # sanity: the tape is piecewise linear, so the model reproduces it
    probe = rng.uniform(-1, 1, size=n)
    y = evaluate(tape, probe).y
    assert abs(y - eval_pl(form, probe)[0]) < 1e-8 * (1 + abs(y))
    return form


def midpoint_convex(form: AbsLinearForm, lo, hi, rng: np.random.Generator,
                    samples: int = 120, tol: float = 1e-10) -> bool:
    """Midpoint-convexity sampling of the model over a box."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    for _ in range(samples):
        u = rng.uniform(lo, hi)
        w = rng.uniform(lo, hi)
        fu = eval_pl(form, u)[0]
        fw = eval_pl(form, w)[0]
        fm = eval_pl(form, 0.5 * (u + w))[0]
        if fm > 0.5 * (fu + fw) + tol * (1 + abs(fu) + abs(fw)):
            return False
    return True


def random_lp(rng: np.random.Generator, n: int, m_eq: int, m_in: int) -> tuple[np.ndarray, Polyhedron, np.ndarray]:
    """Feasible bounded LP: returns (c, P, x_feas) with x_feas interior-ish."""
    lo = rng.uniform(-4, -1, size=n)
    hi = rng.uniform(1, 4, size=n)
    x0 = rng.uniform(lo + 0.2, hi - 0.2)
    Aeq = rng.normal(size=(m_eq, n))
    beq = Aeq @ x0
    Ain = rng.normal(size=(m_in, n))
    bin_ = Ain @ x0 + rng.uniform(0.1, 2.0, size=m_in)
    c = rng.normal(size=n)
    P = Polyhedron(Aeq=Aeq, beq=beq, Ain=Ain, bin=bin_, lo=lo, hi=hi)
    return c, P, x0


def random_box_lp(rng: np.random.Generator, n: int) -> tuple[np.ndarray, Polyhedron]:
    c = rng.normal(size=n)
    c[np.abs(c) < 1e-3] = 1e-3  # no near-zero coefficients, unique vertex optimum
    return c, box(-5 * np.ones(n), 5 * np.ones(n))
