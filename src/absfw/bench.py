"""Standard nonsmooth benchmark problems as tapes plus feasible sets.

Max terms are written with the abs identity max(u,v) = (u+v+|u-v|)/2, nested
as a balanced tree so intermediate magnitudes stay comparable.  Random data
(the regression instances) comes from the counter-based generator in
:mod:`absfw.rng` and is reproducible bit-for-bit from the seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .polyhedron import Polyhedron, box, contains, cube, intersect
from .rng import CounterRng, GENERATOR_NAME
from .tape import Tape, TapeBuilder


@dataclass(frozen=True)
class BenchmarkInstance:
    name: str
    tape: Tape
    C: Polyhedron
    x0: np.ndarray
    known_optimum: tuple[np.ndarray | None, float] | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tape.num_inputs != self.C.dim:
            raise ValueError("tape dimension does not match feasible set")
        if not contains(self.C, self.x0):
            raise ValueError("x0 must be feasible")


def maxq(n: int, feasible_set: str = "C1") -> BenchmarkInstance:
    """max_i x_i^2 with one of the three boxes C1 (inactive at 0),
    C2 (active exactly at 0), C3 (optimum pushed to +-1)."""
    if n < 2:
        raise ValueError("maxq needs n >= 2")
    tb = TapeBuilder(n)
    xs = tb.inputs()
    tape = tb.build(tb.max_list([tb.square(x) for x in xs]))

    h = n // 2
    i1 = np.arange(1, n + 1, dtype=float)
    first = i1 <= h
    if feasible_set == "C1":
        lo = np.where(first, -5.0, -2.0 * i1 + 2.0)
        hi = np.where(first, 2.0 * i1 - 2.0, 5.0)
        opt = (np.zeros(n), 0.0)
    elif feasible_set == "C2":
        lo = np.where(first, 0.0, -2.0 * i1 + 2.0)
        hi = np.where(first, 2.0 * i1 - 2.0, 0.0)
        opt = (np.zeros(n), 0.0)
    elif feasible_set == "C3":
        lo = np.where(first, 1.0, -2.0 * i1 + 1.0)
        hi = np.where(first, 2.0 * i1 - 1.0, -1.0)
        opt = (np.where(first, 1.0, -1.0), 1.0)
    else:
        raise ValueError("feasible_set must be one of C1, C2, C3")
    C = box(lo, hi)
    # the standard start (i, ..., -i, ...) leaves the first coordinate outside
    # C1/C2; project componentwise onto the box
    x0 = np.clip(np.where(first, i1, -i1), C.lo, C.hi)
    return BenchmarkInstance(
        name=f"maxq_{feasible_set}", tape=tape, C=C, x0=x0, known_optimum=opt,
        metadata={"name": "maxq", "n": n, "feasible_set": feasible_set},
    )


def chained_lq(n: int) -> BenchmarkInstance:
    """sum_i max(-x_i - x_{i+1}, same + x_i^2 + x_{i+1}^2 - 1), box +-5.

    Written as u + (q + |q|)/2 with q = x_i^2 + x_{i+1}^2 - 1, so the i-th
    switching variable is exactly q_i."""
    if n < 2:
        raise ValueError("chained_lq needs n >= 2")
    tb = TapeBuilder(n)
    xs = tb.inputs()
    expr = tb.const(0.0)
    for i in range(n - 1):
        u = -xs[i] - xs[i + 1]
        q = tb.square(xs[i]) + tb.square(xs[i + 1]) - 1.0
        expr = expr + u + tb.scale(0.5, q + tb.abs(q))
    tape = tb.build(expr)
    fstar = -(n - 1) * math.sqrt(2.0)
    xstar = np.full(n, 1.0 / math.sqrt(2.0))
    return BenchmarkInstance(
        name="chained_lq", tape=tape, C=cube(n, 5.0),
        x0=np.full(n, -0.5), known_optimum=(xstar, fstar),
        metadata={"name": "chained_lq", "n": n},
    )


def rosenbrock_nesterov1(n: int) -> BenchmarkInstance:
    """0.25 (x_1 - 1)^2 + sum |x_{i+1} - 2 x_i^2 + 1|, box +-5, optimum 0."""
    if n < 2:
        raise ValueError("rosenbrock_nesterov1 needs n >= 2")
    tb = TapeBuilder(n)
    xs = tb.inputs()
    expr = tb.scale(0.25, tb.square(xs[0] - 1.0))
    for i in range(n - 1):
        expr = expr + tb.abs(xs[i + 1] - 2.0 * tb.square(xs[i]) + 1.0)
    x0 = np.array([-0.5 if (i + 1) % 2 == 1 else 0.5 for i in range(n)])
    return BenchmarkInstance(
        name="rosenbrock_nesterov1", tape=tb.build(expr), C=cube(n, 5.0), x0=x0,
        known_optimum=(np.ones(n), 0.0),
        metadata={"name": "rosenbrock_nesterov1", "n": n},
    )


def rosenbrock_nesterov2(n: int) -> BenchmarkInstance:
    """0.25 |x_1 - 1| + sum |x_{i+1} - 2|x_i| + 1|, box +-20; piecewise
    linear, unique global minimizer at all-ones with 2^(n-1) - 1 further
    stationary points."""
    if n < 1:
        raise ValueError("rosenbrock_nesterov2 needs n >= 1")
    tb = TapeBuilder(n)
    xs = tb.inputs()
    expr = tb.scale(0.25, tb.abs(xs[0] - 1.0))
    for i in range(n - 1):
        expr = expr + tb.abs(xs[i + 1] - 2.0 * tb.abs(xs[i]) + 1.0)
    x0 = np.array([-1.0] + [1.0] * (n - 1))
    return BenchmarkInstance(
        name="rosenbrock_nesterov2", tape=tb.build(expr), C=cube(n, 20.0), x0=x0,
        known_optimum=(np.ones(n), 0.0),
        metadata={"name": "rosenbrock_nesterov2", "n": n},
    )


def chained_crescent1(n: int) -> BenchmarkInstance:
    """max(f1, f2) of the two crescent sums, box +-5, optimum 0 at the origin."""
    if n < 2:
        raise ValueError("chained_crescent1 needs n >= 2")
    tb = TapeBuilder(n)
    xs = tb.inputs()
    f1 = tb.const(0.0)
    f2 = tb.const(0.0)
    for i in range(n - 1):
        sq_i = tb.square(xs[i])
        sq_n = tb.square(xs[i + 1] - 1.0)
        f1 = f1 + sq_i + sq_n + xs[i + 1] - 1.0
        f2 = f2 - sq_i - sq_n + xs[i + 1] + 1.0
    tape = tb.build(tb.max_(f1, f2))
    x0 = np.array([-1.5 if (i + 1) % 2 == 1 else 2.0 for i in range(n)])
    return BenchmarkInstance(
        name="chained_crescent1", tape=tape, C=cube(n, 5.0), x0=x0,
        known_optimum=(np.zeros(n), 0.0),
        metadata={"name": "chained_crescent1", "n": n},
    )


def mifflin2() -> BenchmarkInstance:
    """-x_1 + 2(x_1^2 + x_2^2 - 1) + 1.75 |x_1^2 + x_2^2 - 1|, optimum -1."""
    tb = TapeBuilder(2)
    x1, x2 = tb.inputs()
    q = tb.square(x1) + tb.square(x2) - 1.0
    w = tb.abs(q)
    tape = tb.build(-x1 + 2.0 * q + 1.75 * w)
    return BenchmarkInstance(
        name="mifflin2", tape=tape, C=cube(2, 5.0),
        x0=np.array([-1.0, 1.0]), known_optimum=(np.array([1.0, 0.0]), -1.0),
        metadata={"name": "mifflin2", "n": 2},
    )


def constrained_lasso(
    n: int,
    p: int,
    rho: float = 1.0,
    seed: int = 0,
    variant: str = "box",
) -> BenchmarkInstance:
    """0.5 ||A x - y||^2 + rho ||x||_1 with seeded standard-normal data.

    Each residual A_k x - y_k is one ``affine`` tape node, so the tape has
    3n + 4p + 3 nodes at rho > 0, not the 2np of a scale and an add per A_kj.

    ``box``: plain +-5 bounds, standard-normal start.  ``ordered``: the
    monotone chain -5 <= x_1 <= ... <= x_n <= 5 with the evenly spread start.
    """
    if n < 1 or p < 1:
        raise ValueError("n and p must be positive")
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    gen = CounterRng(seed)
    A = gen.normals(p * n).reshape(p, n)
    y = gen.normals(p)

    tb = TapeBuilder(n)
    xs = tb.inputs()
    total = tb.const(0.0)
    for k in range(p):
        r = tb.affine(A[k], xs, -float(y[k]))
        total = total + tb.scale(0.5, tb.square(r))
    if rho > 0:
        penalty = tb.const(0.0)
        for j in range(n):
            penalty = penalty + tb.abs(xs[j])
        total = total + tb.scale(rho, penalty)
    tape = tb.build(total)

    C = cube(n, 5.0)
    if variant == "box":
        x0 = np.clip(gen.normals(n), C.lo, C.hi)
    elif variant == "ordered":
        chain = np.eye(n - 1, n) - np.eye(n - 1, n, 1)  # x_i <= x_{i+1}
        C = intersect(C, Ain=chain, bin=np.zeros(n - 1))
        x0 = -1.0 + 2.0 * np.arange(n) / (n - 1) if n > 1 else np.zeros(1)
    else:
        raise ValueError("variant must be 'box' or 'ordered'")
    meta = {
        "name": "lasso", "n": n, "p": p, "rho": rho, "seed": seed,
        "variant": variant, "generator": GENERATOR_NAME,
    }
    return BenchmarkInstance(
        name=f"lasso_{variant}", tape=tape, C=C, x0=x0, metadata=meta,
    )


def lasso_design(n: int, p: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The (A, y) data that constrained_lasso builds for this seed."""
    gen = CounterRng(seed)
    return gen.normals(p * n).reshape(p, n), gen.normals(p)


def chained_mifflin2(n: int) -> BenchmarkInstance:
    """Chained variant of mifflin2; not acceptance-gated."""
    if n < 2:
        raise ValueError("chained_mifflin2 needs n >= 2")
    tb = TapeBuilder(n)
    xs = tb.inputs()
    expr = tb.const(0.0)
    for i in range(n - 1):
        q = tb.square(xs[i]) + tb.square(xs[i + 1]) - 1.0
        expr = expr + (-xs[i]) + 2.0 * q + 1.75 * tb.abs(q)
    return BenchmarkInstance(
        name="chained_mifflin2", tape=tb.build(expr), C=cube(n, 5.0), x0=np.full(n, -1.0),
        metadata={"name": "chained_mifflin2", "n": n},
    )


def chained_crescent2(n: int) -> BenchmarkInstance:
    """Termwise max of the two crescent expressions; not acceptance-gated."""
    if n < 2:
        raise ValueError("chained_crescent2 needs n >= 2")
    tb = TapeBuilder(n)
    xs = tb.inputs()
    expr = tb.const(0.0)
    for i in range(n - 1):
        sq_i = tb.square(xs[i])
        sq_n = tb.square(xs[i + 1] - 1.0)
        t1 = sq_i + sq_n + xs[i + 1] - 1.0
        t2 = -sq_i - sq_n + xs[i + 1] + 1.0
        expr = expr + tb.max_(t1, t2)
    x0 = np.array([-1.5 if (i + 1) % 2 == 1 else 2.0 for i in range(n)])
    return BenchmarkInstance(
        name="chained_crescent2", tape=tb.build(expr), C=cube(n, 5.0), x0=x0,
        metadata={"name": "chained_crescent2", "n": n},
    )


PROBLEMS = {
    "maxq": maxq,
    "chained_lq": chained_lq,
    "rosenbrock_nesterov1": rosenbrock_nesterov1,
    "rosenbrock_nesterov2": rosenbrock_nesterov2,
    "chained_crescent1": chained_crescent1,
    "mifflin2": mifflin2,
    "lasso": constrained_lasso,
    "chained_mifflin2": chained_mifflin2,
    "chained_crescent2": chained_crescent2,
}
