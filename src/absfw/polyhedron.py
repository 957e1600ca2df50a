"""Feasible sets as one dense constraint system.

A polyhedron keeps equalities, inequalities, and box bounds separate so the
LP core can treat bounds natively; intersecting with extra constraints just
appends row blocks.  The public constructor of each checked type (this
``Polyhedron``, ``LpProblem``, ``AbsLinearForm`` and ``BenchmarkInstance``)
copies, shape-checks and freezes every array through ``frozen``, then checks
its values; the solver's own objects, made of data it checked, share frozen
arrays through ``cls._trusted`` and are checked nowhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_FEAS_TOL = 1e-9


def frozen(name: str, value, shape: tuple[int, ...]) -> np.ndarray:
    """A read-only float copy of ``value``, the block ``name`` of ``shape``
    or a flat sequence of exactly as many entries (read row by row); any
    other shape raises ValueError naming the block and both shapes."""
    out = np.array(value, dtype=float)
    if out.shape != shape:
        if out.ndim != 1 or out.size != math.prod(shape):
            raise ValueError(f"{name} has shape {out.shape}, not {shape}")
        out = out.reshape(shape)
    out.setflags(write=False)
    return out


def unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` over ``fields``, its arrays
    frozen, without ``__post_init__``'s checks: for data the solver already
    checked or just made.  Each checked type binds it as ``cls._trusted``,
    and only solver code calls that."""
    obj = object.__new__(cls)
    for v in fields.values():
        if isinstance(v, np.ndarray):
            v.setflags(write=False)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class Polyhedron:
    """{x : Aeq x = beq, Ain x <= bin, lo <= x <= hi}; the rows are finite,
    and lo may be -inf and hi +inf."""

    Aeq: np.ndarray
    beq: np.ndarray
    Ain: np.ndarray
    bin: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        me, mi, n = np.size(self.beq), np.size(self.bin), np.size(self.lo)  # rows, columns
        for name, shape in (("Aeq", (me, n)), ("beq", (me,)), ("Ain", (mi, n)),
                            ("bin", (mi,)), ("lo", (n,)), ("hi", (n,))):
            object.__setattr__(self, name, frozen(name, getattr(self, name), shape))
        if not (np.isfinite(self.Aeq).all() and np.isfinite(self.beq).all()
                and np.isfinite(self.Ain).all() and np.isfinite(self.bin).all()):
            raise ValueError("constraint rows must be finite")
        # a NaN fails its comparison too
        if not ((self.lo < np.inf).all() and (self.hi > -np.inf).all()):
            raise ValueError("bounds must not be NaN, lo = +inf or hi = -inf")
        if np.any(self.lo > self.hi):
            raise ValueError("lo must not exceed hi")

    _trusted = classmethod(unchecked)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def is_boxed(self) -> bool:
        return bool(np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi)))


def box(lo, hi) -> Polyhedron:
    return Polyhedron(Aeq=(), beq=(), Ain=(), bin=(), lo=lo, hi=hi)


def cube(n: int, radius: float) -> Polyhedron:
    """Symmetric box |x_i| <= radius."""
    return box(-radius * np.ones(n), radius * np.ones(n))


def contains(P: Polyhedron, x, tol: float = DEFAULT_FEAS_TOL) -> bool:
    x = np.asarray(x, dtype=float)
    if x.shape != (P.dim,):
        raise ValueError("dimension mismatch")
    if P.Aeq.shape[0] and np.max(np.abs(P.Aeq @ x - P.beq)) > tol:
        return False
    if P.Ain.shape[0] and np.max(P.Ain @ x - P.bin) > tol:
        return False
    return bool(np.all(x >= P.lo - tol) and np.all(x <= P.hi + tol))


def intersect(P: Polyhedron, Aeq=(), beq=(), Ain=(), bin=()) -> Polyhedron:
    """P with the rows Aeq x = beq and Ain x <= bin appended below its own;
    no simplification is performed."""
    me, mi, n = np.size(beq), np.size(bin), P.dim
    return Polyhedron(
        Aeq=np.vstack([P.Aeq, frozen("Aeq", Aeq, (me, n))]),
        beq=np.concatenate([P.beq, frozen("beq", beq, (me,))]),
        Ain=np.vstack([P.Ain, frozen("Ain", Ain, (mi, n))]),
        bin=np.concatenate([P.bin, frozen("bin", bin, (mi,))]),
        lo=P.lo, hi=P.hi,
    )
