"""Feasible sets as one dense constraint system.

A polyhedron keeps equalities, inequalities, and box bounds separate so the
LP core can treat bounds natively; intersecting with extra constraints just
appends row blocks.  ``Polyhedron(...)`` checks everything it is given; the
solver's own polyhedra, made of rows it checked when it computed them, come
from ``Polyhedron._trusted`` and are checked nowhere.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_FEAS_TOL = 1e-9


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
        n = len(self.lo)
        object.__setattr__(self, "Aeq", np.asarray(self.Aeq, dtype=float).reshape(-1, n))
        object.__setattr__(self, "beq", np.asarray(self.beq, dtype=float).ravel())
        object.__setattr__(self, "Ain", np.asarray(self.Ain, dtype=float).reshape(-1, n))
        object.__setattr__(self, "bin", np.asarray(self.bin, dtype=float).ravel())
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float).ravel())
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float).ravel())
        if self.Aeq.shape[0] != self.beq.shape[0] or self.Ain.shape[0] != self.bin.shape[0]:
            raise ValueError("row dimensions inconsistent")
        if not (np.isfinite(self.Aeq).all() and np.isfinite(self.beq).all()
                and np.isfinite(self.Ain).all() and np.isfinite(self.bin).all()):
            raise ValueError("constraint rows must be finite")
        # a NaN fails its comparison too
        if not ((self.lo < np.inf).all() and (self.hi > -np.inf).all()):
            raise ValueError("bounds must not be NaN, lo = +inf or hi = -inf")
        if np.any(self.lo > self.hi):
            raise ValueError("lo must not exceed hi")
        for arr in ("Aeq", "beq", "Ain", "bin", "lo", "hi"):
            getattr(self, arr).setflags(write=False)

    _trusted = classmethod(unchecked)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def is_boxed(self) -> bool:
        return bool(np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi)))


def box(lo, hi) -> Polyhedron:
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = len(lo)
    return Polyhedron(
        Aeq=np.zeros((0, n)), beq=np.zeros(0),
        Ain=np.zeros((0, n)), bin=np.zeros(0),
        lo=lo, hi=hi,
    )


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
    return Polyhedron(
        Aeq=np.vstack([P.Aeq, np.reshape(Aeq, (-1, P.dim))]), beq=np.concatenate([P.beq, beq]),
        Ain=np.vstack([P.Ain, np.reshape(Ain, (-1, P.dim))]), bin=np.concatenate([P.bin, bin]),
        lo=P.lo, hi=P.hi,
    )
