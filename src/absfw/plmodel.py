"""Piecewise-linear models in abs-linear form.

The data (Z, M, L, a, b, babs, c, d) with M, L strictly lower triangular
(switching variables numbered in evaluation order, which ``AbsLinearForm``
checks) represents the function

    z_i(dx) = c_i + Z_i dx + sum_{j<i} (M_ij z_j + L_ij |z_j|)
    value(dx) = d + a^T dx + b^T z + babs^T |z|

``babs`` carries the coefficients of |z| in the value row.  It can always be
eliminated by routing |z|-terms through one extra switching variable, so the
classical form with a plain b^T z value row is the special case babs = 0; we
keep it explicit so the switch count always equals the number of abs nodes of
the originating tape.

All values are plain numpy arrays, frozen read-only after construction; every
operation here is pure.  A signature domain's closure is described by the
row blocks of ``signature_constraints``, which ``polyhedron.intersect``
appends to a feasible set.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _frozen(arr, shape) -> np.ndarray:
    out = np.array(arr, dtype=float).reshape(shape)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class AbsLinearForm:
    n: int
    s: int
    Z: np.ndarray      # s x n
    M: np.ndarray      # s x s, strictly lower triangular
    L: np.ndarray      # s x s, strictly lower triangular
    a: np.ndarray      # n
    b: np.ndarray      # s, value-row coefficients on z
    babs: np.ndarray   # s, value-row coefficients on |z|
    c: np.ndarray      # s
    d: float

    def __post_init__(self):
        s, n = self.s, self.n
        object.__setattr__(self, "Z", _frozen(self.Z, (s, n)))
        object.__setattr__(self, "M", _frozen(self.M, (s, s)))
        object.__setattr__(self, "L", _frozen(self.L, (s, s)))
        object.__setattr__(self, "a", _frozen(self.a, (n,)))
        object.__setattr__(self, "b", _frozen(self.b, (s,)))
        object.__setattr__(self, "babs", _frozen(self.babs, (s,)))
        object.__setattr__(self, "c", _frozen(self.c, (s,)))
        object.__setattr__(self, "d", float(self.d))
        upper = ~np.tri(s, k=-1, dtype=bool)  # on and above the diagonal
        if self.M[upper].any() or self.L[upper].any():
            raise ValueError("M and L must be strictly lower triangular")
        data = (self.Z, self.M, self.L, self.a, self.b, self.babs, self.c, [self.d])
        if not np.isfinite(np.concatenate([np.ravel(v) for v in data])).all():
            raise ValueError("form data must be finite")

    @cached_property
    def chain(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        """(i, M[i, :i], L[i, :i]) per row with an M or L entry, the rows
        ``eval_pl`` substitutes; cached in ``__dict__`` like ``Tape.program``."""
        rows = np.flatnonzero(self.M.any(axis=1) | self.L.any(axis=1)).tolist()
        return tuple((i, self.M[i, :i], self.L[i, :i]) for i in rows)


@dataclass(frozen=True)
class AffineRestriction:
    """z(dx) = R dx + r and value(dx) = g^T dx + h on one signature domain."""

    R: np.ndarray
    r: np.ndarray
    g: np.ndarray
    h: float


DEFAULT_SIGNATURE_TOL = 1e-10


def eval_pl(form: AbsLinearForm, dx) -> tuple[float, np.ndarray]:
    """Evaluate the model by forward substitution; returns (value, z).

    Only rows with an M or L entry are substituted: any other row would add
    exact zeros to c_i + Z_i dx, which can change at most the sign of a zero.
    """
    dx = np.asarray(dx, dtype=float)
    z = form.c + form.Z @ dx
    az = np.abs(z)
    for i, m, l in form.chain:
        z[i] = z[i] + m @ z[:i] + l @ az[:i]
        az[i] = abs(z[i])
    value = form.d + form.a @ dx + form.b @ z + form.babs @ az
    return float(value), z


def delta_eval(form: AbsLinearForm, fbar: float, dx) -> float:
    """Model increment relative to the development value: value(dx) - fbar."""
    return eval_pl(form, dx)[0] - fbar


def switch_signs(form: AbsLinearForm, dx, z) -> np.ndarray:
    """Signs of the switching values z at dx.  z_i is at its kink, and gets
    0, when it is within DEFAULT_SIGNATURE_TOL of zero relative to the terms
    that form it, |c_i| + |Z_i| (1 + |dx|) + (|M_i| + |L_i|) |z|: changing
    c_i, dx (at unit scale) and z_{<i} by that fraction could zero it.  A
    value that is small only because all its terms are, as near a smooth
    minimum, keeps its sign."""
    az = np.abs(z)
    terms = (np.abs(form.c) + np.abs(form.Z) @ (1.0 + np.abs(dx))
             + (np.abs(form.M) + np.abs(form.L)) @ az)
    sig = np.sign(z).astype(int)
    sig[az <= DEFAULT_SIGNATURE_TOL * terms] = 0
    return sig


def signature(form: AbsLinearForm, dx) -> np.ndarray:
    """Sign vector of z(dx), kinks (see ``switch_signs``) as 0."""
    return switch_signs(form, dx, eval_pl(form, dx)[1])


def restrict(form: AbsLinearForm, sigma) -> AffineRestriction:
    """Affine piece of the model on the closure of the domain of ``sigma``.

    Solves the unit lower triangular system (I - M - L diag(sigma)) z = c + Z dx.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (form.s,):
        raise ValueError("sigma has wrong length")
    T = np.eye(form.s) - form.M - form.L * sigma[np.newaxis, :]
    R = np.empty((form.s, form.n))
    r = np.empty(form.s)
    for i in range(form.s):
        R[i] = form.Z[i] - T[i, :i] @ R[:i]
        r[i] = form.c[i] - T[i, :i] @ r[:i]
    bs = form.b + sigma * form.babs  # value-row coefficients on z
    g = form.a + R.T @ bs
    h = form.d + bs @ r
    return AffineRestriction(R=R, r=r, g=g, h=float(h))


def signature_constraints(res: AffineRestriction, sigma) -> tuple[np.ndarray, ...]:
    """Linear description (Aeq, beq, Ain, bin) of the closed domain of
    ``sigma`` in dx, given ``res = restrict(form, sigma)``.

    sigma_i = 0 pins the kink, R_i dx + r_i = 0, as an Aeq row; sigma_i =
    +1/-1 keeps sigma_i (R_i dx + r_i) >= 0, the Ain row -sigma_i R_i dx <=
    sigma_i r_i.  Rows keep the order of i within each block.
    """
    sigma = np.asarray(sigma, dtype=int)
    pin = sigma == 0
    sign = sigma[~pin, np.newaxis]
    return res.R[pin], -res.r[pin], -sign * res.R[~pin], sign[:, 0] * res.r[~pin]


def affine_substitute(form: AbsLinearForm, scale: float, shift) -> AbsLinearForm:
    """Change of variables dx = scale*v + shift; the result is a form in v."""
    if scale == 0:
        raise ValueError("scale must be nonzero")
    shift = np.asarray(shift, dtype=float)
    return AbsLinearForm(
        n=form.n,
        s=form.s,
        Z=scale * form.Z,
        M=form.M,
        L=form.L,
        a=scale * form.a,
        b=form.b,
        babs=form.babs,
        c=form.c + form.Z @ shift,
        d=form.d + form.a @ shift,
    )


_FORM_BLOCKS = ("Z", "M", "L", "a", "b", "babs", "c", "d")


def form_to_text(form: AbsLinearForm) -> str:
    """Dense text dump: header ``n s``, then one labeled row-major line per
    block Z, M, L, a, b, babs, c, d.  repr round-trips floats bit-exactly."""
    lines = [f"{form.n} {form.s}"]
    for name in _FORM_BLOCKS:
        flat = np.atleast_1d(getattr(form, name)).ravel()
        lines.append(" ".join([name] + [repr(float(v)) for v in flat]))
    return "\n".join(lines) + "\n"


def form_from_text(text: str) -> AbsLinearForm:
    """Inverse of ``form_to_text``; malformed text raises ``ValueError``
    naming the offending line or the missing blocks."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    try:
        n, s = (int(v) for v in lines[0].split())
    except (IndexError, ValueError):
        raise ValueError(f"bad header line {lines[0] if lines else ''!r}") from None
    sizes = dict(zip(_FORM_BLOCKS, (s * n, s * s, s * s, n, s, s, s, 1)))
    data = {}
    for ln in lines[1:]:
        name, *values = ln.split()
        if len(values) != sizes.get(name):
            raise ValueError(f"bad block line {ln!r}: unknown block or wrong length")
        if name in data:
            raise ValueError(f"bad block line {ln!r}: block given twice")
        try:
            data[name] = [float(v) for v in values]
        except ValueError:
            raise ValueError(f"bad block line {ln!r}: not a number") from None
    missing = [name for name in _FORM_BLOCKS if name not in data]
    if missing:
        raise ValueError(f"missing blocks {' '.join(missing)}")
    d = data.pop("d")[0]
    return AbsLinearForm(n=n, s=s, d=d, **data)
