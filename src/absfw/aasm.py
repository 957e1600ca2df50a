"""Minimize a piecewise-linear form over a compact polyhedron by successive
LP solves on signature-domain closures.

Each closure intersected with the feasible set is solved as one LP in lifted
variables (v, z): the switching recursion becomes s equality rows, the sign
pattern becomes variable bounds on z, and the objective is affine once
|z_i| = sigma_i z_i is substituted.  A sign flip therefore only touches one
z column and its bounds, so neighbor probes warm-start from the parent basis.

Local optimality at the per-polyhedron optimum is certified by probing every
single flip of an active kink (both signs for pinned kinks): if no probe LP
strictly decreases the objective, the point is declared a local minimizer.
A flip whose column z_i is nonbasic in the parent's basis is first priced
from the parent LP's duals: if z_i's new reduced cost cannot let it enter,
the parent basis stays optimal and the flip is certified without an LP.
Probes double as the step to the next polyhedron, which makes descent of the
accepted chain unconditional.  A visited-signature set guards against
tolerance-induced cycling; monotone decrease makes genuine revisits
impossible in exact arithmetic.

``brute_force_pl_min`` is the test oracle: it enumerates all 2^s closed
signature domains through the affine-restriction route, which shares no code
path with the lifted solver.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import lp as lpmod
from .lp import LpBasis, LpProblem, LpStatus
from .plmodel import (
    AbsLinearForm,
    eval_pl,
    restrict,
    signature,
    signature_constraints,
)
from .polyhedron import Polyhedron, contains, intersect

FLIP_MOST_NEGATIVE_DUAL = "most_negative_dual"
FLIP_LOWEST_INDEX = "lowest_index"


class AasmError(Exception):
    """Violated precondition or impossible LP outcome inside the solver."""


class AasmStatus(Enum):
    LOCAL_MIN = "local_min"
    INNER_LIMIT = "inner_limit"
    POLYHEDRA_EXHAUSTED = "polyhedra_exhausted"


@dataclass(frozen=True)
class AasmOptions:
    max_polyhedra: int | None = None  # defaults to 2^min(s, 20)
    tol_z: float = 1e-10
    tol_lp: float = 1e-9
    flip_rule: str = FLIP_MOST_NEGATIVE_DUAL
    partial_inner_limit: int | None = None

    def resolved_max(self, s: int) -> int:
        if self.max_polyhedra is not None:
            if self.max_polyhedra < 1:
                raise ValueError("max_polyhedra must be at least 1")
            return self.max_polyhedra
        return 2 ** min(s, 20)


@dataclass(frozen=True)
class AasmResult:
    v_star: np.ndarray
    psi_star: float
    status: AasmStatus
    polyhedra_visited: int
    lp_calls: int
    visited_signatures: list = field(default_factory=list)


class _Lifted:
    """Assembles per-signature LPs in (v, z) space with shared base blocks."""

    def __init__(self, form: AbsLinearForm, C: Polyhedron, tol_lp: float):
        self.form = form
        self.C = C
        self.tol_lp = tol_lp
        n, s = form.n, form.s
        self.top_base = np.hstack([-form.Z, np.eye(s) - form.M])
        me, mi = C.Aeq.shape[0], C.Ain.shape[0]
        self.Aeq_C = np.hstack([C.Aeq, np.zeros((me, s))])
        self.Ain_C = np.hstack([C.Ain, np.zeros((mi, s))])
        self.calls = 0

    def solve(self, sigma: np.ndarray, hint: LpBasis | None):
        form, C = self.form, self.C
        n, s = form.n, form.s
        top = self.top_base.copy()
        top[:, n:] -= form.L * sigma[np.newaxis, :]
        z_lo = np.where(sigma < 0, -np.inf, 0.0)
        z_hi = np.where(sigma > 0, np.inf, 0.0)
        P = Polyhedron(
            Aeq=np.vstack([top, self.Aeq_C]),
            beq=np.concatenate([form.c, C.beq]),
            Ain=self.Ain_C,
            bin=C.bin,
            lo=np.concatenate([C.lo, z_lo]),
            hi=np.concatenate([C.hi, z_hi]),
        )
        cvec = np.concatenate([form.a, form.b + sigma * form.babs])
        sol = lpmod.solve(LpProblem(c=cvec, P=P), tol=self.tol_lp, basis_hint=hint)
        self.calls += 1
        psi = sol.objective + form.d if sol.status == LpStatus.OPTIMAL else np.inf
        return sol, psi

    def keeps_basis(self, sol, i: int, f: int) -> bool:
        """True when the optimal basis of ``sol`` stays optimal after kink i
        is flipped to sign f, so the child LP's value is the parent's.

        The child LP differs from the parent only in column z_i: its
        L-entries, its cost and its bounds.  If z_i is nonbasic (at 0, or
        fixed out by presolve when sigma_i = 0), the parent basis stays
        primal feasible and every other reduced cost is unchanged; it stays
        optimal unless z_i's new reduced cost lets it move in direction f.
        """
        if sol.basis is None or self.form.n + i in sol.basis.cols:
            return False
        form = self.form
        col = -form.M[:, i] - f * form.L[:, i]
        col[i] += 1.0
        rc = form.b[i] + f * form.babs[i] + col @ sol.dual_eq[:form.s]
        return bool(f * rc >= 0.0)


def _sig_key(sigma: np.ndarray) -> bytes:
    return sigma.astype(np.int8).tobytes()


def _active_kinks(form: AbsLinearForm, sigma, z, tol_z) -> list[int]:
    act = np.abs(z) <= tol_z * (1.0 + np.abs(form.c))
    return [i for i in range(form.s) if sigma[i] == 0 or act[i]]


def _candidate_flips(form, sigma, z, kink_duals, tol_z, flip_rule):
    """Single flips of active kinks, ordered by the flip rule."""
    cands = []
    for i in _active_kinks(form, sigma, z, tol_z):
        flips = (1, -1) if sigma[i] == 0 else (-int(sigma[i]),)
        score = abs(kink_duals[i]) if kink_duals is not None else 0.0
        for f in flips:
            cands.append((i, f, score))
    if flip_rule == FLIP_MOST_NEGATIVE_DUAL:
        cands.sort(key=lambda t: (-t[2], t[0], -t[1]))
    elif flip_rule == FLIP_LOWEST_INDEX:
        cands.sort(key=lambda t: (t[0], -t[1]))
    else:
        raise ValueError(f"unknown flip rule {flip_rule!r}")
    return [(i, f) for i, f, _ in cands]


def _kink_duals(form: AbsLinearForm, sol) -> np.ndarray:
    """Bound multipliers of the z columns; magnitude signals binding kinks."""
    n = form.n
    return sol.dual_lo[n:] - sol.dual_hi[n:]


def aasm_minimize(
    form: AbsLinearForm,
    C: Polyhedron,
    start,
    opts: AasmOptions | None = None,
    trace_sink=None,
) -> AasmResult:
    """Adapted active signature descent from ``start``.

    Requires start feasible and C bounded.  The accepted chain of
    per-polyhedron optima strictly decreases; LOCAL_MIN means every single
    flip of an active kink was probed without strict descent.
    """
    opts = opts or AasmOptions()
    start = np.asarray(start, dtype=float)
    if not contains(C, start, 1e-7):
        raise AasmError("start point is not feasible")
    if not C.is_boxed():
        raise AasmError("feasible set must be bounded (boxed)")

    ws = _Lifted(form, C, opts.tol_lp)
    sigma = signature(form, start, opts.tol_z)
    sol, psi = ws.solve(sigma, hint=None)
    if sol.status == LpStatus.INFEASIBLE:
        raise AasmError("initial signature polyhedron infeasible despite feasible start")
    if sol.status == LpStatus.UNBOUNDED:
        raise AasmError("LP unbounded on a boxed feasible set")

    max_poly = opts.resolved_max(form.s)
    visited = {_sig_key(sigma)}
    visited_list = [sigma.copy()]
    probe_cache: dict[bytes, tuple] = {}
    if trace_sink is not None:
        trace_sink(f"{_sig_key(sigma).hex()} {psi:.17g} {sol.status.value}")

    status = None
    while True:
        if opts.partial_inner_limit is not None and len(visited_list) >= opts.partial_inner_limit:
            status = AasmStatus.INNER_LIMIT
            break

        z_at_v = sol.x[form.n:]
        duals = _kink_duals(form, sol)
        tol_dec = opts.tol_lp * (1.0 + abs(psi))
        accepted = None
        improving_but_visited = False
        for i, f in _candidate_flips(form, sigma, z_at_v, duals, opts.tol_z, opts.flip_rule):
            sig2 = sigma.copy()
            sig2[i] = f
            key = _sig_key(sig2)
            if key not in probe_cache:
                if ws.keeps_basis(sol, i, f):
                    # the parent's value, certified without an LP; the
                    # accepted chain only descends, so it never qualifies
                    probe_cache[key] = (None, psi)
                else:
                    probe_cache[key] = ws.solve(sig2, hint=sol.basis)
            sol2, psi2 = probe_cache[key]
            if psi2 < psi - tol_dec:
                if key in visited:
                    improving_but_visited = True
                    continue
                accepted = (sig2, key, sol2, psi2)
                break
        if accepted is None:
            status = AasmStatus.POLYHEDRA_EXHAUSTED if improving_but_visited else AasmStatus.LOCAL_MIN
            break
        if len(visited_list) >= max_poly:
            status = AasmStatus.POLYHEDRA_EXHAUSTED
            break
        sigma, key, sol, psi = accepted[0], accepted[1], accepted[2], accepted[3]
        visited.add(key)
        visited_list.append(sigma.copy())
        if trace_sink is not None:
            trace_sink(f"{key.hex()} {psi:.17g} {sol.status.value}")

    return AasmResult(
        v_star=sol.x[:form.n].copy(),
        psi_star=float(psi),
        status=status,
        polyhedra_visited=len(visited_list),
        lp_calls=ws.calls,
        visited_signatures=visited_list,
    )


def local_optimality_test(
    form: AbsLinearForm,
    C: Polyhedron,
    v,
    active_duals=None,
    opts: AasmOptions | None = None,
) -> bool:
    """True iff no single flip of an active kink at ``v`` admits strict descent.

    ``v`` must already be LP-optimal over its own signature closure and C;
    ``active_duals`` only influences probing order.
    """
    opts = opts or AasmOptions()
    v = np.asarray(v, dtype=float)
    ws = _Lifted(form, C, opts.tol_lp)
    psi_v, z = eval_pl(form, v)
    sigma = signature(form, v, opts.tol_z)
    tol_dec = opts.tol_lp * (1.0 + abs(psi_v))
    for i, f in _candidate_flips(form, sigma, z, active_duals, opts.tol_z, opts.flip_rule):
        sig2 = sigma.copy()
        sig2[i] = f
        _, psi2 = ws.solve(sig2, hint=None)
        if psi2 < psi_v - tol_dec:
            return False
    return True


def choose_next_polyhedron(
    form: AbsLinearForm,
    C: Polyhedron,
    v,
    duals=None,
    visited=None,
    opts: AasmOptions | None = None,
) -> np.ndarray | None:
    """First unvisited single flip whose probe LP strictly descends, in flip
    rule order; None when no candidate qualifies (exhaustion)."""
    opts = opts or AasmOptions()
    v = np.asarray(v, dtype=float)
    visited_keys = {_sig_key(np.asarray(s, dtype=int)) for s in (visited or [])}
    ws = _Lifted(form, C, opts.tol_lp)
    psi_v, z = eval_pl(form, v)
    sigma = signature(form, v, opts.tol_z)
    tol_dec = opts.tol_lp * (1.0 + abs(psi_v))
    for i, f in _candidate_flips(form, sigma, z, duals, opts.tol_z, opts.flip_rule):
        sig2 = sigma.copy()
        sig2[i] = f
        if _sig_key(sig2) in visited_keys:
            continue
        _, psi2 = ws.solve(sig2, hint=None)
        if psi2 < psi_v - tol_dec:
            return sig2
    return None


def brute_force_pl_min(form: AbsLinearForm, C: Polyhedron, tol_lp: float = 1e-9):
    """Global minimum by enumerating all 2^s closed signature domains.

    Test oracle: goes through the affine-restriction route and plain
    constraint intersection, independent of the lifted solver.
    """
    if form.s > 16:
        raise ValueError("brute force limited to s <= 16")
    if not C.is_boxed():
        raise ValueError("feasible set must be bounded (boxed)")
    best_v, best_psi = None, np.inf
    for signs in itertools.product((-1, 1), repeat=form.s):
        sigma = np.array(signs, dtype=int)
        res = restrict(form, sigma)
        P2 = intersect(C, signature_constraints(form, sigma))
        sol = lpmod.solve(LpProblem(c=res.g, P=P2), tol=tol_lp)
        if sol.status != LpStatus.OPTIMAL:
            continue
        val = res.h + res.g @ sol.x
        if val < best_psi - 1e-12 * (1.0 + abs(val)):
            best_psi, best_v = float(val), sol.x.copy()
    if best_v is None:
        raise AasmError("no signature domain intersected the feasible set")
    return best_v, best_psi
