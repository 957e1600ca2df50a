"""Minimize a piecewise-linear form over a compact polyhedron by successive
LP solves on signature-domain closures.

A form with L = 0 (no |z_i| feeds a later row) and babs >= 0 is convex, and
z is affine in v: one LP in (v, z+, z-), z = z+ - z-, gives its exact
minimum.  Every other form is solved by the descent below.

Each closure intersected with the feasible set is solved as one LP in lifted
variables (v, z): the switching recursion becomes s equality rows, the sign
pattern becomes variable bounds on z, and the objective is affine once
|z_i| = sigma_i z_i is substituted.  A sign flip therefore only touches one
z column and its bounds, so neighbor probes warm-start from the parent basis.

At the per-polyhedron optimum every single flip of an active kink is probed
(both signs for pinned kinks); if no probe LP strictly decreases the
objective, no single flip of an active kink descends.  That is weaker than
local minimality where C's rows tie kinks together: on a face that pins
several kinks at 0 at once, descent may need several flips at once.
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
    switch_signs,
)
from .polyhedron import Polyhedron, contains, intersect


class AasmError(Exception):
    """Violated precondition or impossible LP outcome inside the solver."""


class AasmStatus(Enum):
    LOCAL_MIN = "local_min"
    INNER_LIMIT = "inner_limit"
    POLYHEDRA_EXHAUSTED = "polyhedra_exhausted"


@dataclass(frozen=True)
class AasmResult:
    v_star: np.ndarray
    psi_star: float
    status: AasmStatus
    polyhedra_visited: int
    lp_calls: int
    visited_signatures: list = field(default_factory=list)


class _Lifted:
    """Assembles the LPs of one AASM call: v's columns, then a block of
    z columns whose rows encode the switching recursion, then C's rows on v."""

    def __init__(self, form: AbsLinearForm, C: Polyhedron):
        self.form = form
        self.C = C
        self.top_base = np.hstack([-form.Z, np.eye(form.s) - form.M])
        self.calls = 0

    def _solve(self, top, z_lo, z_hi, z_cost, hint):
        """min a^T v + z_cost^T w  s.t.  top (v, w) = c, v in C, z_lo <= w <= z_hi;
        returns the solution and psi = objective + d (inf unless OPTIMAL)."""
        form, C = self.form, self.C
        k = top.shape[1] - form.n
        P = Polyhedron(
            Aeq=np.vstack([top, np.hstack([C.Aeq, np.zeros((C.Aeq.shape[0], k))])]),
            beq=np.concatenate([form.c, C.beq]),
            Ain=np.hstack([C.Ain, np.zeros((C.Ain.shape[0], k))]),
            bin=C.bin,
            lo=np.concatenate([C.lo, z_lo]),
            hi=np.concatenate([C.hi, z_hi]),
        )
        cvec = np.concatenate([form.a, z_cost])
        sol = lpmod.solve(LpProblem(c=cvec, P=P), basis_hint=hint)
        self.calls += 1
        psi = sol.objective + form.d if sol.status == LpStatus.OPTIMAL else np.inf
        return sol, psi

    def solve(self, sigma: np.ndarray, hint: LpBasis | None):
        """The LP over the closure of sigma's domain, in (v, z) with
        |z_i| = sigma_i z_i substituted."""
        form = self.form
        top = self.top_base.copy()
        top[:, form.n:] -= form.L * sigma[np.newaxis, :]
        z_lo = np.where(sigma < 0, -np.inf, 0.0)
        z_hi = np.where(sigma > 0, np.inf, 0.0)
        return self._solve(top, z_lo, z_hi, form.b + sigma * form.babs, hint)

    def solve_split(self):
        """The exact minimum of a form with L = 0 and babs >= 0, as one LP in
        (v, z+, z-) with z = z+ - z- and z+, z- >= 0.  Its cost
        (b + babs)^T z+ + (babs - b)^T z- is at least b^T z + babs^T |z|,
        with equality when min(z+_i, z-_i) = 0, which some optimum meets."""
        form = self.form
        top = np.hstack([self.top_base, -self.top_base[:, form.n:]])
        s2 = 2 * form.s
        z_cost = np.concatenate([form.b + form.babs, form.babs - form.b])
        return self._solve(top, np.zeros(s2), np.full(s2, np.inf), z_cost, None)

    def keeps_basis(self, sol, i: int, f: int) -> bool:
        """True when the optimal basis of ``sol`` stays optimal after kink i
        is flipped to sign f, so the child LP's value is the parent's.

        The child LP differs from the parent only in column z_i: its
        L-entries, its cost and its bounds.  If z_i is nonbasic (at 0, or
        fixed at 0 when sigma_i = 0: the LP never pivots a fixed column in),
        the parent basis stays primal feasible and every other reduced cost
        is unchanged; it stays optimal unless z_i's new reduced cost lets it
        move in direction f.
        """
        if self.form.n + i in sol.basis.cols:
            return False
        form = self.form
        col = -form.M[:, i] - f * form.L[:, i]
        col[i] += 1.0
        rc = form.b[i] + f * form.babs[i] + col @ sol.dual_eq[:form.s]
        return bool(f * rc >= 0.0)


def _sig_key(sigma: np.ndarray) -> bytes:
    return sigma.astype(np.int8).tobytes()


def _candidate_flips(form, sigma, z, kink_duals) -> list[tuple[int, int]]:
    """Single flips (i, new sign) of the active kinks: pinned kinks (sigma_i
    = 0) both ways, kinks with z_i at zero to the other sign.  Largest
    |kink multiplier| first, then lower index, then + before -."""
    at_zero = switch_signs(form, z) == 0
    cands = [
        (i, f)
        for i in range(form.s) if sigma[i] == 0 or at_zero[i]
        for f in ((1, -1) if sigma[i] == 0 else (-int(sigma[i]),))
    ]
    return sorted(cands, key=lambda c: (-abs(kink_duals[c[0]]), c[0], -c[1]))


def _descends(psi_child: float, psi: float) -> bool:
    """Strict descent by more than the LP tolerance, relative to |psi|."""
    return psi_child < psi - lpmod.DEFAULT_TOL * (1.0 + abs(psi))


def _kink_duals(form: AbsLinearForm, sol) -> np.ndarray:
    """Bound multipliers of the z columns; magnitude signals binding kinks."""
    n = form.n
    return sol.dual_lo[n:] - sol.dual_hi[n:]


def _checked(sol, psi):
    """The first LP of a call, which a feasible start and a boxed C make
    feasible and bounded; anything else is a solver fault."""
    if sol.status == LpStatus.INFEASIBLE:
        raise AasmError("first LP infeasible despite a feasible start")
    if sol.status == LpStatus.UNBOUNDED:
        raise AasmError("LP unbounded on a boxed feasible set")
    return sol, psi


def _trace_line(sigma, psi, sol) -> str:
    return f"{_sig_key(sigma).hex()} {psi:.17g} {sol.status.value}"


def aasm_minimize(
    form: AbsLinearForm,
    C: Polyhedron,
    start,
    partial_inner_limit: int | None = None,
    trace_sink=None,
) -> AasmResult:
    """Minimize ``form`` over C from ``start``.

    Requires start feasible, C bounded and ``partial_inner_limit``, if set,
    at least 1.  A form with L = 0 and babs >= 0 is convex: one split LP
    (``_Lifted.solve_split``) gives its exact minimum, returned as LOCAL_MIN
    with 1 polyhedron and 1 LP, and ``partial_inner_limit`` does not apply.

    Any other form walks by adapted active signature descent.  The accepted
    chain of per-polyhedron optima strictly decreases; LOCAL_MIN means every
    single flip of an active kink was probed without strict descent.  The
    descent stops with INNER_LIMIT once ``partial_inner_limit`` polyhedra
    have been visited (the paper's partial solution), and with
    POLYHEDRA_EXHAUSTED when only visited polyhedra descend or 2^min(s, 20)
    have been visited.
    """
    if partial_inner_limit is not None and partial_inner_limit < 1:
        raise ValueError("partial_inner_limit must be at least 1")
    start = np.asarray(start, dtype=float)
    if not contains(C, start, 1e-7):
        raise AasmError("start point is not feasible")
    if not C.is_boxed():
        raise AasmError("feasible set must be bounded (boxed)")

    ws = _Lifted(form, C)
    if not form.L.any() and np.all(form.babs >= 0):
        sol, psi = _checked(*ws.solve_split())
        n, s = form.n, form.s
        sigma = switch_signs(form, sol.x[n:n + s] - sol.x[n + s:])
        if trace_sink is not None:
            trace_sink(_trace_line(sigma, psi, sol))
        return AasmResult(sol.x[:n].copy(), float(psi), AasmStatus.LOCAL_MIN, 1, ws.calls, [sigma])

    sigma = signature(form, start)
    sol, psi = _checked(*ws.solve(sigma, hint=None))

    max_poly = 2 ** min(form.s, 20)
    visited = set()
    visited_list = []
    probe_cache: dict[bytes, tuple] = {}
    while True:
        key = _sig_key(sigma)
        visited.add(key)
        visited_list.append(sigma.copy())
        if trace_sink is not None:
            trace_sink(_trace_line(sigma, psi, sol))
        if partial_inner_limit is not None and len(visited_list) >= partial_inner_limit:
            status = AasmStatus.INNER_LIMIT
            break

        accepted = None
        improving_but_visited = False
        for i, f in _candidate_flips(form, sigma, sol.x[form.n:], _kink_duals(form, sol)):
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
            if _descends(psi2, psi):
                if key in visited:
                    improving_but_visited = True
                    continue
                accepted = (sig2, sol2, psi2)
                break
        if accepted is None:
            status = AasmStatus.POLYHEDRA_EXHAUSTED if improving_but_visited else AasmStatus.LOCAL_MIN
            break
        if len(visited_list) >= max_poly:
            status = AasmStatus.POLYHEDRA_EXHAUSTED
            break
        sigma, sol, psi = accepted

    return AasmResult(
        v_star=sol.x[:form.n].copy(),
        psi_star=float(psi),
        status=status,
        polyhedra_visited=len(visited_list),
        lp_calls=ws.calls,
        visited_signatures=visited_list,
    )


def local_optimality_test(form: AbsLinearForm, C: Polyhedron, v) -> bool:
    """True iff no single flip of an active kink at ``v`` admits strict descent.

    ``v`` must already be LP-optimal over its own signature closure and C.
    The reference for ``aasm_minimize``'s LOCAL_MIN: every flip is solved as
    a cold LP, with no pricing and no cache.
    """
    v = np.asarray(v, dtype=float)
    ws = _Lifted(form, C)
    psi_v, z = eval_pl(form, v)
    sigma = signature(form, v)
    for i, f in _candidate_flips(form, sigma, z, np.zeros(form.s)):
        sig2 = sigma.copy()
        sig2[i] = f
        if _descends(ws.solve(sig2, hint=None)[1], psi_v):
            return False
    return True


def brute_force_pl_min(form: AbsLinearForm, C: Polyhedron):
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
        sol = lpmod.solve(LpProblem(c=res.g, P=P2))
        if sol.status != LpStatus.OPTIMAL:
            continue
        val = res.h + res.g @ sol.x
        if val < best_psi - 1e-12 * (1.0 + abs(val)):
            best_psi, best_v = float(val), sol.x.copy()
    if best_v is None:
        raise AasmError("no signature domain intersected the feasible set")
    return best_v, best_psi
